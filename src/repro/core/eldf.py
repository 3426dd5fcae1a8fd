"""Centralized (E)LDF scheduling (Algorithm 1, Section III-C).

At the start of interval ``k`` the controller sorts links by
``f(d_n^+(k)) * p_n`` (descending) and serves them in that strict priority
order: the head link transmits back-to-back (retrying losses) until its
buffer empties, then the next link, until the interval ends.  With
``f(x) = x`` this is exactly the classical Largest-Debt-First policy
(Remark 2).

ELDF is feasibility-optimal (Proposition 1) and serves as the centralized
gold standard in every experiment.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sim.rng import RngBundle
from .influence import DebtInfluenceFunction, LinearInfluence
from .permutations import link_order_to_priorities
from .policies import IntervalMac, IntervalOutcome, serve_link_attempts

__all__ = ["ELDFPolicy", "LDFPolicy"]


class ELDFPolicy(IntervalMac):
    """Extended Largest-Debt-First (Algorithm 1).

    Parameters
    ----------
    influence:
        Debt influence function ``f``; defaults to linear (= LDF).
    """

    name = "ELDF"

    def __init__(self, influence: DebtInfluenceFunction | None = None):
        super().__init__()
        self.influence = influence or LinearInfluence()

    def priority_order(self, positive_debts: np.ndarray) -> Tuple[int, ...]:
        """Links sorted by ``f(d^+) p`` descending (ties: lowest link first).

        The stable, index-based tie-break makes runs reproducible; any fixed
        tie-break preserves the optimality argument since tied links
        contribute equal weight.
        """
        weights = np.array(
            [self.influence(d) for d in positive_debts], dtype=float
        ) * self.spec.reliabilities
        # argsort of -weights is stable, so equal weights keep index order.
        return tuple(int(i) for i in np.argsort(-weights, kind="stable"))

    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: RngBundle,
    ) -> IntervalOutcome:
        spec = self.spec
        timing = spec.timing
        order = self.priority_order(positive_debts)

        deliveries = np.zeros(spec.num_links, dtype=np.int64)
        attempts = np.zeros(spec.num_links, dtype=np.int64)
        elapsed_us = 0.0
        for link in order:
            backlog = int(arrivals[link])
            if backlog == 0:
                continue
            budget = int((timing.interval_us - elapsed_us) // timing.data_airtime_us)
            if budget <= 0:
                break
            served, used = serve_link_attempts(
                link, backlog, budget, spec.channel, rng.channel
            )
            deliveries[link] = served
            attempts[link] = used
            elapsed_us += used * timing.data_airtime_us

        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=elapsed_us,
            overhead_time_us=0.0,
            collisions=0,
            priorities=link_order_to_priorities(order),
        )


class LDFPolicy(ELDFPolicy):
    """Largest-Debt-First — ELDF with the linear influence function.

    This is the centralized baseline plotted in every figure of the paper.
    """

    name = "LDF"

    def __init__(self) -> None:
        super().__init__(influence=LinearInfluence())


# ----------------------------------------------------------------------
# Registry descriptors (repro.core.registry).  ELDF and LDF are distinct
# registry names sharing one config encoding and one batch kernel.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)


def _eldf_config(policy: ELDFPolicy) -> dict:
    return {"influence": _registry.encode_config_value(policy.influence)}


_registry.register(
    _registry.PolicyDescriptor(
        name="ELDF",
        policy_class=ELDFPolicy,
        to_config=_eldf_config,
        from_config=lambda config: ELDFPolicy(
            influence=_registry.decode_config_value(config["influence"])
        ),
        batch_kernel="repro.sim.batch_kernels:BatchELDFKernel",
    )
)

_registry.register(
    _registry.PolicyDescriptor(
        name="LDF",
        policy_class=LDFPolicy,
        to_config=_eldf_config,
        from_config=lambda config: LDFPolicy(),  # influence is fixed linear
        batch_kernel="repro.sim.batch_kernels:BatchELDFKernel",
    )
)

"""Fixed-priority policy (the Fig. 6 setup).

Serves links in one unchanging priority order every interval, using the same
back-to-back service rule as ELDF.  The paper uses a fixed ordering to show
that the priority structure alone prevents starvation: average
timely-throughput decreases with priority index, but even the last link
receives non-zero service (because higher-priority links frequently finish
their buffers early).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..sim.rng import RngBundle
from .permutations import priority_to_link_order, validate_priority_vector
from .policies import IntervalMac, IntervalOutcome, serve_link_attempts

__all__ = ["StaticPriorityPolicy"]


class StaticPriorityPolicy(IntervalMac):
    """Always serve links in the given fixed priority order.

    Parameters
    ----------
    priorities:
        1-based priority vector ``sigma`` (``priorities[n]`` is link ``n``'s
        index, 1 = served first).  Defaults to the identity ordering.
    """

    name = "StaticPriority"

    def __init__(self, priorities: Sequence[int] | None = None):
        super().__init__()
        self._configured = (
            validate_priority_vector(priorities) if priorities is not None else None
        )
        self._order: Tuple[int, ...] = ()

    def _on_bind(self) -> None:
        n = self.spec.num_links
        if self._configured is None:
            sigma = tuple(range(1, n + 1))
        else:
            if len(self._configured) != n:
                raise ValueError(
                    f"priority vector covers {len(self._configured)} links, "
                    f"network has {n}"
                )
            sigma = self._configured
        self._sigma = sigma
        self._order = priority_to_link_order(sigma)

    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: RngBundle,
    ) -> IntervalOutcome:
        spec = self.spec
        timing = spec.timing
        deliveries = np.zeros(spec.num_links, dtype=np.int64)
        attempts = np.zeros(spec.num_links, dtype=np.int64)
        elapsed_us = 0.0
        # Budgets count attempts against the interval's capacity in
        # integer time units (IntervalTiming.time_units), never in float.
        free_attempts = timing.max_transmissions
        for link in self._order:
            backlog = int(arrivals[link])
            if backlog == 0:
                continue
            if free_attempts <= 0:
                break
            served, used = serve_link_attempts(
                link, backlog, free_attempts, spec.channel, rng.channel
            )
            deliveries[link] = served
            attempts[link] = used
            free_attempts -= used
            elapsed_us += used * timing.data_airtime_us

        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=elapsed_us,
            overhead_time_us=0.0,
            collisions=0,
            priorities=self._sigma,
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)

_registry.register(
    _registry.PolicyDescriptor(
        name="StaticPriority",
        policy_class=StaticPriorityPolicy,
        to_config=lambda policy: {
            "priorities": _registry.encode_config_value(policy._configured)
        },
        from_config=lambda config: StaticPriorityPolicy(
            priorities=_registry.decode_config_value(config["priorities"])
        ),
        batch_kernel="repro.sim.batch_kernels:BatchStaticPriorityKernel",
    )
)

"""802.11 DCF-style baseline: binary exponential backoff (reference [24]).

Not part of the paper's head-to-head evaluation, but the paper leans on
Bianchi's analysis of DCF (reference [24]) to motivate why random backoff
with collisions loses significant capacity even at moderate network sizes.
This baseline makes that argument reproducible: each backlogged link draws a
uniform backoff from its current contention window; the minimum wins, ties
collide; a link doubles its window (up to ``cw_max``) after a collision and
resets to ``cw_min`` after any outcome-decided transmission.

Deadline awareness is minimal (packets still flush at interval boundaries);
debt is ignored — DCF is the "deadline-and-debt-oblivious" reference point.
"""

from __future__ import annotations

import numpy as np

from ..sim.rng import RngBundle
from .policies import IntervalMac, IntervalOutcome

__all__ = ["DCFPolicy"]


class DCFPolicy(IntervalMac):
    """Binary-exponential-backoff CSMA/CA over the interval structure."""

    name = "DCF"

    def __init__(self, cw_min: int = 16, cw_max: int = 1024):
        super().__init__()
        if cw_min < 1 or cw_max < cw_min:
            raise ValueError(
                f"need 1 <= cw_min <= cw_max, got {cw_min}, {cw_max}"
            )
        self.cw_min = cw_min
        self.cw_max = cw_max
        self._cw: np.ndarray | None = None

    def _on_bind(self) -> None:
        self._cw = np.full(self.spec.num_links, self.cw_min, dtype=np.int64)

    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: RngBundle,
    ) -> IntervalOutcome:
        spec = self.spec
        timing = spec.timing
        n = spec.num_links
        assert self._cw is not None

        backlog = arrivals.astype(np.int64).copy()
        deliveries = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        collisions = 0
        elapsed_us = 0.0
        backoff_us = 0.0
        collision_us = 0.0

        while True:
            contenders = np.flatnonzero(backlog > 0)
            if contenders.size == 0:
                break
            draws = rng.policy.integers(0, self._cw[contenders])
            b_min = int(draws.min())
            start = elapsed_us + b_min * timing.backoff_slot_us
            if start + timing.data_airtime_us > timing.interval_us:
                break
            backoff_us += b_min * timing.backoff_slot_us
            elapsed_us = start + timing.data_airtime_us
            winners = contenders[draws == b_min]
            if winners.size == 1:
                link = int(winners[0])
                attempts[link] += 1
                # A decided (non-collided) transmission resets the window,
                # whether or not the unreliable channel delivered it.
                self._cw[link] = self.cw_min
                if spec.channel.attempt(link, rng.channel):
                    deliveries[link] += 1
                    backlog[link] -= 1
            else:
                collisions += 1
                collision_us += timing.data_airtime_us
                for link in winners:
                    link = int(link)
                    attempts[link] += 1
                    self._cw[link] = min(self._cw[link] * 2, self.cw_max)

        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=elapsed_us - backoff_us,
            overhead_time_us=backoff_us + collision_us,
            collisions=collisions,
            priorities=None,
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).  Batched by the same
# contention-round kernel as FCSMA, with the windows as per-link state
# that persists across intervals.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)

_registry.register(
    _registry.PolicyDescriptor(
        name="DCF",
        policy_class=DCFPolicy,
        to_config=lambda policy: {
            "cw_min": int(policy.cw_min),
            "cw_max": int(policy.cw_max),
        },
        from_config=lambda config: DCFPolicy(
            cw_min=int(config["cw_min"]), cw_max=int(config["cw_max"])
        ),
        batch_kernel="repro.sim.batch_kernels:BatchDCFKernel",
    )
)

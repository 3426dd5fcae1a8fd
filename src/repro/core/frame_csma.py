"""Frame-based CSMA baseline (Lu, Li, Srikant & Ying 2016 — reference [23]).

The frame-based CSMA algorithm generates a transmission *schedule* for each
frame (= interval) distributedly, using a short control phase at the frame
start, and then executes the schedule verbatim.  The paper's Section I
points out why this is sub-optimal over **unreliable** channels: the
schedule fixes each link's slot allocation before the channel outcomes are
known, so slots reserved for a link that finishes early (or has nothing
left worth retrying) cannot be reassigned within the frame — unlike the DP
protocol, whose priority-ordered service adapts to losses automatically.

Implementation (documented substitution — [23]'s exact control-phase
encoding is orthogonal to the capacity argument):

* A control phase of ``control_slots`` backoff slots at the frame start
  models the contention for schedule positions; it consumes airtime but
  carries no data.
* The schedule orders links by debt (the same weight the other debt-based
  policies use) and pre-allocates each backlogged link a contiguous block
  of ``ceil(backlog / p_n)`` transmission slots — its expected need —
  truncated to the frame budget.
* Within its block a link retries losses; **unused slots in a block are
  idle** (the non-adaptivity the paper criticizes).  With perfect channels
  blocks are sized exactly and the policy matches ELDF; with unreliable
  channels the variance of the geometric service time wastes capacity.
"""

from __future__ import annotations

import math

import numpy as np

from ..sim.rng import RngBundle
from .policies import IntervalMac, IntervalOutcome, serve_link_attempts

__all__ = ["FrameCSMAPolicy"]


class FrameCSMAPolicy(IntervalMac):
    """Frame-based scheduling with per-frame fixed slot blocks.

    Parameters
    ----------
    control_slots:
        Backoff slots consumed by the control phase at each frame start
        (models [23]'s control packets / control slot; 0 disables).
    headroom:
        Multiplier on each link's expected attempt need when sizing its
        block.  1.0 sizes to the mean; larger values trade idle slack for
        fewer truncated services.
    """

    name = "FrameCSMA"

    def __init__(self, control_slots: int = 16, headroom: float = 1.0):
        super().__init__()
        if control_slots < 0:
            raise ValueError(f"control_slots must be >= 0, got {control_slots}")
        if headroom <= 0:
            raise ValueError(f"headroom must be positive, got {headroom}")
        self.control_slots = control_slots
        self.headroom = headroom

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

        control_us = self.control_slots * timing.backoff_slot_us
        # Counted in integer time units (IntervalTiming.time_units), so a
        # decimal timing does not floor low in float.
        T, air, _, slot = timing.time_units
        budget_slots = (T - self.control_slots * slot) // air
        deliveries = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        if budget_slots <= 0:
            return IntervalOutcome(
                deliveries=deliveries,
                attempts=attempts,
                busy_time_us=0.0,
                overhead_time_us=control_us,
                collisions=0,
            )

        # Schedule: debt order (descending), block sizes fixed up front.
        reliabilities = spec.reliabilities
        order = np.argsort(-positive_debts * reliabilities, kind="stable")
        blocks = {}
        remaining = budget_slots
        for link in order:
            link = int(link)
            backlog = int(arrivals[link])
            if backlog == 0 or remaining == 0:
                continue
            need = math.ceil(self.headroom * backlog / reliabilities[link])
            blocks[link] = min(need, remaining)
            remaining -= blocks[link]

        # Execute: each link confined to its block; unused slack is idle.
        busy_slots = 0
        idle_slots = 0
        for link, block in blocks.items():
            served, used = serve_link_attempts(
                link, int(arrivals[link]), block, spec.channel, rng.channel
            )
            deliveries[link] = served
            attempts[link] = used
            busy_slots += used
            idle_slots += block - used

        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=busy_slots * timing.data_airtime_us,
            overhead_time_us=control_us
            + idle_slots * timing.data_airtime_us,
            collisions=0,
            info={"blocks": blocks, "unused_slots": idle_slots},
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).  Scalar-only: the frame runs
# a debt-ordered schedule of fixed per-link slot blocks, with idle slack
# and no contention rounds, so it fits neither the ordered-service nor
# the contention-round batch kernel; every engine falls back to the
# scalar interval simulator for it.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)

_registry.register(
    _registry.PolicyDescriptor(
        name="FrameCSMA",
        policy_class=FrameCSMAPolicy,
        to_config=lambda policy: {
            "control_slots": int(policy.control_slots),
            "headroom": float(policy.headroom),
        },
        from_config=lambda config: FrameCSMAPolicy(
            control_slots=int(config["control_slots"]),
            headroom=float(config["headroom"]),
        ),
    )
)

"""Round-robin (TDMA-style) baseline.

Deadline- and debt-oblivious: the priority ordering rotates by one position
each interval, so every link periodically gets the head slot.  Perfectly
fair in the long run and collision-free, but it cannot react to debts —
links with unlucky channels or bursty arrivals fall behind exactly when
they need more service.  Included as the natural "fair but state-oblivious"
reference point next to DCF ("unfair and state-oblivious") and the
debt-based policies.
"""

from __future__ import annotations

import numpy as np

from ..sim.rng import RngBundle
from .policies import IntervalMac, IntervalOutcome, serve_link_attempts

__all__ = ["RoundRobinPolicy"]


class RoundRobinPolicy(IntervalMac):
    """Rotating strict-priority service."""

    name = "RoundRobin"

    def __init__(self) -> None:
        super().__init__()
        self._offset = 0

    def _on_bind(self) -> None:
        self._offset = 0

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
        order = [(self._offset + i) % n for i in range(n)]
        self._offset = (self._offset + 1) % n

        deliveries = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
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

        priorities = [0] * n
        for position, link in enumerate(order):
            priorities[link] = position + 1
        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=elapsed_us,
            overhead_time_us=0.0,
            collisions=0,
            priorities=tuple(priorities),
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)

_registry.register(
    _registry.PolicyDescriptor(
        name="RoundRobin",
        policy_class=RoundRobinPolicy,
        to_config=lambda policy: {},
        from_config=lambda config: RoundRobinPolicy(),
        batch_kernel="repro.sim.batch_kernels:BatchRoundRobinKernel",
    )
)

"""Discretized FCSMA baseline (Li & Eryilmaz 2013, reference [22]).

FCSMA is a CSMA-style distributed implementation of debt-based scheduling
for fully-connected networks: backlogged links contend for every
transmission opportunity with an aggressiveness that grows with their
delivery debt.  The paper compares against FCSMA's *discretized* variant, in
which "the range of delivery debt is divided into a finite number of
sections and each section is mapped to one of the predetermined sizes of the
contention window" (Section VI).

Our implementation (documented substitution — [22]'s exact constants are not
reproduced in this paper):

* Per transmission round, every backlogged link draws a backoff uniformly
  from ``{0, ..., W_n - 1}`` where ``W_n`` comes from a saturating
  debt-to-window map (:class:`DebtWindowMap`).
* The minimum draw wins after that many idle slots elapse; ties are
  *collisions* that waste a full data airtime for everyone involved (all
  transmissions fail — the fully-interfering model of Section II-A).
* Debt (and hence windows) refresh per interval, as debts evolve per
  interval.

This reproduces the two failure modes the paper attributes to FCSMA:
capacity loss from backoff overhead plus collisions (it supports only
~70% of the admissible load in Fig. 3), and debt-obliviousness once debts
exceed the saturation threshold of the window map (the Group-1 starvation
in Figs. 7-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..sim.rng import RngBundle
from .policies import IntervalMac, IntervalOutcome

__all__ = ["DebtWindowMap", "FCSMAPolicy"]


@dataclass(frozen=True)
class DebtWindowMap:
    """Map a delivery debt to a contention-window size, saturating.

    The debt axis is cut into ``len(windows)`` sections of width
    ``section_width``; section ``i`` (debts in ``[i w, (i+1) w)``) uses
    ``windows[i]``, and every debt at or beyond the last boundary uses the
    final (smallest) window — the saturation the paper highlights.
    """

    windows: Tuple[int, ...] = (64, 48, 32, 24, 16)
    section_width: float = 1.0

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("need at least one window size")
        for w in self.windows:
            if w < 1:
                raise ValueError(f"window sizes must be >= 1, got {w}")
        if any(later > earlier for earlier, later in zip(self.windows, self.windows[1:])):
            raise ValueError(
                "windows must be non-increasing in debt (more debt => more "
                f"aggressive contention), got {self.windows}"
            )
        if self.section_width <= 0:
            raise ValueError(
                f"section width must be positive, got {self.section_width}"
            )

    def window(self, positive_debt: float) -> int:
        """Contention window for a link with debt ``positive_debt >= 0``."""
        if positive_debt < 0:
            raise ValueError(f"debt must be nonnegative, got {positive_debt}")
        section = int(positive_debt // self.section_width)
        return self.windows[min(section, len(self.windows) - 1)]

    def window_array(self, positive_debts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`window` of every entry of ``positive_debts``, as floats
        written into ``out`` (same shape)."""
        np.floor_divide(positive_debts, self.section_width, out=out)
        np.minimum(out, len(self.windows) - 1, out=out)
        table = np.asarray(self.windows, dtype=np.float64)
        return table.take(out.astype(np.intp), out=out)

    @property
    def saturation_debt(self) -> float:
        """Debt beyond which the map stops responding (paper's criticism)."""
        return (len(self.windows) - 1) * self.section_width


class FCSMAPolicy(IntervalMac):
    """Discretized FCSMA with per-round contention and real collisions."""

    name = "FCSMA"

    def __init__(self, window_map: DebtWindowMap | None = None):
        super().__init__()
        self.window_map = window_map or DebtWindowMap()

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

        backlog = arrivals.astype(np.int64).copy()
        windows = np.array(
            [self.window_map.window(float(d)) for d in positive_debts],
            dtype=np.int64,
        )
        deliveries = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        collisions = 0
        elapsed_us = 0.0
        backoff_us = 0.0
        collision_us = 0.0
        policy_rng = rng.policy
        channel_rng = rng.channel

        while True:
            contenders = np.flatnonzero(backlog > 0)
            if contenders.size == 0:
                break
            draws = policy_rng.integers(0, windows[contenders])
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
                if spec.channel.attempt(link, channel_rng):
                    deliveries[link] += 1
                    backlog[link] -= 1
            else:
                # Simultaneous transmissions in the fully-interfering
                # network: everyone fails, the airtime is lost.
                collisions += 1
                collision_us += timing.data_airtime_us
                for link in winners:
                    attempts[int(link)] += 1

        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=elapsed_us - backoff_us,
            overhead_time_us=backoff_us + collision_us,
            collisions=collisions,
            priorities=None,
            info={"windows": windows},
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).  The contention-round batch
# kernel runs every round of every row at once; rng="sync" drives scalar
# clones of this class, bit-identical to the scalar engine.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)

_registry.register(
    _registry.PolicyDescriptor(
        name="FCSMA",
        policy_class=FCSMAPolicy,
        to_config=lambda policy: {
            "window_map": _registry.encode_config_value(policy.window_map)
        },
        from_config=lambda config: FCSMAPolicy(
            window_map=_registry.decode_config_value(config["window_map"])
        ),
        batch_kernel="repro.sim.batch_kernels:BatchFCSMAKernel",
    )
)

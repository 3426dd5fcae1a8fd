"""Lightweight per-stage performance counters for the simulation hot path.

The batch/fused engines are tuned by shaving tens of microseconds per
interval; validating such work needs a decomposition of where each interval
actually goes (arrival draws, channel-block refills, kernel body, ordered
service, debt update, stats fold) without perturbing the thing being
measured.  This module provides a process-global :class:`PerfCounters`
registry with two design constraints:

* **Near-zero cost when disabled.**  Hot-path call sites guard on the
  plain attribute ``counters.enabled`` and only then call
  :func:`time.perf_counter`; a disabled run pays one boolean attribute
  check per instrumented section (single-digit nanoseconds), which is
  orders of magnitude below the per-interval budget.  The acceptance test
  bounds the disabled-mode overhead below 2 % of a fused interval.
* **Stages, not call trees.**  A stage is a flat label
  (``"kernel.dp.interval"``, ``"draws.channel_refill"``); repeated
  sections accumulate wall seconds and call counts, and workspace code
  additionally reports *tracked array allocations* per stage so the
  zero-allocation claim of the workspace kernels is checkable rather than
  asserted.

Enable with :func:`enable` (or ``REPRO_PERF=1`` in the environment before
import), read results with :meth:`PerfCounters.snapshot` /
:meth:`PerfCounters.summary`, and reset between measurements with
:func:`reset`.  The registry is intentionally not thread-safe: the hot
loops it instruments are single-threaded, and the parallel sweep runner
runs one registry per worker process.  The draw thread that fills the
next chunk of random draws while the kernel reads the current one
(:class:`repro.sim.batch_kernels._ChunkedDraws`) never reports: the
``draws.*_refill`` stages measure what the *consuming* thread spent at
each chunk boundary — its wait for a chunk filled ahead, or a fill of
its own when none was — so the stages still add up to the wall time.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, Optional

__all__ = [
    "PerfCounters",
    "StageStat",
    "KNOWN_STAGES",
    "counters",
    "clock",
    "enable",
    "disable",
    "reset",
    "stage",
]

#: Stage labels the built-in kernels report, for dashboards and bench
#: tooling (labels are open-ended — this tuple documents, it does not
#: gate).  The DP kernel reports ``kernel.dp.setup`` (candidate draw,
#: coins, backoff construction), ``kernel.dp.timeline`` (interval
#: timeline / ordered-service solve), ``kernel.dp.commit`` (swap commit
#: and outcome scatters) on both priority-state paths, and additionally
#: ``kernel.dp.incremental`` — the sparse-state maintenance work unique
#: to the incremental path, which the kernel picks for itself at bind
#: (persistent-inverse upkeep, backlogged serve-set selection,
#: touched-entry zeroing).  Comparing the dense and
#: incremental paths therefore means comparing the *sum* of their
#: ``kernel.dp.*`` stages, not label by label.  The contention kernel
#: (FCSMA, DCF) reports one ``kernel.contention.interval`` per interval,
#: the ordered-service kernels ``kernel.serve.interval``; the draw
#: objects report their refills, and the batch simulator splits each
#: step into ``sim.arrivals``, ``sim.kernel`` and ``sim.update``.
KNOWN_STAGES = (
    "kernel.dp.setup",
    "kernel.dp.incremental",
    "kernel.dp.timeline",
    "kernel.dp.commit",
    "kernel.serve.interval",
    "kernel.contention.interval",
    "draws.channel_refill",
    "draws.uniform_refill",
    "draws.arrival_refill",
    "sim.arrivals",
    "sim.kernel",
    "sim.update",
)

#: Re-exported so call sites read ``perf.clock()`` instead of importing
#: :mod:`time` separately; also the single place to swap the clock source.
clock = perf_counter


class StageStat:
    """Accumulated measurements for one stage label."""

    __slots__ = ("seconds", "calls", "allocs")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.allocs = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "allocs": self.allocs,
        }


class PerfCounters:
    """Process-global stage accumulator (see module docstring)."""

    __slots__ = ("enabled", "_stages")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._stages: Dict[str, StageStat] = {}

    # -- control -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated stages (the enabled flag is untouched)."""
        self._stages.clear()

    # -- recording (call sites guard on ``counters.enabled``) ----------
    def _stage(self, name: str) -> StageStat:
        stat = self._stages.get(name)
        if stat is None:
            stat = self._stages[name] = StageStat()
        return stat

    def add(self, name: str, seconds: float, allocs: int = 0) -> None:
        """Fold one timed section into ``name``."""
        stat = self._stage(name)
        stat.seconds += seconds
        stat.calls += 1
        stat.allocs += allocs

    def alloc(self, name: str, count: int = 1) -> None:
        """Record ``count`` tracked array allocations against ``name``
        without touching its timing (used at workspace (re)bind time and
        on slow-path fallbacks that genuinely allocate)."""
        self._stage(name).allocs += count

    # -- reporting -----------------------------------------------------
    @property
    def stages(self) -> Dict[str, StageStat]:
        return self._stages

    def seconds(self, name: str) -> float:
        stat = self._stages.get(name)
        return stat.seconds if stat is not None else 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """All stages as plain nested dicts (JSON-serializable), sorted by
        descending wall time."""
        items = sorted(
            self._stages.items(), key=lambda kv: -kv[1].seconds
        )
        return {name: stat.as_dict() for name, stat in items}

    def summary(self) -> str:
        """A fixed-width table of the snapshot for terminal output."""
        snap = self.snapshot()
        if not snap:
            return "(no perf stages recorded)"
        width = max(len(name) for name in snap)
        lines = [
            f"{'stage'.ljust(width)}  {'seconds':>10}  {'calls':>9}  {'allocs':>7}"
        ]
        for name, stat in snap.items():
            lines.append(
                f"{name.ljust(width)}  {stat['seconds']:>10.4f}  "
                f"{stat['calls']:>9d}  {stat['allocs']:>7d}"
            )
        return "\n".join(lines)


#: The registry every hot path reports into.
counters = PerfCounters(enabled=os.environ.get("REPRO_PERF", "") == "1")


def enable() -> None:
    counters.enable()


def disable() -> None:
    counters.disable()


def reset() -> None:
    counters.reset()


class stage:
    """Context manager for cold(er) sections: ``with perf.stage("name"):``.

    Hot loops should use the inline ``if counters.enabled`` pattern
    instead; this wrapper is for per-run/per-chunk granularity where the
    ~0.5 us of context-manager overhead is irrelevant.  It is a no-op when
    the registry is disabled.
    """

    __slots__ = ("_name", "_allocs", "_t0")

    def __init__(self, name: str, allocs: int = 0) -> None:
        self._name = name
        self._allocs = allocs
        self._t0: Optional[float] = None

    def __enter__(self) -> "stage":
        if counters.enabled:
            self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 is not None:
            counters.add(self._name, perf_counter() - self._t0, self._allocs)

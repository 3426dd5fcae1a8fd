"""Fault-tolerance primitives for sweep orchestration.

Full-horizon figure sweeps run thousands of independent (value, policy)
cells across processes; at that scale workers crash, hang, and die with
their pool.  This module supplies the shared vocabulary every runner
(scalar, fused, sharded) uses to survive those faults:

* :class:`FaultPolicy` — how hard to try: bounded retries with
  exponential backoff, an optional per-cell wall-clock timeout, and a
  ``strict`` vs ``best_effort`` mode.
* :class:`SweepCellError` — a permanent cell failure, naming the
  (value, policy) cell, its seed tuple, the attempt count, and the last
  underlying exception (``strict`` mode raises it).
* :class:`CellFailure` / :class:`SweepFailureReport` — the structured
  record ``best_effort`` mode attaches to a
  :class:`~repro.experiments.runner.SweepResult` whose permanently
  failed cells were filled with NaN points (:func:`nan_point`).
* :func:`call_with_retries` — the retry loop itself, shared by every
  in-process runner, for single cells and for units covering several
  cells (fused groups, shards); the pool orchestrator of sharded sweeps
  implements the same policy asynchronously across futures and settles
  permanent failures the same way.
* :func:`fire_fault_hooks` — deterministic fault injection for testing:
  an injectable in-process callable (:func:`install_fault_injector`)
  plus the ``REPRO_FAULT_INJECT`` environment variable, which crosses
  process boundaries into pool workers.

``REPRO_FAULT_INJECT`` grammar — semicolon-separated directives of the
form ``kind:policy:value:max_attempts``::

    raise:LDF:0.4        # raise InjectedFault in LDF's cell at value 0.4
    kill:DB-DP:*:1       # kill the worker (os._exit) on attempt 0 only
    hang:*:0.5           # sleep 'forever' in every policy's cell at 0.5

``policy`` / ``value`` / ``max_attempts`` each accept ``*`` (match
anything / fire on every attempt); ``max_attempts = n`` fires only while
the cell's attempt index is ``< n``, so a transient fault that heals
after ``n`` retries is expressed deterministically — no randomness, no
cross-process counters.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "CELL_TIMEOUT_REFUSAL",
    "ENV_FAULT_INJECT",
    "MODE_BEST_EFFORT",
    "MODE_STRICT",
    "MODES",
    "CellFailure",
    "FaultPolicy",
    "InjectedFault",
    "SweepCellError",
    "SweepFailureReport",
    "call_with_retries",
    "clear_fault_injector",
    "fire_fault_hooks",
    "install_fault_injector",
    "nan_point",
]

#: Environment variable carrying fault-injection directives (see the
#: module docstring for the grammar).  Read in the process that runs the
#: cell, so directives reach pool workers without any extra plumbing.
ENV_FAULT_INJECT = "REPRO_FAULT_INJECT"

MODE_STRICT = "strict"
MODE_BEST_EFFORT = "best_effort"
MODES = (MODE_STRICT, MODE_BEST_EFFORT)

#: Why a sweep that starts no worker pool refuses ``cell_timeout``: only
#: a pool can reclaim a hung cell, by respawning its worker.
CELL_TIMEOUT_REFUSAL = (
    "cell_timeout is enforced only on a worker pool: pass shards >= 2 "
    "over a grid of two or more cells, with a picklable spec_builder, "
    "policies and topology"
)

#: How long a "hang" directive sleeps — effectively forever next to any
#: realistic cell timeout, while still unwinding if a test forgets to
#: arm one.
_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultPolicy:
    """How a sweep runner responds to failing cells.

    retries:
        Extra attempts after the first (``retries=2`` means a cell runs
        at most 3 times before it is declared permanently failed).
    cell_timeout:
        Wall-clock seconds one work unit (a cell, or a fused shard) may
        *run* before it counts as failed.  Only a sharded sweep's worker
        pool can enforce it (a hung worker must be reclaimed by
        respawning the pool); a sweep that starts no pool refuses it
        with :data:`CELL_TIMEOUT_REFUSAL`.
    backoff_base / backoff_factor / backoff_max:
        Delay before retry ``k`` (1-based) is
        ``min(backoff_max, backoff_base * backoff_factor ** (k - 1))``.
        ``backoff_base=0`` disables sleeping (tests).
    mode:
        ``"strict"`` raises :class:`SweepCellError` on the first
        permanent failure; ``"best_effort"`` fills the failed cell with
        a NaN :func:`nan_point` and records a :class:`CellFailure` so
        the sweep still returns every healthy cell.
    """

    retries: int = 2
    cell_timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    mode: str = MODE_STRICT

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def best_effort(self) -> bool:
        return self.mode == MODE_BEST_EFFORT

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        exponent = max(int(attempt), 1) - 1
        return min(self.backoff_max, self.backoff_base * self.backoff_factor**exponent)


@dataclass(frozen=True)
class CellFailure:
    """One permanently failed (value, policy) cell of a sweep."""

    value: float
    policy: str
    seeds: Tuple[int, ...]
    attempts: int
    error_type: str
    message: str

    def describe(self) -> str:
        return (
            f"cell (value={self.value!r}, policy={self.policy!r}, "
            f"seeds={self.seeds}) failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class SweepFailureReport:
    """Every permanent failure of one best-effort sweep, structured."""

    failures: List[CellFailure] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    @property
    def cells(self) -> List[Tuple[float, str]]:
        """The failed (value, policy) cells, in failure order."""
        return [(f.value, f.policy) for f in self.failures]

    def summary(self) -> str:
        lines = [f"{len(self.failures)} sweep cell(s) permanently failed:"]
        lines += [f"  - {f.describe()}" for f in self.failures]
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-serializable form (CI artifacts, logs)."""
        return {
            "failed_cells": [
                {
                    "value": f.value,
                    "policy": f.policy,
                    "seeds": list(f.seeds),
                    "attempts": f.attempts,
                    "error_type": f.error_type,
                    "message": f.message,
                }
                for f in self.failures
            ]
        }


class SweepCellError(RuntimeError):
    """A sweep cell failed permanently (strict mode).

    Carries the failing cell's coordinates so a crash deep inside a
    worker still names exactly which (value, policy, seeds) cell to
    re-run or exclude.
    """

    def __init__(
        self,
        value: float,
        policy: str,
        seeds: Sequence[int],
        attempts: int,
        cause: BaseException,
    ):
        self.value = value
        self.policy = policy
        self.seeds = tuple(seeds)
        self.attempts = attempts
        super().__init__(
            f"sweep cell (value={value!r}, policy={policy!r}, "
            f"seeds={self.seeds}) failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )


class InjectedFault(RuntimeError):
    """Raised by a 'raise' fault-injection directive."""


def nan_point(policy: str, groups: Optional[Sequence[int]] = None):
    """The NaN :class:`~repro.experiments.runner.SweepPoint` best-effort
    mode substitutes for a permanently failed cell.

    ``group_deficiency`` gets one NaN per reporting group so
    ``SweepResult.group_series`` keeps working on partially failed
    sweeps.
    """
    from .runner import SweepPoint  # local import: runner imports this module

    nan = float("nan")
    group = None
    if groups is not None:
        group = (nan,) * (max(int(g) for g in groups) + 1)
    return SweepPoint(
        parameter=nan,
        policy=policy,
        total_deficiency=nan,
        deficiency_std=nan,
        group_deficiency=group,
        collisions=nan,
        mean_overhead_us=nan,
    )


def call_with_retries(
    fn: Callable[[int], object],
    *,
    value: float,
    label: str,
    seeds: Sequence[int],
    faults: FaultPolicy,
    failures: List[CellFailure],
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``fn(attempt)`` under ``faults``; the shared retry loop.

    Returns ``fn``'s result, or ``None`` after a permanent best-effort
    failure (recorded in ``failures``).  Strict mode raises
    :class:`SweepCellError` instead, chained to the last exception.
    """
    return _retry_unit(
        fn, (value, label), [(value, label)], seeds, faults, failures, sleep
    )


def _retry_unit(
    fn: Callable[[int], object],
    unit: Tuple[float, str],
    members: Sequence[Tuple[float, str]],
    seeds: Sequence[int],
    faults: FaultPolicy,
    failures: List[CellFailure],
    sleep: Callable[[float], None] = time.sleep,
):
    """:func:`call_with_retries` for a work unit covering several cells.

    ``unit`` is the (value, label) a strict :class:`SweepCellError`
    names; a permanent best-effort failure records one
    :class:`CellFailure` per ``members`` cell.
    """
    attempt = 0
    while True:
        try:
            return fn(attempt)
        except Exception as exc:
            attempt += 1
            if attempt <= faults.retries:
                delay = faults.backoff(attempt)
                if delay > 0:
                    sleep(delay)
                continue
            _fail_unit(exc, unit, members, seeds, attempt, faults, failures)
            return None


def _fail_unit(
    exc: BaseException,
    unit: Tuple[float, str],
    members: Sequence[Tuple[float, str]],
    seeds: Sequence[int],
    attempts: int,
    faults: FaultPolicy,
    failures: List[CellFailure],
) -> None:
    """Settle a permanently failed unit: raise :class:`SweepCellError`
    naming ``unit`` (strict), or record one :class:`CellFailure` per
    member cell (best effort)."""
    if not faults.best_effort:
        raise SweepCellError(*unit, tuple(seeds), attempts, exc) from exc
    failures.extend(
        CellFailure(
            value=float(value),
            policy=label,
            seeds=tuple(seeds),
            attempts=attempts,
            error_type=type(exc).__name__,
            message=str(exc),
        )
        for value, label in members
    )


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
_fault_injector: Optional[Callable[[float, str, int], None]] = None


def install_fault_injector(
    fn: Optional[Callable[[float, str, int], None]],
) -> Optional[Callable[[float, str, int], None]]:
    """Install an in-process injector ``fn(value, label, attempt)``.

    The callable runs at every cell's fault hook and injects a failure
    by raising.  Returns the previously installed injector (restore it
    when done).  Pool workers inherit the injector only under the
    ``fork`` start method; the ``REPRO_FAULT_INJECT`` environment
    variable works everywhere.
    """
    global _fault_injector
    previous = _fault_injector
    _fault_injector = fn
    return previous


def clear_fault_injector() -> None:
    install_fault_injector(None)


@dataclass(frozen=True)
class _Directive:
    kind: str
    policy: Optional[str]
    value: Optional[float]
    max_attempts: Optional[int]


_KINDS = ("raise", "kill", "hang")


def _parse_directives(spec: str) -> List[_Directive]:
    directives = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(":")]
        kind = fields[0]
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {ENV_FAULT_INJECT}="
                f"{spec!r} (known kinds: {_KINDS})"
            )
        policy = fields[1] if len(fields) > 1 and fields[1] not in ("", "*") else None
        value = (
            float(fields[2])
            if len(fields) > 2 and fields[2] not in ("", "*")
            else None
        )
        upto = (
            int(fields[3])
            if len(fields) > 3 and fields[3] not in ("", "*")
            else None
        )
        directives.append(_Directive(kind, policy, value, upto))
    return directives


def _matches(d: _Directive, value: float, label: str, attempt: int) -> bool:
    if d.policy is not None and d.policy != label:
        return False
    if d.value is not None and not math.isclose(
        d.value, value, rel_tol=1e-9, abs_tol=1e-12
    ):
        return False
    if d.max_attempts is not None and attempt >= d.max_attempts:
        return False
    return True


def fire_fault_hooks(value: float, label: str, attempt: int = 0) -> None:
    """Run the fault-injection hooks for one cell attempt.

    Called by every runner in the process that is about to simulate the
    (``value``, ``label``) cell — inside the pool worker for parallel
    sweeps.  No-op unless an injector is installed or
    ``REPRO_FAULT_INJECT`` is set.
    """
    if _fault_injector is not None:
        _fault_injector(value, label, attempt)
    spec = os.environ.get(ENV_FAULT_INJECT, "").strip()
    if not spec:
        return
    for d in _parse_directives(spec):
        if not _matches(d, value, label, attempt):
            continue
        if d.kind == "raise":
            raise InjectedFault(
                f"injected fault at cell (value={value!r}, "
                f"policy={label!r}), attempt {attempt}"
            )
        if d.kind == "kill":
            # Hard-exit the worker without cleanup: the parent observes
            # a BrokenProcessPool, exactly like a segfault or OOM kill.
            os._exit(86)
        if d.kind == "hang":
            time.sleep(_HANG_SECONDS)

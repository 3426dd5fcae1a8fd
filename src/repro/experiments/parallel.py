"""Fault-tolerant parallel sweep execution across processes.

Full-horizon figure sweeps are embarrassingly parallel over (parameter,
policy, seed) cells; this module fans them out with
``concurrent.futures.ProcessPoolExecutor``.  Cell specifications are plain
picklable descriptions (builder + value + policy name), reconstructed in the
workers, so results are bit-identical to the sequential runner for the same
seeds.

The orchestration layer survives the faults a long sweep actually meets:

* a worker **exception** retries the cell up to
  :class:`~repro.experiments.faults.FaultPolicy` ``retries`` times with
  exponential backoff, then fails the cell permanently — ``strict`` mode
  raises a :class:`~repro.experiments.faults.SweepCellError` naming the
  (value, policy) cell and its seed tuple, ``best_effort`` mode fills the
  cell with NaN and records it in the result's
  :class:`~repro.experiments.faults.SweepFailureReport`;
* a worker **death** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool — the orchestrator respawns it and resubmits only the unfinished
  cells.  A cell whose pool broke while other cells shared it is a
  bystander as far as anyone can tell: its attempt is refunded and it
  re-runs *alone*, so only a cell that breaks a pool by itself is
  charged (and named when it fails for good);
* a worker **hang** is bounded by ``cell_timeout``: the cell counts as
  failed, and the pool is respawned (terminating the hung process) so its
  slot is reclaimed — interrupted innocent cells are resubmitted with
  their attempt refunded;
* every completed cell is **checkpointed** through the content-addressed
  :class:`~repro.experiments.cache.SweepCache` the moment its future
  resolves (pass ``cache=True`` / a directory / a store), so a sweep
  killed at 50% resumes warm — cached cells are never submitted to the
  pool — and finishes bit-identical to an uninterrupted run;
* fatal errors shut the pool down with ``cancel_futures=True`` and
  terminate its workers instead of blocking in ``__exit__`` on cells that
  no longer matter.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import registry
from ..core.requirements import NetworkSpec
from .cache import SweepCache, resolve_cache, warn_uncacheable
from .configs import PolicyFactory
from .faults import (
    CellFailure,
    FaultPolicy,
    SweepFailureReport,
    _fail_unit,
    fire_fault_hooks,
    nan_point,
)
from .runner import SweepPoint, SweepResult, run_single

__all__ = ["run_sweep_parallel"]

#: Poll interval (seconds) used to observe when a queued future starts
#: running, which is when its ``cell_timeout`` clock starts.
_TIMEOUT_POLL_S = 0.05

#: Seconds to wait for a terminated worker process to exit.
_JOIN_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class _Cell:
    """One (value, policy) cell of the sweep — everything picklable."""

    value: float
    label: str

    @property
    def members(self) -> Tuple[Tuple[float, str], ...]:
        """The sweep cells this work unit covers: just itself."""
        return ((self.value, self.label),)


def _run_cell(
    cell: _Cell,
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    engine: str,
    attempt: int,
) -> Tuple[_Cell, SweepPoint]:
    fire_fault_hooks(cell.value, cell.label, attempt)
    spec = spec_builder(cell.value)
    point = run_single(
        spec, policies[cell.label], num_intervals, seeds, groups, engine
    )
    return cell, point


def _harvest_failures_last(future: Future) -> bool:
    """Sort key ordering successful futures before failed/cancelled ones."""
    if future.cancelled():
        return True
    return future.exception(timeout=0) is not None


@dataclass
class _CellState:
    """Orchestrator-side bookkeeping for one uncached cell."""

    cell: _Cell
    key: Optional[str] = None  # cache key, when the cell is cacheable
    attempts: int = 0  # submissions so far
    not_before: float = 0.0  # monotonic time gating the next submission
    #: the current attempt has overlapped another in-flight attempt
    shared: bool = False
    #: a pool broke under this unit while it shared the pool; it now
    #: only ever runs alone, so a further break is its own doing
    isolate: bool = False


class _Orchestrator:
    """Drives one pool generation after another until every cell settles.

    The loop submits eligible cells, waits for completions, harvests
    them (success → outcome + cache checkpoint; failure → retry or
    permanent failure), and respawns the pool whenever it breaks or a
    running cell exceeds its timeout.  At most one unit per worker is
    in flight, so a pool break has at most that many suspects; each
    re-runs alone to find the culprit (see :meth:`_harvest`).

    The work unit is pluggable: subclasses may override :attr:`task_fn`
    (a picklable module-level callable invoked as
    ``task_fn(state.cell, *submit_args, attempts)``) together with
    :meth:`_record_success` to orchestrate coarser units than one cell
    (a unit names its cells in ``members``) — the fused sweep runner
    dispatches whole row-contiguous *shards* this way and inherits the
    retry/backoff/respawn/checkpoint machinery unchanged.
    """

    #: The picklable work function submitted to the pool.
    task_fn = staticmethod(_run_cell)

    def __init__(
        self,
        states: List[_CellState],
        *,
        faults: FaultPolicy,
        store: Optional[SweepCache],
        max_workers: Optional[int],
        submit_args: Tuple,
        seeds: Tuple[int, ...],
        groups: Optional[Tuple[int, ...]],
        outcomes: Dict[Tuple[float, str], SweepPoint],
        failures: List[CellFailure],
    ):
        self.queue: List[_CellState] = list(states)
        self.faults = faults
        self.store = store
        self.max_workers = max_workers
        self.submit_args = submit_args
        self.seeds = seeds
        self.groups = groups
        self.outcomes = outcomes
        self.failures = failures
        self.inflight: Dict[Future, _CellState] = {}
        #: first time each inflight future was observed running (None =
        #: still queued inside the pool); the timeout clock starts here.
        self.started: Dict[Future, Optional[float]] = {}
        #: a strict permanent failure held back until the other suspects
        #: of a pool break have re-run (and checkpointed)
        self.deferred: Optional[Tuple[_CellState, BaseException]] = None

    # -- main loop -----------------------------------------------------
    def run(self) -> None:
        pool = self._new_pool()
        try:
            while self.queue or self.inflight:
                if self.deferred is not None and not self._suspects():
                    break
                try:
                    self._submit_ready(pool)
                    respawn = self._poll()
                except BrokenProcessPool:
                    # submit() on a broken pool; inflight futures carry
                    # the same exception and are harvested on respawn.
                    respawn = True
                if respawn:
                    pool = self._respawn(pool)
            if self.deferred is not None:
                self._record_permanent_failure(*self.deferred)
        except BaseException:
            self._shutdown(pool)
            raise
        pool.shutdown(wait=True)

    # -- pool lifecycle ------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _shutdown(self, pool: ProcessPoolExecutor) -> None:
        """Abandon a pool without blocking on cells we no longer want.

        ``cancel_futures=True`` drops every queued work item;
        terminating the worker processes reclaims hung or mid-cell
        workers (a plain ``shutdown(wait=True)`` would block on them
        forever).
        """
        try:
            procs = list((pool._processes or {}).values())
        except AttributeError:  # pragma: no cover - implementation detail
            procs = []
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)

    def _respawn(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace a broken or hung pool; keep finished work, requeue the rest.

        A broken pool fails every future it holds, so those are waited
        for and harvested (see :meth:`_harvest` for how the break is
        attributed).  Futures still pending after that — the innocent
        pool-mates of a hung cell — are requeued with the attempt
        refunded.
        """
        if getattr(pool, "_broken", False):
            wait(set(self.inflight), timeout=_JOIN_TIMEOUT_S)
        done = [f for f in self.inflight if f.done()]
        for future, state in [
            (f, self.inflight[f]) for f in self.inflight if not f.done()
        ]:
            self.inflight.pop(future)
            self.started.pop(future, None)
            future.cancel()
            self._refund(state)
        # Successes first, as in _poll: checkpoint finished work before a
        # strict failure can abort the sweep.
        for future in sorted(done, key=_harvest_failures_last):
            self._harvest(future)
        self._shutdown(pool)
        return self._new_pool()

    # -- submission ----------------------------------------------------
    def _submit_ready(self, pool: ProcessPoolExecutor) -> None:
        if any(s.isolate for s in self.inflight.values()):
            return  # an isolated unit runs alone
        now = time.monotonic()
        ready = [s for s in self.queue if s.not_before <= now]
        isolated = [s for s in ready if s.isolate]
        if isolated or self.deferred is not None:
            # Suspects of a pool break run one at a time; a sweep that
            # is about to abort runs nothing else.
            ready = [] if self.inflight else isolated[:1]
        for state in ready[: pool._max_workers - len(self.inflight)]:
            future = pool.submit(
                self.task_fn, state.cell, *self.submit_args, state.attempts
            )
            self.queue.remove(state)
            state.attempts += 1
            state.shared = bool(self.inflight)
            for other in self.inflight.values():
                other.shared = True
            self.inflight[future] = state
            self.started[future] = None

    def _refund(self, state: _CellState) -> None:
        """Requeue an interrupted attempt without charging it."""
        state.attempts = max(0, state.attempts - 1)
        state.not_before = 0.0
        self.queue.append(state)

    # -- waiting -------------------------------------------------------
    def _poll(self) -> bool:
        """Wait for progress; harvest completions; expire timeouts.

        Returns True when the pool must be respawned (it broke, or a
        running cell timed out and its worker has to be reclaimed).
        """
        if not self.inflight:
            # Every remaining cell is backing off; sleep to its retry time.
            delay = min(s.not_before for s in self.queue) - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, 1.0))
            return False
        done, _ = wait(
            set(self.inflight),
            timeout=self._wait_timeout(),
            return_when=FIRST_COMPLETED,
        )
        # Successes first: every completed cell is checkpointed before a
        # strict failure in the same batch aborts the sweep, so a resume
        # restarts from all finished work.
        broke = False
        for future in sorted(done, key=_harvest_failures_last):
            broke |= self._harvest(future)
        return self._expire_timeouts() or broke

    def _wait_timeout(self) -> Optional[float]:
        """How long ``wait`` may block before bookkeeping must run."""
        now = time.monotonic()
        candidates: List[float] = []
        cell_timeout = self.faults.cell_timeout
        if cell_timeout is not None:
            for future in self.inflight:
                started = self.started.get(future)
                if started is None:
                    # Not yet observed running; poll to start its clock.
                    candidates.append(_TIMEOUT_POLL_S)
                else:
                    candidates.append(max(0.0, started + cell_timeout - now))
        if self.queue:
            next_retry = min(s.not_before for s in self.queue)
            candidates.append(max(0.0, next_retry - now))
        return min(candidates) if candidates else None

    def _expire_timeouts(self) -> bool:
        cell_timeout = self.faults.cell_timeout
        if cell_timeout is None:
            return False
        now = time.monotonic()
        for future in self.inflight:
            if self.started.get(future) is None and future.running():
                self.started[future] = now
        expired = [
            future
            for future in self.inflight
            if (started := self.started.get(future)) is not None
            and now - started >= cell_timeout
        ]
        for future in expired:
            state = self.inflight.pop(future)
            self.started.pop(future, None)
            future.cancel()  # no-op for a running future; the respawn reclaims it
            self._record_failure(
                state,
                TimeoutError(
                    f"cell exceeded cell_timeout={cell_timeout}s "
                    f"(attempt {state.attempts})"
                ),
            )
        return bool(expired)

    # -- outcome recording ---------------------------------------------
    def _harvest(self, future: Future) -> bool:
        """Record one resolved future; True if it found the pool broken.

        A pool break fails every unit in the pool, and nothing tells
        the unit that killed its worker from the ones that were merely
        sharing the pool.  So a unit whose attempt shared the pool is
        refunded and re-runs alone; a unit that breaks the pool while
        running alone is charged like any other failure.
        """
        state = self.inflight.pop(future, None)
        self.started.pop(future, None)
        if state is None:
            return False
        try:
            _, point = future.result(timeout=0)
        except BrokenProcessPool as exc:
            if state.shared:
                state.isolate = True
                self._refund(state)
            else:
                self._record_failure(state, exc)
            return True
        except Exception as exc:  # worker exception
            self._record_failure(state, exc)
        else:
            self._record_success(state, point)
        return False

    def _record_success(self, state: _CellState, point: SweepPoint) -> None:
        self.outcomes[(state.cell.value, state.cell.label)] = point
        if self.store is not None and state.key is not None:
            # Checkpoint immediately: a sweep killed right now resumes
            # from every cell recorded up to this moment.
            self.store.put(state.key, point)

    def _record_failure(self, state: _CellState, exc: BaseException) -> None:
        if state.attempts <= self.faults.retries:
            state.not_before = time.monotonic() + self.faults.backoff(
                state.attempts
            )
            self.queue.append(state)
            return
        if not self.faults.best_effort and self._suspects(besides=state):
            # Strict mode aborts the sweep; the other suspects of a pool
            # break re-run first so every innocent one is checkpointed.
            self.deferred = self.deferred or (state, exc)
            return
        self._record_permanent_failure(state, exc)

    def _suspects(self, besides: Optional[_CellState] = None) -> bool:
        """Whether an isolated unit other than ``besides`` is unsettled."""
        return any(
            s.isolate and s is not besides
            for s in (*self.queue, *self.inflight.values())
        )

    def _record_permanent_failure(
        self, state: _CellState, exc: BaseException
    ) -> None:
        unit = state.cell
        _fail_unit(
            exc, (unit.value, unit.label), unit.members, self.seeds,
            state.attempts, self.faults, self.failures,
        )
        for value, label in unit.members:
            self.outcomes[(value, label)] = nan_point(label, self.groups)


def run_sweep_parallel(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = None,
    engine: str = "scalar",
    cache: Union[None, bool, str, SweepCache] = None,
    faults: Optional[FaultPolicy] = None,
) -> SweepResult:
    """Parallel drop-in for :func:`repro.experiments.runner.run_sweep`.

    ``spec_builder`` and the policy factories must be picklable (module-level
    functions / classes — every builder in :mod:`repro.experiments.configs`
    qualifies).  A sequence of registered policy names also works: the
    registry resolves each name to its (picklable) policy class.  Results
    are ordered exactly like the sequential runner's.
    ``engine="batch"`` composes with process parallelism: each worker then
    runs its cell's whole seed stack vectorized.  ``engine="fused"`` is
    accepted but equivalent to ``"batch"`` here — each worker owns a
    single cell, so there is no grid left to fuse inside it; use the
    sequential :func:`~repro.experiments.grid.run_sweep_fused` when you
    want whole-sweep fusion instead of process fan-out.

    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        enables per-cell checkpointing: warm cells are served from disk
        without ever being submitted to the pool, and each completed cell
        is stored the moment its future resolves, so an interrupted sweep
        resumes from everything already finished (same keys as the
        sequential runners — scalar/batch cells are deterministic per
        cell, making a resumed sweep bit-identical to an uninterrupted
        one).
    faults:
        A :class:`~repro.experiments.faults.FaultPolicy`; the default
        retries each failing cell twice with exponential backoff and
        raises :class:`~repro.experiments.faults.SweepCellError` (naming
        the cell, its seeds, and the attempt count) on permanent
        failure.  ``mode="best_effort"`` instead fills permanently
        failed cells with NaN points and attaches a
        :class:`~repro.experiments.faults.SweepFailureReport` to the
        result.  ``cell_timeout`` bounds each cell's wall-clock run.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    if engine == "fused":
        warnings.warn(
            "run_sweep_parallel(engine='fused') degrades to per-cell "
            "engine='batch': each worker owns a single cell, so there is "
            "no grid to fuse; use repro.experiments.grid.run_sweep_fused "
            "for whole-sweep fusion",
            UserWarning,
            stacklevel=2,
        )
    faults = faults or FaultPolicy()
    policies = registry.resolve_policies(policies)
    seeds_t = tuple(int(s) for s in seeds)
    groups_t = tuple(groups) if groups is not None else None
    store = resolve_cache(cache)
    # run_single treats "fused" as "batch" (one cell has no grid to
    # fuse), so both share the per-cell "batch" cache namespace.
    key_engine = "batch" if engine == "fused" else engine

    outcomes: Dict[Tuple[float, str], SweepPoint] = {}
    failures: List[CellFailure] = []
    states: List[_CellState] = []
    uncacheable: List[str] = []
    for value in values:
        for label in policies:
            cell = _Cell(value=float(value), label=label)
            key = None
            if store is not None:
                key = store.cell_key(
                    spec=spec_builder(cell.value),
                    policy=policies[label](),
                    seeds=seeds_t,
                    num_intervals=num_intervals,
                    groups=groups_t,
                    sync_rng=False,
                    engine=key_engine,
                )
                if key is None:
                    if label not in uncacheable:
                        uncacheable.append(label)
                else:
                    point = store.get(key)
                    if point is not None:
                        # Warm cell: never submitted to the pool.
                        outcomes[(cell.value, cell.label)] = point
                        continue
            states.append(_CellState(cell=cell, key=key))
    warn_uncacheable(uncacheable)

    if states:
        _Orchestrator(
            states,
            faults=faults,
            store=store,
            max_workers=max_workers,
            submit_args=(
                spec_builder,
                policies,
                num_intervals,
                seeds_t,
                groups_t,
                engine,
            ),
            seeds=seeds_t,
            groups=groups_t,
            outcomes=outcomes,
            failures=failures,
        ).run()

    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for value in values:
        for label in policies:
            point = outcomes[(float(value), label)]
            # dataclasses.replace keeps every other field of the worker's
            # point intact; rebuilding field-by-field here silently
            # dropped any field added to SweepPoint later.
            result.points.append(
                replace(point, parameter=float(value), policy=label)
            )
    if failures:
        result.failures = SweepFailureReport(failures)
    return result

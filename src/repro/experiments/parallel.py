"""The process pool behind sharded sweeps.

``run_sweep(..., shards=K)`` (``engine="scalar"`` or ``"fused"``) splits
its grid into work units and drives them through :class:`_Orchestrator`
on a pool of K worker processes: one cell per unit on the scalar engine,
K row-contiguous blocks on the fused engine (see
:func:`repro.experiments.grid._run_sweep_sharded`).  Units are plain
picklable descriptions (:class:`~repro.experiments.grid._ShardSpec`),
rebuilt in the workers, so a unit's points do not depend on where it
runs.

The orchestrator survives the faults a long sweep actually meets:

* a worker **exception** retries the unit up to
  :class:`~repro.experiments.faults.FaultPolicy` ``retries`` times with
  exponential backoff, then fails it permanently — ``strict`` mode
  raises a :class:`~repro.experiments.faults.SweepCellError` naming the
  unit (the (value, policy) cell on the scalar engine) and its seed
  tuple, ``best_effort`` mode fills the unit's cells with NaN and
  records each in the result's
  :class:`~repro.experiments.faults.SweepFailureReport`;
* a worker **death** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool — the orchestrator respawns it and resubmits only the unfinished
  units.  A unit whose pool broke while other units shared it is a
  bystander as far as anyone can tell: its attempt is refunded and it
  re-runs *alone*, so only a unit that breaks a pool by itself is
  charged (and named when it fails for good);
* a worker **hang** is bounded by ``cell_timeout``: the unit counts as
  failed, and the pool is respawned (terminating the hung process) so its
  slot is reclaimed — interrupted innocent units are resubmitted with
  their attempt refunded;
* every finished unit's cells are **checkpointed** through the
  content-addressed :class:`~repro.experiments.cache.SweepCache` the
  moment its future resolves, so a sweep killed at 50% resumes warm —
  warm units are never submitted to the pool — and finishes
  bit-identical to an uninterrupted run;
* fatal errors shut the pool down with ``cancel_futures=True`` and
  terminate its workers instead of blocking in ``__exit__`` on units
  that no longer matter.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .faults import CellFailure, FaultPolicy, _fail_unit
from .grid import _checkpoint, _fail_cells, _run_shard, _ShardSpec

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .cache import SweepCache
    from .runner import _Cell

#: Poll interval (seconds) used to observe when a queued future starts
#: running, which is when its ``cell_timeout`` clock starts.
_TIMEOUT_POLL_S = 0.05

#: Seconds to wait for a terminated worker process to exit.
_JOIN_TIMEOUT_S = 5.0


def _harvest_failures_last(future: Future) -> bool:
    """Sort key ordering successful futures before failed/cancelled ones."""
    if future.cancelled():
        return True
    return future.exception(timeout=0) is not None


@dataclass
class _UnitState:
    """Orchestrator-side bookkeeping for one unsettled work unit."""

    unit: _ShardSpec
    attempts: int = 0  # submissions so far
    not_before: float = 0.0  # monotonic time gating the next submission
    #: the current attempt has overlapped another in-flight attempt
    shared: bool = False
    #: a pool broke under this unit while it shared the pool; it now
    #: only ever runs alone, so a further break is its own doing
    isolate: bool = False


class _Orchestrator:
    """Drives one pool generation after another until every unit settles.

    The loop submits eligible units to
    :func:`~repro.experiments.grid._run_shard`, waits for completions,
    harvests them (success → the unit's cells resolved and checkpointed;
    failure → retry or permanent failure), and respawns the pool
    whenever it breaks or a running unit exceeds its timeout.  At most
    one unit per worker is in flight, so a pool break has at most that
    many suspects; each re-runs alone to find the culprit (see
    :meth:`_harvest`).  A permanent failure NaN-fills (best effort) or
    names (strict) the unit and reports each of its member cells.
    """

    def __init__(
        self,
        units: List[_ShardSpec],
        *,
        workers: int,
        submit_args: Tuple,
        cells_by_id: Dict[Tuple[float, str], _Cell],
        faults: FaultPolicy,
        store: Optional[SweepCache],
        seeds: Tuple[int, ...],
        groups: Optional[Tuple[int, ...]],
        failures: List[CellFailure],
    ):
        self.queue: List[_UnitState] = [_UnitState(unit) for unit in units]
        self.workers = workers
        self.submit_args = submit_args
        self.cells_by_id = cells_by_id
        self.faults = faults
        self.store = store
        self.seeds = seeds
        self.groups = groups
        self.failures = failures
        self.inflight: Dict[Future, _UnitState] = {}
        #: first time each inflight future was observed running (None =
        #: still queued inside the pool); the timeout clock starts here.
        self.started: Dict[Future, Optional[float]] = {}
        #: a strict permanent failure held back until the other suspects
        #: of a pool break have re-run (and checkpointed)
        self.deferred: Optional[Tuple[_UnitState, BaseException]] = None

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
                except BrokenExecutor:
                    # submit() on a broken pool (BrokenProcessPool is a
                    # BrokenExecutor); inflight futures carry the same
                    # exception and are harvested on respawn.
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
        # Imported here: loading the process pool pulls in
        # multiprocessing, which a sweep served from the cache never uses.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers)

    def _shutdown(self, pool: ProcessPoolExecutor) -> None:
        """Abandon a pool without blocking on units we no longer want.

        ``cancel_futures=True`` drops every queued work item;
        terminating the worker processes reclaims hung or mid-unit
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
        pool-mates of a hung unit — are requeued with the attempt
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
        for state in ready[: self.workers - len(self.inflight)]:
            future = pool.submit(
                _run_shard, state.unit, *self.submit_args, state.attempts
            )
            self.queue.remove(state)
            state.attempts += 1
            state.shared = bool(self.inflight)
            for other in self.inflight.values():
                other.shared = True
            self.inflight[future] = state
            self.started[future] = None

    def _refund(self, state: _UnitState) -> None:
        """Requeue an interrupted attempt without charging it."""
        state.attempts = max(0, state.attempts - 1)
        state.not_before = 0.0
        self.queue.append(state)

    # -- waiting -------------------------------------------------------
    def _poll(self) -> bool:
        """Wait for progress; harvest completions; expire timeouts.

        Returns True when the pool must be respawned (it broke, or a
        running unit timed out and its worker has to be reclaimed).
        """
        if not self.inflight:
            # Every remaining unit is backing off; sleep to its retry time.
            delay = min(s.not_before for s in self.queue) - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, 1.0))
            return False
        done, _ = wait(
            set(self.inflight),
            timeout=self._wait_timeout(),
            return_when=FIRST_COMPLETED,
        )
        # Successes first: every completed unit is checkpointed before a
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
            points = future.result(timeout=0)
        except BrokenExecutor as exc:
            if state.shared:
                state.isolate = True
                self._refund(state)
            else:
                self._record_failure(state, exc)
            return True
        except Exception as exc:  # worker exception
            self._record_failure(state, exc)
        else:
            # Checkpoint at once: a sweep killed right now resumes from
            # every cell resolved up to this moment.
            _checkpoint(points, self.cells_by_id, self.store)
        return False

    def _record_failure(self, state: _UnitState, exc: BaseException) -> None:
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

    def _suspects(self, besides: Optional[_UnitState] = None) -> bool:
        """Whether an isolated unit other than ``besides`` is unsettled."""
        return any(
            s.isolate and s is not besides
            for s in (*self.queue, *self.inflight.values())
        )

    def _record_permanent_failure(
        self, state: _UnitState, exc: BaseException
    ) -> None:
        unit = state.unit
        _fail_unit(
            exc, (unit.value, unit.label), unit.members, self.seeds,
            state.attempts, self.faults, self.failures,
        )
        _fail_cells([self.cells_by_id[m] for m in unit.members], self.groups)

"""Batch simulation engine: all replications of one experiment at once.

The scalar :class:`~repro.sim.interval_sim.IntervalSimulator` runs one seed
at a time; multi-seed experiments repeat it S times, so the Python
per-interval overhead multiplies by S.  The batch engine instead advances a
stack of S independent replications *together*: debts, arrivals, priorities
and deliveries live as ``(S, N)`` arrays, and each interval is one pass of
vectorized kernel code (:mod:`repro.sim.batch_kernels`) rather than S
Python loops.  At 20 seeds this turns the per-interval cost from
"20x scalar" into "roughly 1x scalar", which is where the engine's >=10x
speedup comes from.

The ``rng=`` argument picks the draw discipline
(:data:`~repro.sim.rng.RNG_MODES`):

``"batch"`` (default, ``rng=None``)
    Vectorized draws from dedicated batch streams
    (:meth:`~repro.sim.rng.BatchRngBundle.batch_stream`).  Each
    replication is still an independent, reproducible random experiment,
    but the draw *order* differs from the scalar engine, so traces agree
    with scalar runs statistically rather than bit-for-bit.  Deterministic
    quantities (round-robin orders, LDF tie-breaks) are exact either way.

``"free"`` (fastest)
    Demand-sized blocks from independent free substreams; statistically
    equivalent to ``"batch"``, and the only vectorized discipline that
    hosts stochastic channel or arrival state.

``"sync"`` (exact, for cross-validation)
    Each replication consumes its scalar-identical streams in scalar
    order, by driving one scalar policy clone per seed; every trace is
    bit-identical to ``IntervalSimulator(spec, policy, seed=s)``.  This is
    how the test-suite proves the batch bookkeeping correct.

Stateful spec components are batchable when they expose a vectorized
per-row state process: the Gilbert-Elliott channel and the deterministic
time-varying reliability profiles evolve as ``(S, N)`` planes inside the
kernels' channel-draw pipeline, and Markov-modulated / Pareto-burst
arrivals evolve as ``(S, N)`` planes inside the arrival-draw pipeline,
fed by a dedicated ``"arrival-state"`` substream so stateless processes'
draw schedules never shift (stochastic state additionally requires the
``rng="free"`` discipline, since lockstep batch streams cannot host the
extra evolution draws).  Components without a vectorized state process —
channels whose attempts are not i.i.d. within an interval, arrival
processes without ``stack_rows`` — are rejected at construction with a
``TypeError`` naming the working fallback (``rng="sync"`` or the
scalar engine).  :func:`batch_refusal` is the one place that decides
what runs.

Beyond one shared spec, the simulator accepts a **per-row spec stack**
(:class:`~repro.sim.spec_stack.SpecStack`, or any sequence of specs, one
per seed): rows may then come from heterogeneous networks — different
reliabilities, requirements, and arrival parameters — which is what lets
the grid-fused sweep engine (:mod:`repro.experiments.grid`) simulate a
whole figure sweep in one engine pass.  ``record_traces=False`` skips the
per-interval trace lists and keeps only the streaming
:class:`BatchSweepStats` aggregates, which is all a sweep cell reports.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import registry
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from . import perf
from .batch_kernels import (
    DRAW_CHUNK,
    BatchIntervalOutcome,
    _ChunkedDraws,
    _claim,
    make_batch_kernel,
)
from .results import SimulationResult
from .rng import BatchRngBundle, normalize_rng_mode, row_blocks
from .spec_stack import SpecStack, _row_index

__all__ = [
    "BatchIntervalSimulator",
    "BatchSimulationResult",
    "BatchSweepStats",
    "batch_refusal",
    "run_simulation_batch",
    "share_batch_draws",
    "supports_batch_engine",
]


def batch_refusal(
    spec: Union[NetworkSpec, SpecStack],
    policy: IntervalMac,
    rng_mode: str,
) -> Optional[str]:
    """Why ``(spec, policy)`` cannot run on the batch engine under
    ``rng_mode``, or ``None`` when it can.

    The one batch-eligibility gate: :func:`supports_batch_engine`,
    :class:`BatchIntervalSimulator` and the topology engine all ask it.
    ``spec`` may be a :class:`~repro.sim.spec_stack.SpecStack`, whose
    every row must pass.  The policy's family must name a batch kernel.
    ``"sync"`` drives scalar clones per row, so it hosts any channel and
    arrival process.  The vectorized disciplines pre-draw geometric
    retry counts and arrival blocks, so they need a channel with
    i.i.d.-within-interval attempts or a vectorized state process, and
    an arrival process that is batch-samplable or has one; stochastic
    state evolution additionally needs ``"free"``.  The family's kernel
    must also solve the interval timing
    (:meth:`~repro.sim.batch_kernels.BatchPolicyKernel.timing_refusal`).
    """
    refusal = registry.kernel_refusal(policy)
    if refusal is not None or rng_mode == "sync":
        return refusal
    kernel = registry.descriptor_for(policy).kernel_factory()
    refusal = kernel.timing_refusal(spec.timing)
    if refusal is not None:
        return refusal
    specs = spec.specs if isinstance(spec, SpecStack) else (spec,)
    for channel in {id(s.channel): s.channel for s in specs}.values():
        name = type(channel).__name__
        if not channel.has_state:
            if not channel.iid_within_interval:
                return (
                    f"{name} attempts are not i.i.d. within an interval, "
                    "so the batch engine cannot pre-draw its retry counts; "
                    "use engine='scalar' or rng='sync'"
                )
        elif not channel.supports_batch_state:
            return (
                f"this {name} declines batched channel state (a state "
                "with zero success probability breaks geometric retry "
                "draws), so the batch engine cannot run it; use "
                "engine='scalar' or rng='sync'"
            )
        elif channel.state_uses_rng and rng_mode != "free":
            return (
                f"{name} state cannot evolve under the lockstep "
                f"'{rng_mode}' draw discipline of the batch engine; pass "
                "rng='free' (statistically equivalent) or use "
                "engine='scalar'"
            )
    for arrivals in {id(s.arrivals): s.arrivals for s in specs}.values():
        name = type(arrivals).__name__
        if not arrivals.has_state:
            if not arrivals.supports_batch_sampling:
                return (
                    f"{name} cannot be sampled as an independent batch "
                    "(stateful process), so the batch engine cannot run "
                    "it; use rng='sync' or engine='scalar'"
                )
        elif not arrivals.supports_batch_state:
            return (
                f"{name} carries per-interval state without a vectorized "
                "batch state process, so the batch engine cannot run it; "
                "use rng='sync' or engine='scalar'"
            )
        elif arrivals.state_uses_rng and rng_mode != "free":
            return (
                f"{name} evolves stochastic per-interval state, which the "
                "lockstep batch draw discipline cannot host; pass "
                "rng='free' (statistically equivalent), rng='sync' "
                "(bit-identical, scalar-speed), or engine='scalar'"
            )
    return None


def supports_batch_engine(
    spec: NetworkSpec,
    policy: IntervalMac,
    *,
    rng: Optional[str] = None,
) -> bool:
    """Whether ``(spec, policy)`` can run on the batch engine under
    ``rng`` (:func:`batch_refusal` finds no reason it cannot).

    Callers that want graceful degradation (the experiment runner)
    check this and fall back to the scalar engine.
    """
    return batch_refusal(spec, policy, normalize_rng_mode(rng)) is None


class BatchSimulationResult:
    """Per-interval traces for a whole stack of replications.

    The batch analogue of :class:`~repro.sim.results.SimulationResult`:
    per-link arrays are ``(K, S, N)``, per-interval series are ``(K, S)``.
    Metric methods return one value per replication (leading ``S`` axis),
    and :meth:`seed_result` / :meth:`to_results` materialize
    scalar-compatible :class:`SimulationResult` views for downstream code
    that expects them.

    ``requirements`` may be a shared ``(N,)`` vector or, for heterogeneous
    spec stacks, an ``(S, N)`` matrix with one requirement row per
    replication; metrics broadcast either shape.
    """

    def __init__(
        self,
        policy_name: str,
        requirements: np.ndarray,
        seeds: Sequence[int],
        record_priorities: bool = False,
    ):
        self.policy_name = policy_name
        self.requirements = np.asarray(requirements, dtype=float)
        self.seeds: Tuple[int, ...] = tuple(int(s) for s in seeds)
        self.record_priorities = record_priorities
        self._arrivals: List[np.ndarray] = []
        self._deliveries: List[np.ndarray] = []
        self._attempts: List[np.ndarray] = []
        self._busy: List[np.ndarray] = []
        self._overhead: List[np.ndarray] = []
        self._collisions: List[np.ndarray] = []
        self._priorities: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def record(self, arrivals: np.ndarray, outcome: BatchIntervalOutcome) -> None:
        if outcome.attempts is None:
            raise RuntimeError(
                f"{self.policy_name} ran on a lite-bound kernel (no attempt "
                "traces); trace recording requires lite=False"
            )
        # Copy: several draw/kernel paths hand back reused buffers (e.g.
        # the workspace kernels' outcome planes), so stored traces must
        # own their data or every interval would alias the last one.
        self._arrivals.append(np.array(arrivals, dtype=np.int64))
        self._deliveries.append(np.array(outcome.deliveries, dtype=np.int64))
        self._attempts.append(np.array(outcome.attempts, dtype=np.int64))
        self._busy.append(np.array(outcome.busy_time_us, dtype=float))
        self._overhead.append(np.array(outcome.overhead_time_us, dtype=float))
        self._collisions.append(np.array(outcome.collisions, dtype=np.int64))
        if self.record_priorities:
            if outcome.priorities is None:
                raise RuntimeError(
                    f"{self.policy_name} produced no priorities but the run "
                    "was configured to record them"
                )
            self._priorities.append(np.array(outcome.priorities, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def num_intervals(self) -> int:
        return len(self._deliveries)

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)

    @property
    def num_links(self) -> int:
        return self.requirements.shape[-1]

    @property
    def _req_rows(self) -> np.ndarray:
        """Requirements broadcastable against ``(S, N)`` arrays."""
        if self.requirements.ndim == 2:
            return self.requirements
        return self.requirements[None, :]

    def _stack3(self, rows: List[np.ndarray]) -> np.ndarray:
        shape = (self.num_intervals, self.num_seeds, self.num_links)
        if not rows:
            return np.zeros(shape, dtype=np.int64)
        return np.stack(rows).reshape(shape)

    @property
    def arrivals(self) -> np.ndarray:
        return self._stack3(self._arrivals)

    @property
    def deliveries(self) -> np.ndarray:
        return self._stack3(self._deliveries)

    @property
    def attempts(self) -> np.ndarray:
        return self._stack3(self._attempts)

    @property
    def busy_time_us(self) -> np.ndarray:
        if not self._busy:
            return np.zeros((0, self.num_seeds))
        return np.stack(self._busy)

    @property
    def overhead_time_us(self) -> np.ndarray:
        if not self._overhead:
            return np.zeros((0, self.num_seeds))
        return np.stack(self._overhead)

    @property
    def collisions(self) -> np.ndarray:
        if not self._collisions:
            return np.zeros((0, self.num_seeds), dtype=np.int64)
        return np.stack(self._collisions)

    @property
    def priorities(self) -> np.ndarray:
        if not self.record_priorities:
            raise RuntimeError("run was not configured to record priorities")
        return self._stack3(self._priorities)

    # ------------------------------------------------------------------
    # Definition 1 metrics, one value per replication
    # ------------------------------------------------------------------
    def per_link_deficiency(self, upto: Optional[int] = None) -> np.ndarray:
        """``(q_n - mean deliveries)^+`` per replication — shape ``(S, N)``."""
        k = self.num_intervals if upto is None else upto
        if k <= 0:
            return np.broadcast_to(
                self._req_rows, (self.num_seeds, self.num_links)
            ).copy()
        mean = self.deliveries[:k].mean(axis=0)
        return np.maximum(self._req_rows - mean, 0.0)

    def total_deficiency(self, upto: Optional[int] = None) -> np.ndarray:
        """Total deficiency per replication — shape ``(S,)``."""
        return self.per_link_deficiency(upto).sum(axis=1)

    def deficiency_trajectory(self, stride: int = 1) -> np.ndarray:
        """Per-replication total deficiency after each ``stride``-th
        interval — shape ``(K // stride, S)``."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        cumulative = np.cumsum(self.deliveries, axis=0, dtype=float)
        ks = np.arange(1, self.num_intervals + 1)[:, None, None]
        deficiency = np.maximum(
            self._req_rows[None, :, :] - cumulative / ks, 0.0
        )
        totals = deficiency.sum(axis=2)
        return totals[stride - 1 :: stride]

    def timely_throughput(self) -> np.ndarray:
        """Mean deliveries/interval per replication — shape ``(S, N)``."""
        if self.num_intervals == 0:
            return np.zeros((self.num_seeds, self.num_links))
        return self.deliveries.mean(axis=0)

    # ------------------------------------------------------------------
    def seed_index(self, seed: int) -> int:
        """Position of ``seed`` in the replication stack."""
        try:
            return self.seeds.index(int(seed))
        except ValueError:
            raise KeyError(f"seed {seed} is not in this batch: {self.seeds}")

    def seed_result(self, seed: int) -> SimulationResult:
        """One replication's trace as a scalar-compatible result."""
        s = self.seed_index(seed)
        requirements = (
            self.requirements[s]
            if self.requirements.ndim == 2
            else self.requirements
        )
        return SimulationResult.from_arrays(
            policy_name=self.policy_name,
            requirements=requirements,
            arrivals=self.arrivals[:, s],
            deliveries=self.deliveries[:, s],
            attempts=self.attempts[:, s],
            busy_time_us=self.busy_time_us[:, s],
            overhead_time_us=self.overhead_time_us[:, s],
            collisions=self.collisions[:, s],
            priorities=self.priorities[:, s] if self.record_priorities else None,
        )

    def to_results(self) -> List[SimulationResult]:
        """All replications as scalar-compatible results, in seed order."""
        return [self.seed_result(s) for s in self.seeds]


class BatchSweepStats:
    """Streaming per-row aggregates sufficient for sweep reporting.

    Holds exactly what the experiment runner reports from a run — per-row
    delivery sums, collision sums, and the per-interval overhead rows —
    without retaining full ``(K, S, N)`` traces, so a grid-fused
    mega-batch stays O(S*N) in memory instead of O(K*S*N).

    The aggregates are chosen to reproduce the trace-based metrics
    *bit-for-bit*: deliveries and collisions accumulate as exact int64
    sums (every partial sum is a small integer, so the float mean
    ``sums / K`` equals ``traces.mean(axis=0)`` exactly), and overhead
    keeps the raw per-interval ``(S,)`` rows so :meth:`mean_overhead_us`
    performs the same ``np.stack(...).mean(axis=0)`` pairwise summation
    as ``BatchSimulationResult.overhead_time_us.mean(axis=0)``.
    """

    def __init__(self, requirements: np.ndarray, seeds: Sequence[int]):
        self.seeds: Tuple[int, ...] = tuple(int(s) for s in seeds)
        req = np.asarray(requirements, dtype=float)
        if req.ndim == 1:
            req = req[None, :]
        if req.shape[0] == 1:
            req = np.broadcast_to(req, (len(self.seeds), req.shape[1]))
        elif req.shape[0] != len(self.seeds):
            raise ValueError(
                f"requirements have {req.shape[0]} rows but the stack has "
                f"{len(self.seeds)} replications"
            )
        self.requirements = np.array(req, dtype=float)
        self.num_intervals = 0
        self.delivery_sums = np.zeros(self.requirements.shape, dtype=np.int64)
        self.collision_sums = np.zeros(len(self.seeds), dtype=np.int64)
        self._overhead_rows: List[np.ndarray] = []

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)

    @property
    def num_links(self) -> int:
        return self.requirements.shape[-1]

    def update(self, outcome: BatchIntervalOutcome) -> None:
        """Fold one interval's outcome into the running aggregates.

        The overhead row is *copied* before retention: workspace kernels
        hand out live buffers they overwrite next interval, so anything
        kept beyond the call must own its data (sums fold immediately and
        need no copy).
        """
        self.delivery_sums += np.asarray(outcome.deliveries, dtype=np.int64)
        self.collision_sums += np.asarray(outcome.collisions, dtype=np.int64)
        self._overhead_rows.append(
            np.array(outcome.overhead_time_us, dtype=float)
        )
        self.num_intervals += 1

    # ------------------------------------------------------------------
    def mean_deliveries(self) -> np.ndarray:
        """Mean deliveries/interval per row — shape ``(S, N)``."""
        if self.num_intervals == 0:
            return np.zeros(self.requirements.shape)
        return self.delivery_sums / self.num_intervals

    def per_link_deficiency(self) -> np.ndarray:
        """``(q_n - mean deliveries)^+`` per row — shape ``(S, N)``."""
        if self.num_intervals == 0:
            return self.requirements.copy()
        return np.maximum(self.requirements - self.mean_deliveries(), 0.0)

    def total_deficiency(self) -> np.ndarray:
        """Total deficiency per row — shape ``(S,)``."""
        return self.per_link_deficiency().sum(axis=1)

    def total_collisions(self) -> np.ndarray:
        """Collision count per row over the whole run — shape ``(S,)``."""
        return self.collision_sums.copy()

    def mean_overhead_us(self) -> np.ndarray:
        """Mean per-interval overhead per row — shape ``(S,)``."""
        if not self._overhead_rows:
            return np.zeros(self.num_seeds)
        return np.stack(self._overhead_rows).mean(axis=0)


class _ArrivalDraws(_ChunkedDraws):
    """Chunked arrival blocks, kept narrow and widened per interval.

    A chunk holds ``(depth, S, N)`` counts in the narrowest dtype that
    holds the stack's ``A_max`` (``np.min_scalar_type``: uint8 for
    every shipped process), in two buffers made once (:meth:`_buffer`).
    :meth:`next` copies the interval's row into one int64 ``(S, N)``
    plane the source owns, so consumers see int64 exactly as drawn and
    may write into it (the topology engine's boundary masker zeroes
    entries in place) without touching the chunk.  Subclasses fill a
    chunk from int64 draws checked against ``A_max``, so no value
    wraps.

    Sampling may make several Generator calls per chunk (bursty
    processes draw uniforms, then integers), so the chunk depth changes
    how the stream's values interleave: unlike the single-call channel
    and uniform chunks, it is not sized by bytes.  Batch mode keeps
    :data:`~repro.sim.batch_kernels.DRAW_CHUNK`; the free discipline
    (statistical equivalence is its contract) passes the kernel's deeper
    depth.
    """

    _stage = "draws.arrival_refill"

    def __init__(
        self,
        stack: Optional[SpecStack],
        spec: NetworkSpec,
        num_seeds: int,
        depth: Optional[int],
    ):
        # A fill's cost is its int64 draws, whatever the chunk keeps, so
        # the draw-thread hand-off rule weighs it at 8 bytes per value.
        super().__init__(
            DRAW_CHUNK if depth is None else depth,
            8 * num_seeds * spec.num_links,
        )
        self._a_max = (
            stack.max_arrivals_per_link
            if stack is not None
            else max(1, spec.arrivals.max_per_link)
        )
        self._shape = (self._depth, num_seeds, spec.num_links)
        self._plane = np.empty(self._shape[1:], dtype=np.int64)

    @property
    def dtype(self) -> np.dtype:
        """The chunk dtype: the narrowest that holds ``A_max``."""
        return np.min_scalar_type(self._a_max)

    def next(self, *streams) -> np.ndarray:
        np.copyto(self._plane, super().next(*streams))
        return self._plane

    def _buffer(self):
        return np.empty(self._shape, dtype=self.dtype)


class _BatchArrivalDraws(_ArrivalDraws):
    """Chunked arrival blocks for the vectorized (non-sync) RNG mode.

    Batch-samplable processes are stateless (i.i.d. across both
    replications and intervals), so ``depth`` intervals' worth of
    arrivals can come from one oversized draw — same distribution, far
    fewer Generator round-trips — which ``sample_batch`` checks against
    the process's ``max_per_link``.
    """

    def __init__(
        self,
        stack: Optional[SpecStack],
        spec: NetworkSpec,
        num_seeds: int,
        depth: Optional[int] = None,
    ):
        super().__init__(stack, spec, num_seeds, depth)
        self._stack = stack
        self._spec = spec

    def _fill(self, chunk, rng) -> np.ndarray:
        if self._stack is not None:
            return self._stack.sample_arrival_block(rng, self._depth, chunk)
        depth, num_seeds, _ = self._shape
        flat = self._spec.arrivals.sample_batch(rng, depth * num_seeds)
        chunk[...] = flat.reshape(self._shape)
        return chunk


class _StatefulArrivalDraws(_ArrivalDraws):
    """Chunked arrival blocks when some rows carry evolving state.

    Stateless rows draw exactly as :class:`_BatchArrivalDraws` would —
    grouped ``sample_batch`` calls from the arrivals stream, in row
    order — so adding stateful neighbors to a stack never shifts a
    stateless process's draw schedule.  Stateful rows are stacked by
    class into :class:`~repro.traffic.arrivals.ArrivalStateRows` planes
    that evolve one interval per block slot, consuming the dedicated
    ``"arrival-state"`` substream held internally (fan-out sharing passes
    only the arrivals stream through ``next``).  Each state group evolves
    into its own int64 block, checked against ``A_max`` on every fill
    before it is narrowed into the chunk.
    """

    def __init__(
        self,
        stack: Optional[SpecStack],
        spec: NetworkSpec,
        num_seeds: int,
        depth: Optional[int] = None,
        state_rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(stack, spec, num_seeds, depth)
        specs = stack.specs if stack is not None else (spec,) * num_seeds
        self._num_seeds = num_seeds
        self._n = specs[0].num_links
        _claim(self, state_rng)
        self._procs = [sp.arrivals for sp in specs]
        # Rows group within each row block of the streams (the whole stack
        # under a plain generator), so a block draws what an independent
        # run over its rows alone would draw.  Stateless rows group by
        # process equality (one sample_batch per distinct process), per
        # block of the arrivals stream on first use; stateful rows group
        # by class (one stacked state plane per family and block).
        self._stateless: dict = {}
        self._state_groups = [
            (
                cls.stack_rows(procs),
                _row_index(rows),
                np.empty((self._depth, len(rows), self._n), dtype=np.int64),
                gen,
            )
            for lo, hi, gen in row_blocks(state_rng, num_seeds)
            for cls, procs, rows in _group_rows(
                self._procs, lo, hi, lambda p: type(p) if p.has_state else None
            )
        ]

    def _fill(self, chunk, rng) -> np.ndarray:
        for lo, hi, gen in row_blocks(rng, self._num_seeds):
            groups = self._stateless.get((lo, hi))
            if groups is None:
                groups = self._stateless[lo, hi] = _group_rows(
                    self._procs, lo, hi, lambda p: None if p.has_state else p
                )
            for proc, _, rows in groups:
                flat = proc.sample_batch(gen, self._depth * len(rows))
                chunk[:, _row_index(rows)] = flat.reshape(
                    self._depth, len(rows), self._n
                )
        for state_rows, rows, buf, gen in self._state_groups:
            state_rows.evolve_block(self._depth, gen, buf)
            if buf.min() < 0 or buf.max() > self._a_max:
                raise AssertionError(
                    f"{type(state_rows).__name__} arrivals outside "
                    f"[0, {self._a_max}]"
                )
            chunk[:, rows] = buf
        return chunk


def _group_rows(procs: Sequence, lo: int, hi: int, key: Callable) -> List:
    """``[(key, processes, rows)]``: rows ``lo:hi`` grouped by
    ``key(process)`` in order of first appearance, skipping rows whose
    key is ``None``."""
    groups: List[Tuple] = []
    for i in range(lo, hi):
        k = key(procs[i])
        if k is None:
            continue
        for gk, group, rows in groups:
            if gk == k:
                group.append(procs[i])
                rows.append(i)
                break
        else:
            groups.append((k, [procs[i]], [i]))
    return groups


class _FanoutDraws:
    """Serve each drawn block to ``consumers`` lockstep clients.

    Simulators whose seed tuples and spec stacks coincide would draw
    *identical* channel retry counts and arrival blocks (their streams are
    keyed only by seeds, stream tag and stream name).  When such
    simulators advance in lockstep — every client calls ``next`` exactly
    once per interval, in a fixed rotation — one generation pass can feed
    all of them.  Only the first client's generator is consumed; the
    others' streams stay untouched, which is indistinguishable from each
    having drawn its own (equal) block.
    """

    def __init__(self, inner, consumers: int):
        self._inner = inner
        self._consumers = consumers
        self._remaining = 0
        self._block: Optional[np.ndarray] = None
        self._totals: Optional[np.ndarray] = None

    @property
    def lazy(self) -> bool:
        """Whether the shared source serves raw (untransformed) draws."""
        return bool(getattr(self._inner, "lazy", False))

    def plan(self, num_intervals: int) -> None:
        self._inner.plan(num_intervals)

    def next(self, *streams) -> np.ndarray:
        if self._remaining == 0:
            # The first client's streams (channel-state included) feed
            # the cycle; the classes guarantee every client's streams
            # would be identical.
            self._block = self._inner.next(*streams)
            self._remaining = self._consumers
            self._totals = None
        self._remaining -= 1
        return self._block

    def totals(self, needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
        """Drain totals for the current serve cycle, computed once.

        The plane depends only on the channel block and the backlog, and
        lockstep clients of a channel fan-out share both (arrivals come
        from a sibling fan-out), so every client of one cycle gets the
        first client's computation.
        """
        if self._totals is None:
            self._totals = self._inner.totals(needed_cum, backlog)
        return self._totals


def share_batch_draws(sims: Sequence["BatchIntervalSimulator"]) -> None:
    """Wire common-random-number sharing across lockstep simulators.

    Partitions ``sims`` into classes that provably draw identical channel
    and arrival randomness — same seed tuple, same stream tag, equal row
    specs, vectorized (non-sync) mode — and gives each class one shared
    draw source.  Callers **must** then advance all the simulators in
    lockstep (each steps once per interval, in any fixed order); the fused
    sweep runner does exactly that for the policy-family mega-batches of
    one grid, which by construction stack the same cells for each family.

    This mirrors the per-cell engines, where cells of different policies
    reuse the same seeds and therefore the same draws; sharing changes no
    values, it only skips regenerating them.
    """
    classes: List[Tuple[Tuple, List["BatchIntervalSimulator"]]] = []
    for sim in sims:
        if sim._arrival_draws is None:
            continue
        if getattr(sim.kernel, "_channel_draws", None) is None:
            continue
        specs = sim.stack.specs if sim.stack is not None else (sim.spec,)
        draws = sim.kernel._channel_draws
        # Chunk depth is part of the class key: blocks are shared by
        # reference, so lockstep clients must consume identically-shaped
        # chunks.
        # The rng mode is part of the key too: batch and free simulators
        # draw from disjoint stream namespaces, so their blocks differ.
        # Lazy (raw-draw) kernels transform gathered rows themselves;
        # eager kernels expect the block pre-transformed.  Both generate
        # identical raw streams, but a shared *block* must mean the same
        # thing to every client, so lazy-ness splits the class.
        key = (
            sim.rng.seeds,
            sim.rng.stream_tag,
            sim.rng_mode,
            specs,
            draws._depth,
            bool(getattr(draws, "lazy", False)),
        )
        for existing_key, members in classes:
            if existing_key == key:  # spec equality, not identity
                members.append(sim)
                break
        else:
            classes.append((key, [sim]))
    for _, group in classes:
        if len(group) < 2:
            continue
        shared_channel = _FanoutDraws(
            group[0].kernel._channel_draws, len(group)
        )
        shared_arrivals = _FanoutDraws(group[0]._arrival_draws, len(group))
        for sim in group:
            sim.kernel._channel_draws = shared_channel
            sim._arrival_draws = shared_arrivals


class BatchIntervalSimulator:
    """Stateful multi-replication simulator; mirrors ``IntervalSimulator``.

    Parameters
    ----------
    spec:
        The network under test; :func:`batch_refusal` must accept it
        under the chosen rng discipline, else ``TypeError`` carries its
        message.  May also be a
        :class:`~repro.sim.spec_stack.SpecStack` (or any sequence of
        specs, one per seed) to give every replication row its own
        channel parameters, requirements and arrival parameters.
    policy:
        A policy with a batch kernel (DP/DB-DP, ELDF/LDF, round-robin,
        static priority, FCSMA, DCF).
    seeds:
        One seed per replication; each matches the scalar engine's
        single-``seed`` argument.  With a spec stack, seeds may repeat
        (one row per (cell, seed) pair of a fused sweep).
    rng:
        Draw discipline (:data:`~repro.sim.rng.RNG_MODES`; ``None`` is
        ``"batch"``); see the module docstring.
    validate:
        Assert deliveries never exceed arrivals each step (cheap, on by
        default; benchmarks turn it off).
    record_traces:
        Keep full per-interval traces (:attr:`result`).  ``False`` keeps
        only the streaming :attr:`stats` aggregates — the grid-fused
        engine's mode, where a full-figure mega-batch would otherwise
        retain hundreds of MB of traces.
    row_policies:
        Optional per-row policy instances (same family as ``policy``);
        lets fused rows differ in policy parameters the kernel can stack
        (e.g. per-row Glauber constants).
    stream_tag:
        Namespace tag for the batch RNG streams, or one tag per row to
        give each block of equally-tagged rows its own streams; see
        :class:`~repro.sim.rng.BatchRngBundle`.
    """

    def __init__(
        self,
        spec: Union[NetworkSpec, SpecStack, Sequence[NetworkSpec]],
        policy: IntervalMac,
        seeds: Sequence[int],
        *,
        validate: bool = True,
        record_priorities: bool = False,
        record_traces: bool = True,
        row_policies: Optional[Sequence[IntervalMac]] = None,
        stream_tag: Union[None, str, Sequence[Optional[str]]] = None,
        rng: Optional[str] = None,
    ):
        if isinstance(spec, SpecStack):
            stack: Optional[SpecStack] = spec
        elif isinstance(spec, NetworkSpec):
            stack = None
        else:
            stack = SpecStack(spec)
        self.stack = stack
        self.spec = stack.specs[0] if stack is not None else spec
        self.policy = policy
        self.rng_mode = normalize_rng_mode(rng)
        self.validate = bool(validate)
        self.record_traces = bool(record_traces)
        self.rng = BatchRngBundle(seeds, stream_tag=stream_tag)
        if stack is None and self.rng.num_blocks > 1:
            # Row blocks draw their arrivals through the per-row stack.
            stack = self.stack = SpecStack.broadcast(spec, self.rng.num_seeds)
        if stack is not None and stack.num_rows != self.rng.num_seeds:
            raise ValueError(
                f"spec stack has {stack.num_rows} rows but "
                f"{self.rng.num_seeds} seeds were given"
            )
        refusal = batch_refusal(
            stack if stack is not None else self.spec, policy, self.rng_mode
        )
        if refusal is not None:
            raise TypeError(refusal)
        self._sync = self.rng_mode == "sync"
        self.kernel = make_batch_kernel(policy)
        self.kernel.bind(
            stack if stack is not None else self.spec,
            self.rng.num_seeds,
            row_policies=row_policies,
            # Trace recording reads per-link attempts and priorities;
            # stats-only runs let the kernel skip materializing them.
            lite=not self.record_traces,
            rng=self.rng_mode,
        )
        self._q_rows = (
            stack.requirement_matrix
            if stack is not None
            else self.spec.requirement_vector[None, :]
        )
        self._debts = np.zeros((self.rng.num_seeds, self.spec.num_links))
        self._pos_debts = np.empty_like(self._debts)
        self._debt_step = np.empty_like(self._debts)
        self._interval = 0
        if self._sync:
            # Per-row process clones, each reset to its initial state:
            # rows are then bit-identical to the scalar engine and never
            # advance a shared modulating chain through each other.
            src = (
                stack.specs
                if stack is not None
                else (self.spec,) * self.rng.num_seeds
            )
            sync_procs = []
            for sp in src:
                proc = sp.arrivals
                if proc.has_state:
                    proc = copy.deepcopy(proc)
                    proc.reset_state()
                sync_procs.append(proc)
            self._sync_arrivals = tuple(sync_procs)
            self._sync_arrival_state = tuple(
                bundle.stream("arrival-state") if proc.has_state else None
                for proc, bundle in zip(sync_procs, self.rng.bundles)
            )
            self._arrival_draws = None
        else:
            depth = self.kernel._depth if self.rng_mode == "free" else None
            if stack is not None:
                arrivals_have_state = stack.has_state_arrivals
                arrival_state_rng = stack.arrival_state_uses_rng
            else:
                arrivals_have_state = self.spec.arrivals.has_state
                arrival_state_rng = (
                    arrivals_have_state and self.spec.arrivals.state_uses_rng
                )
            if arrivals_have_state:
                self._arrival_draws = _StatefulArrivalDraws(
                    stack,
                    self.spec,
                    self.rng.num_seeds,
                    depth=depth,
                    state_rng=(
                        self.rng.free_stream("arrival-state")
                        if arrival_state_rng
                        else None
                    ),
                )
            else:
                self._arrival_draws = _BatchArrivalDraws(
                    stack, self.spec, self.rng.num_seeds, depth=depth
                )
        self._arrival_stream = (
            None
            if self._sync
            else (
                self.rng.free_stream("arrivals")
                if self.rng_mode == "free"
                else self.rng.arrivals
            )
        )
        self.stats = BatchSweepStats(self._q_rows, self.rng.seeds)
        self.result: Optional[BatchSimulationResult] = None
        if self.record_traces:
            self.result = BatchSimulationResult(
                policy_name=policy.name,
                requirements=(
                    stack.requirement_matrix
                    if stack is not None
                    else self.spec.requirement_vector
                ),
                seeds=self.rng.seeds,
                record_priorities=record_priorities,
            )
        elif record_priorities:
            raise ValueError("record_priorities requires record_traces=True")

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The interval resolver, for run reports: always ``"numpy"``,
        the kernels' preallocated-workspace NumPy path."""
        return "numpy"

    @property
    def dp_state(self) -> str:
        """The priority-state path the kernel chose at bind, for run
        reports (:attr:`~repro.sim.batch_kernels.BatchPolicyKernel.dp_state`)."""
        return self.kernel.dp_state

    @property
    def seeds(self) -> Tuple[int, ...]:
        return self.rng.seeds

    @property
    def num_seeds(self) -> int:
        return self.rng.num_seeds

    @property
    def interval(self) -> int:
        return self._interval

    @property
    def debts(self) -> np.ndarray:
        """Current ``(S, N)`` debt stack (copy)."""
        return self._debts.copy()

    @property
    def positive_debts(self) -> np.ndarray:
        return np.maximum(self._debts, 0.0)

    # ------------------------------------------------------------------
    def _sample_arrivals(self) -> np.ndarray:
        if self._sync:
            # Scalar draw order per seed: identical to IntervalSimulator
            # (including its per-interval begin_interval hook for stateful
            # processes, driven by each row's own "arrival-state" stream).
            rows = []
            for proc, state_rng, bundle in zip(
                self._sync_arrivals,
                self._sync_arrival_state,
                self.rng.bundles,
            ):
                if state_rng is not None:
                    proc.begin_interval(state_rng)
                rows.append(proc.sample(bundle.arrivals))
            return np.stack(rows)
        return self._arrival_draws.next(self._arrival_stream)

    def step(self) -> None:
        """Simulate one interval for every replication."""
        counters = perf.counters
        if counters.enabled:
            t0 = perf.clock()
        arrivals = self._sample_arrivals()
        np.maximum(self._debts, 0.0, out=self._pos_debts)
        if counters.enabled:
            counters.add("sim.arrivals", perf.clock() - t0)
            t0 = perf.clock()
        outcome = self.kernel.run_interval(
            self._interval,
            arrivals,
            self._pos_debts,
            self.rng,
        )
        if counters.enabled:
            counters.add("sim.kernel", perf.clock() - t0)
            t0 = perf.clock()
        if self.validate and np.any(outcome.deliveries > arrivals):
            raise AssertionError(
                f"{self.policy.name} delivered more than arrived in at "
                "least one replication"
            )
        # Eq. (1), elementwise per replication: the float operations per
        # seed are the same as DebtLedger.record_interval, so sync-mode
        # debts stay bit-identical to scalar ledgers.
        np.subtract(self._q_rows, outcome.deliveries, out=self._debt_step)
        np.add(self._debts, self._debt_step, out=self._debts)
        self._interval += 1
        self.stats.update(outcome)
        if self.result is not None:
            self.result.record(arrivals, outcome)
        if counters.enabled:
            counters.add("sim.update", perf.clock() - t0)

    def plan(self, num_intervals: int) -> None:
        """Say that ``num_intervals`` further :meth:`step` calls follow.

        The draw caches then fill their next chunks on the draw thread
        while the kernel reads the current ones, but never past those
        intervals.  :meth:`run` plans its own horizon; a loop that calls
        :meth:`step` itself plans first (or fills every chunk when it is
        first read).
        """
        if self._arrival_draws is not None:
            self._arrival_draws.plan(num_intervals)
        self.kernel.plan(num_intervals)

    def run(
        self,
        num_intervals: int,
        progress: Optional[Callable[[int], None]] = None,
    ) -> Union[BatchSimulationResult, BatchSweepStats]:
        """Simulate ``num_intervals`` further intervals; return the result
        (or, with ``record_traces=False``, the streaming stats)."""
        if num_intervals < 0:
            raise ValueError(f"num_intervals must be >= 0, got {num_intervals}")
        self.plan(num_intervals)
        if progress is None:
            for _ in range(num_intervals):
                self.step()
        else:
            for i in range(num_intervals):
                self.step()
                progress(i)
        return self.result if self.result is not None else self.stats


def run_simulation_batch(
    spec: NetworkSpec,
    policy: IntervalMac,
    num_intervals: int,
    seeds: Sequence[int],
    *,
    validate: bool = True,
    record_priorities: bool = False,
    rng: Optional[str] = None,
    topology=None,
) -> BatchSimulationResult:
    """One-shot convenience wrapper around :class:`BatchIntervalSimulator`.

    ``topology`` — a :class:`~repro.topology.graph.CellTopology` — runs
    the multi-cell lowering instead and returns its aggregated
    :class:`~repro.topology.engine.TopologyResult` (per-interval traces
    are a single-domain feature; the topology engine reports per-link
    sums).  The direct call is strict: a policy family without a batch
    kernel raises ``TypeError`` (the experiment runner degrades
    gracefully instead).
    """
    if topology is not None:
        if record_priorities:
            raise ValueError(
                "record_priorities is a single-domain trace feature; it "
                "is not supported with topology="
            )
        from ..topology import run_topology_batch

        return run_topology_batch(
            spec,
            policy,
            seeds,
            topology,
            num_intervals,
            rng=rng,
            validate=validate,
        )
    sim = BatchIntervalSimulator(
        spec,
        policy,
        seeds,
        validate=validate,
        record_priorities=record_priorities,
        rng=rng,
    )
    return sim.run(num_intervals)

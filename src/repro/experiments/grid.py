"""Grid-fused sweeps: one engine pass per (policy family, N) group.

:func:`~repro.experiments.runner.run_sweep` with ``engine="batch"`` already
vectorizes across seeds, but still pays one engine invocation — Python
per-interval loop included — per (parameter value, policy) cell.  A figure
sweep is V values x P policies of those.  This module collapses the grid
the rest of the way: every cell of a sweep that shares a policy family and
a link count joins one **mega-batch** of ``R = V x S`` rows (S = seeds per
cell), built on the per-row spec support of
:class:`~repro.sim.spec_stack.SpecStack` /
:class:`~repro.sim.batch_sim.BatchIntervalSimulator`.  The whole sweep then
costs one Python interval loop per policy family instead of one per cell —
on the paper's Fig. 3 grid this is a further ~4x end-to-end over per-cell
batching (see ``benchmarks/bench_fused_sweep.py``).

Semantics:

* Per-row results are scattered back into ordinary
  :class:`~repro.experiments.runner.SweepPoint`s using float operations
  chosen to match the per-cell batch runner bit-for-bit given the same
  draws.  With ``rng="sync"`` every row is bit-identical to the scalar
  engine (and hence to per-cell batch sync runs); in the default mode each
  row is an independent sample of the same distribution, drawn from
  ``"fused"``-tagged batch streams.
* Cells whose spec/policy cannot join a mega-batch — no batch kernel
  (frame-CSMA), stateful channels or arrivals, or per-row parameters
  the kernels cannot stack — **fall back automatically** to
  the per-cell runner (``engine="batch"``, which itself degrades to
  scalar), so ``run_sweep_fused`` accepts anything ``run_sweep`` does.
* Pass ``cache=True`` (or a directory / :class:`SweepCache`) to memoize
  finished cells on disk; see :mod:`repro.experiments.cache`.
* ``rng="free"`` switches batchable policy families to independently
  derived free-draw substreams (statistically equivalent, not
  bit-identical, to the default lockstep-batch discipline); families
  without a batch kernel run on the scalar engine, announced with one
  ``UserWarning`` per sweep.
* ``shards=K`` splits the grid into K row-contiguous shards dispatched
  through the fault-tolerant process orchestrator of
  :mod:`repro.experiments.parallel`, so a mega-batch sweep uses every
  core and inherits retry/respawn/checkpoint-resume per shard.  A
  ``topology=`` sweep shards the same way; each of its topology cells
  runs on the multi-cell engine inside its shard's process.
* Every cell is checkpointed the moment it settles: mega-batch cells
  right after their group scatters, fallback cells one by one.
"""

from __future__ import annotations

import functools
import pickle
import warnings
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core import registry
from ..core.requirements import NetworkSpec
from ..sim import perf
from ..sim.rng import normalize_rng_mode
from .cache import SweepCache, resolve_cache, warn_uncacheable
from .configs import PolicyFactory
from .faults import (
    CellFailure,
    FaultPolicy,
    _retry_unit,
    fire_fault_hooks,
    nan_point,
)
from .runner import (
    SweepPoint,
    SweepResult,
    _advised,
    _assemble,
    _Cell,
    _cell_runner,
    _lookup,
    _plan_cell,
    _plan_sweep,
    _resolve_topology,
    _settle,
)

if TYPE_CHECKING:
    from ..sim.batch_sim import BatchIntervalSimulator, BatchSweepStats

__all__ = ["run_sweep_fused", "FUSED_STREAM_TAG"]

#: Batch-RNG namespace tag for fused mega-batches (see
#: :class:`~repro.sim.rng.BatchRngBundle`).
FUSED_STREAM_TAG = "fused"


def _group_signature(cell: _Cell) -> Tuple:
    """Cells sharing this signature are candidates for one mega-batch.

    Keyed on the registered policy family *and* the concrete class:
    the registry's kernel-family token decides which kernel serves the
    group, while the concrete class keeps distinct sweep curves (e.g.
    ``DP`` vs ``DB-DP``) in separate stacks so their row order — and
    hence the default-mode draw consumption — matches the per-cell
    engines exactly.
    """
    descriptor = registry.descriptor_for(cell.policy)
    family = None if descriptor is None else descriptor.kernel_family()
    return (
        family,
        type(cell.policy),
        cell.spec.num_links,
        cell.spec.timing,
        # Spec stacks require one channel model class per stack (the
        # kernel binds one draw pipeline); same-class rows fuse freely,
        # including per-row channel parameter sweeps.
        type(cell.spec.channel),
    )


def _partition(
    cells: List[_Cell],
) -> Tuple[Dict[Tuple, List[_Cell]], List[_Cell]]:
    """Split unresolved cells into mega-batch groups and fallbacks.

    A cell joins a mega-batch when the batch engine accepts it
    (:func:`~repro.sim.batch_sim.supports_batch_engine`); the
    scalar-only family (frame-CSMA), specs the gate refuses and
    topology cells (each already one packed batch of every (seed, cell)
    row) land in the fallback path; cells whose kernel refuses the
    interval timing
    (:meth:`~repro.sim.batch_kernels.BatchPolicyKernel.timing_refusal`)
    are announced with one ``UserWarning``.  The group key includes the
    cell's *effective* draw discipline so free-draw groups never share a
    stack (or lockstep draws) with degraded batch-discipline groups.
    When every cell hit the cache, nothing is partitioned and no engine
    is imported.
    """
    cold = [cell for cell in cells if cell.point is None]
    if not cold:
        return {}, []
    from ..sim.batch_sim import supports_batch_engine

    fused_groups: Dict[Tuple, List[_Cell]] = {}
    fallback: List[_Cell] = []
    refused_timing: List[str] = []
    for cell in cold:
        if cell.topology is None and supports_batch_engine(
            cell.spec, cell.policy, rng=cell.rng
        ):
            key = (_group_signature(cell), cell.rng)
            fused_groups.setdefault(key, []).append(cell)
            continue
        fallback.append(cell)
        if (
            cell.topology is None
            and registry.has_kernel(cell.policy)
            and cell.label not in refused_timing
        ):
            kernel = registry.descriptor_for(cell.policy).kernel_factory()
            if kernel.timing_refusal(cell.spec.timing) is not None:
                refused_timing.append(cell.label)
    if refused_timing:
        warnings.warn(
            "the batch kernel cannot solve this interval timing; these "
            "cells fall back to the scalar engine: "
            f"{', '.join(refused_timing)}.  Pass rng='sync' to keep them "
            "on the batch engine (bit-identical to scalar)",
            UserWarning,
            stacklevel=4,
        )
    return fused_groups, fallback


def _scatter_points(
    cells: List[_Cell],
    stats: BatchSweepStats,
    num_seeds: int,
    groups: Optional[Sequence[int]],
) -> None:
    """Split mega-batch aggregates back into per-cell sweep points.

    Float operations mirror ``runner._run_single_batch`` exactly: int64
    delivery/collision sums make the means exact, and the per-cell row
    slices feed ``mean()``/``std()`` the same values in the same order, so
    a fused cell equals its per-cell counterpart bit-for-bit whenever the
    underlying draws match (``rng="sync"``).
    """
    totals_all = stats.total_deficiency()  # (R,)
    collisions_all = stats.total_collisions().astype(float)  # (R,)
    overheads_all = stats.mean_overhead_us()  # (R,)
    link_def_all = stats.per_link_deficiency()  # (R, N)
    group_ids = None if groups is None else np.asarray(groups, dtype=int)
    for cell in cells:
        rows = cell.rows
        totals = totals_all[rows]
        group_mean = None
        if group_ids is not None:
            if group_ids.shape != (stats.num_links,):
                raise ValueError("groups must have one id per link")
            num_groups = int(group_ids.max()) + 1
            per_seed = [
                np.array(
                    [
                        link_def_all[r][group_ids == gid].sum()
                        for gid in range(num_groups)
                    ]
                )
                for r in range(rows.start, rows.stop)
            ]
            group_mean = tuple(float(x) for x in np.mean(per_seed, axis=0))
        cell.point = SweepPoint(
            parameter=float("nan"),  # filled during assembly
            policy=cell.policy.name,
            total_deficiency=float(totals.mean()),
            deficiency_std=float(totals.std()),
            group_deficiency=group_mean,
            collisions=float(collisions_all[rows].mean()),
            mean_overhead_us=float(np.mean(overheads_all[rows])),
        )


def _build_fused_sim(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    validate: bool,
    stream_tag: str = FUSED_STREAM_TAG,
) -> Optional[BatchIntervalSimulator]:
    """Stack one group's cells into a mega-batch simulator.

    The group shares one draw discipline and one kernel family, hence
    one planned ``rng``.

    Stack construction and kernel binding may legitimately reject a group
    (heterogeneous timings, unstackable per-row policy parameters); those
    raise ``TypeError``/``ValueError`` *before* any simulation happens and
    turn into a per-cell fallback (``None``).  Errors raised
    mid-simulation are real failures and propagate from the run loop.
    """
    from ..sim.batch_sim import BatchIntervalSimulator

    num_seeds = len(seeds)
    row_specs: List[NetworkSpec] = []
    row_seeds: List[int] = []
    row_policies: List[object] = []
    for cell in cells:
        cell.rows = slice(len(row_seeds), len(row_seeds) + num_seeds)
        for seed in seeds:
            row_specs.append(cell.spec)
            row_seeds.append(seed)
            row_policies.append(cell.policy)
    try:
        return BatchIntervalSimulator(
            row_specs,
            cells[0].policy,
            row_seeds,
            rng=cells[0].rng,
            validate=validate,
            record_traces=False,
            row_policies=row_policies,
            stream_tag=stream_tag,
        )
    except (TypeError, ValueError):
        return None


def share_batch_draws(sims: Sequence[BatchIntervalSimulator]) -> None:
    """:func:`repro.sim.batch_sim.share_batch_draws`, imported only by a
    sweep that built simulators."""
    from ..sim import batch_sim

    batch_sim.share_batch_draws(sims)


def _fail_cells(cells: Sequence[_Cell], groups: Optional[Sequence[int]]) -> None:
    """NaN-fill the cells of a permanently failed best-effort unit."""
    for cell in cells:
        cell.point = nan_point(cell.label, groups)
        cell.failed = True


def _run_fused_group_with_faults(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    validate: bool,
    num_intervals: int,
    groups: Optional[Sequence[int]],
    faults: FaultPolicy,
    failures: List[CellFailure],
    fallback: List[_Cell],
) -> None:
    """Run one mega-batch group under a fault policy.

    A fused group is all-or-nothing: its cells share one simulator, so a
    mid-run failure retries the *whole group* (rebuilt from scratch) and
    a permanent failure fails every cell of the group — each one
    recorded individually in ``failures`` so the report still names
    every lost (value, policy) cell.  Build-time rejections
    (heterogeneous timings, unstackable parameters) are not faults and
    fall back to the per-cell runner as always.
    """

    def attempt(k: int) -> bool:
        for cell in cells:
            fire_fault_hooks(cell.value, cell.label, k)
        sim = _build_fused_sim(cells, seeds, validate)
        if sim is None:
            return False
        sim.run(num_intervals)
        _scatter_points(cells, sim.stats, len(seeds), groups)
        return True

    first = cells[0]
    built = _retry_unit(
        attempt, (first.value, first.label),
        [(c.value, c.label) for c in cells], seeds, faults, failures,
    )
    if built is None:
        _fail_cells(cells, groups)
    elif not built:
        fallback.extend(cells)


def _fallback_runner(num_intervals, seeds, groups, validate):
    """Cells no mega-batch could take run one by one: topology cells on
    the topology engine under their planned discipline, the rest on the
    per-cell batch runner with its default draw discipline."""
    return _cell_runner(
        num_intervals, seeds, groups, "batch", None, validate=validate
    )


def _simulate_cells(
    cells: List[_Cell],
    seeds: Tuple[int, ...],
    validate: bool,
    num_intervals: int,
    groups: Optional[Sequence[int]],
    stream_tag: str,
    fallback: List[_Cell],
) -> None:
    """Partition, build, lockstep-run, and scatter one batch of cells.

    The fail-fast (``faults=None``) simulation body, shared by the
    unsharded path and the per-shard workers; cells that cannot join a
    mega-batch are appended to ``fallback`` for the per-cell runner.
    """
    fused_groups, singles = _partition(cells)
    fallback.extend(singles)
    if not fused_groups:
        return  # every cell hit the cache or falls back: nothing to build
    built: List[Tuple[List[_Cell], BatchIntervalSimulator]] = []
    with perf.stage("fused.build"):
        for group_cells in fused_groups.values():
            sim = _build_fused_sim(group_cells, seeds, validate, stream_tag)
            if sim is None:
                fallback.extend(group_cells)
            else:
                built.append((group_cells, sim))

        # Policy-family groups of one grid stack the same cells with the
        # same seeds, so their channel/arrival draws coincide; running
        # them in lockstep lets one generation pass feed every family
        # (exactly like the per-cell engines, where equal seeds reuse
        # equal draws across policies).
        share_batch_draws([sim for _, sim in built])
    with perf.stage("fused.run"):
        for _, sim in built:
            sim.plan(num_intervals)
        for _ in range(num_intervals):
            for _, sim in built:
                sim.step()
    with perf.stage("fused.scatter"):
        for group_cells, sim in built:
            _scatter_points(group_cells, sim.stats, len(seeds), groups)


@dataclass(frozen=True)
class _ShardSpec:
    """One row-contiguous slice of the sweep grid — everything picklable.

    ``members`` pins the (value, policy label) cells of the shard; the
    worker rebuilds specs and policies from the sweep's builder, exactly
    like :mod:`repro.experiments.parallel` cells.  ``index``/``count``
    derive the shard's batch-RNG stream tag, making every draw a pure
    function of (seeds, shard count, shard index) — reruns and resumes
    at the same shard count are bit-identical.
    """

    index: int
    count: int
    label: str
    members: Tuple[Tuple[float, str], ...]

    @property
    def value(self) -> float:
        """Orchestrator-facing cell value (used in failure reports)."""
        return float(self.index)


def _shard_tag(index: int, count: int) -> str:
    return f"{FUSED_STREAM_TAG}/shard{index + 1}of{count}"


def _run_shard(
    shard: _ShardSpec,
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Tuple[int, ...]],
    rng_mode: str,
    validate: bool,
    topology,
    attempt: int,
) -> Tuple[_ShardSpec, List[Tuple[float, str, SweepPoint]]]:
    """Worker-side execution of one shard (module-level, picklable)."""
    for value, label in shard.members:
        fire_fault_hooks(value, label, attempt)
    planned: Dict[float, Tuple[NetworkSpec, object]] = {}
    cells: List[_Cell] = []
    for value, label in shard.members:
        if value not in planned:
            spec = spec_builder(value)
            planned[value] = (spec, _resolve_topology(topology, spec))
        spec, topo = planned[value]
        cells.append(
            _plan_cell(value, label, spec, policies[label], rng_mode, topo)
        )
    fallback: List[_Cell] = []
    _simulate_cells(
        cells, seeds, validate, num_intervals, groups,
        _shard_tag(shard.index, shard.count), fallback,
    )
    compute = _fallback_runner(num_intervals, seeds, groups, validate)
    with _advised():  # the sweep advised once, in the parent process
        for cell in fallback:
            cell.point = compute(cell)
    return shard, [(c.value, c.label, c.point) for c in cells]


def _store_settled(
    cells: Sequence[_Cell], store: Optional[SweepCache]
) -> None:
    """Checkpoint every cell that has just settled (a point, not served
    from the cache, not a best-effort failure): a sweep stopped right
    now resumes from all of them."""
    if store is None:
        return
    for cell in cells:
        if (
            cell.point is not None
            and cell.key is not None
            and not cell.cached
            and not cell.failed
        ):
            store.put(cell.key, cell.point)
            cell.cached = True


def _checkpoint(
    points: List[Tuple[float, str, SweepPoint]],
    cells_by_id: Dict[Tuple[float, str], _Cell],
    store: Optional[SweepCache],
) -> None:
    """Resolve a finished shard's cells and store them at once."""
    cells = [cells_by_id[(value, label)] for value, label, _ in points]
    for cell, (_, _, point) in zip(cells, points):
        cell.point = point
    _store_settled(cells, store)


def _run_sweep_fused_sharded(
    cells: List[_Cell],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    rng_mode: str,
    validate: bool,
    faults: Optional[FaultPolicy],
    store: Optional[SweepCache],
    shards: int,
    failures: List[CellFailure],
    topology,
) -> None:
    """Split the grid into row-contiguous shards and dispatch them.

    Shard membership is a pure function of the sweep definition and the
    shard count — computed over the *full* cell list, before cache
    state, so a resumed sweep splits identically to the original.  A
    shard only skips when **every** member is warm: warm members of a
    cold shard are recomputed (bit-identically — same stack, same
    stream tag) so resume equals an uninterrupted run at the same shard
    count.

    Without a fault policy the shards still run strict with zero
    retries, so a worker exception surfaces as a
    :class:`~repro.experiments.faults.SweepCellError` naming the shard.
    An unpicklable builder, policy or topology falls back to sequential
    in-process shard execution through the same retry loop — identical
    results, since shard draw streams depend only on the shard count,
    not on where they run.
    """
    count = max(1, min(int(shards), len(cells)))
    base, extra = divmod(len(cells), count)
    by_id: Dict[Tuple[float, str], _Cell] = {
        (c.value, c.label): c for c in cells
    }
    shard_specs: List[_ShardSpec] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        members = cells[start:start + size]
        start += size
        shard_specs.append(
            _ShardSpec(
                index=index,
                count=count,
                label=f"shard {index + 1}/{count} ({len(members)} cells)",
                members=tuple((c.value, c.label) for c in members),
            )
        )
    cold = [
        sh
        for sh in shard_specs
        if any(by_id[m].point is None for m in sh.members)
    ]
    if not cold:
        return
    for sh in cold:
        for m in sh.members:
            by_id[m].point = None
            by_id[m].cached = False

    groups_t = tuple(groups) if groups is not None else None
    submit_args = (
        spec_builder, policies, num_intervals, seeds, groups_t,
        rng_mode, validate, topology,
    )
    faults = faults or FaultPolicy(retries=0, backoff_base=0.0)
    try:
        pickle.dumps((spec_builder, policies, topology))
        picklable = True
    except Exception:
        picklable = False

    if picklable:
        from .parallel import _CellState, _ShardOrchestrator

        _ShardOrchestrator(
            [_CellState(cell=sh) for sh in cold],
            cells_by_id=by_id,
            faults=faults,
            store=store,
            max_workers=None,
            submit_args=submit_args,
            seeds=seeds,
            groups=groups_t,
            outcomes={},
            failures=failures,
        ).run()
        return

    warnings.warn(
        "spec_builder/policies/topology are not picklable; running shards "
        "sequentially in-process (results are identical — shard draw "
        "streams depend only on the shard count, not on where they run)",
        UserWarning,
        stacklevel=3,
    )
    for sh in cold:
        run = functools.partial(_run_shard, sh, *submit_args)
        outcome = _retry_unit(
            run, (sh.value, sh.label), sh.members, seeds, faults, failures
        )
        if outcome is None:
            _fail_cells([by_id[m] for m in sh.members], groups)
        else:
            _checkpoint(outcome[1], by_id, store)


def run_sweep_fused(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    *,
    rng: Optional[str] = None,
    shards: Optional[int] = None,
    cache: Union[None, bool, str, SweepCache] = None,
    validate: bool = True,
    faults: Optional[FaultPolicy] = None,
    topology=None,
) -> SweepResult:
    """Drop-in :func:`~repro.experiments.runner.run_sweep`, grid-fused.

    Same signature and :class:`SweepResult` contract as ``run_sweep``,
    plus:

    rng:
        Draw discipline (:data:`~repro.sim.rng.RNG_MODES`).  ``None``
        keeps the default lockstep batch discipline; ``"sync"`` drives
        every row with scalar-identical streams (bit-exact against the
        scalar and per-cell batch engines, but slow); ``"free"`` lets
        the kernels draw only what they consume from independently
        derived substreams — statistically equivalent to (but not
        bit-identical with) the batch discipline, and faster.  Families
        without a batch kernel run on the scalar engine, announced with
        one ``UserWarning`` per sweep.  Free-rng cells are cacheable but
        keyed distinctly.
    shards:
        Split the grid into this many row-contiguous shards and run them
        as separate mega-batches through the fault-tolerant process
        orchestrator of :mod:`repro.experiments.parallel` (pool respawn
        on worker death, per-shard retries under ``faults``, per-cell
        cache checkpoints the moment a shard resolves).  Results are a
        pure function of (seeds, shard count): reruns and cache resumes
        at the same shard count are identical, different shard counts
        are statistically equivalent.  ``None``/``1`` keeps the
        single-process path.
    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        enables the on-disk cell cache; finished cells are stored and hit
        cells skip simulation entirely.
    validate:
        Per-step deliveries-vs-arrivals assertion (on by default;
        benchmarks disable it).
    faults:
        ``None`` (default) keeps fail-fast semantics.  A
        :class:`~repro.experiments.faults.FaultPolicy` retries failures
        with backoff; since a mega-batch shares one simulator, a group
        fails (and retries) as a unit, while fallback cells retry
        individually.  Permanent failures raise
        :class:`~repro.experiments.faults.SweepCellError` (``strict``)
        or yield NaN points plus a
        :class:`~repro.experiments.faults.SweepFailureReport` on the
        result (``best_effort``).  With faults enabled the groups run
        sequentially instead of in draw-sharing lockstep — value-neutral
        (sharing never changes draws), it only forgoes that perf
        optimization.
    topology:
        A :class:`~repro.topology.graph.CellTopology` — or a builder
        called with each value's spec — switches batchable policy
        families onto the multi-cell engine: every (seed, cell) pair of
        the topology becomes one row of that cell's own engine run, in
        one process, so topology cells never join a mega-batch.
        ``shards`` splits the sweep grid as it does without a topology;
        a topology cell draws from per-cell streams, not from its
        shard's, so its point is the same at every shard count.
        Families without a batch kernel degrade to the per-cell runner
        with one ``UserWarning`` per sweep.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    rng_mode = normalize_rng_mode(rng)
    if shards is not None and int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    seeds = tuple(int(s) for s in seeds)
    store = resolve_cache(cache)
    policies = registry.resolve_policies(policies)
    cells = _plan_sweep(
        values, spec_builder, policies, rng_mode, topology, stacklevel=3,
    )

    # Cache lookups first: hit cells never touch an engine.  Cells whose
    # policy (or spec) has no registered fingerprint simply run uncached
    # — announced once per sweep, never a failure.
    if store is not None:
        uncacheable: List[str] = []
        for cell in cells:
            _lookup(
                store, cell, seeds, num_intervals, groups, "fused",
                uncacheable,
            )
        warn_uncacheable(uncacheable, stacklevel=2)

    failures: List[CellFailure] = []
    fallback: List[_Cell] = []
    if shards is not None and int(shards) > 1 and len(cells) > 1:
        _run_sweep_fused_sharded(
            cells, spec_builder, policies, num_intervals, seeds, groups,
            rng_mode, validate, faults, store, int(shards), failures,
            topology,
        )
    elif faults is None:
        _simulate_cells(
            cells, seeds, validate, num_intervals, groups,
            FUSED_STREAM_TAG, fallback,
        )
        _store_settled(cells, store)
    else:
        # Faulty groups must be rebuildable in isolation, so each group
        # runs its own build + interval loop (no cross-family lockstep;
        # draw sharing is value-neutral, so results are unchanged).
        fused_groups, fallback = _partition(cells)
        with perf.stage("fused.run"):
            for group_cells in fused_groups.values():
                _run_fused_group_with_faults(
                    group_cells, seeds, validate, num_intervals,
                    groups, faults, failures, fallback,
                )
                _store_settled(group_cells, store)

    compute = _fallback_runner(num_intervals, seeds, groups, validate)
    with _advised():
        for cell in fallback:
            _settle(cell, compute, faults, seeds, groups, failures)
            _store_settled([cell], store)
    return _assemble(parameter_name, values, cells, failures)

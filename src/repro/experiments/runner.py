"""Sweep runner: evaluate policies across a parameter grid with seeds.

Every figure in the paper is a sweep of one scenario parameter (arrival
rate or delivery ratio) against total timely-throughput deficiency for 2-3
algorithms.  :func:`run_sweep` is the shared engine; figure modules supply
the spec builder and grid.
"""

from __future__ import annotations

import contextlib
import contextvars
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import registry
from ..core.requirements import NetworkSpec
from ..sim.rng import normalize_rng_mode
from .configs import PolicyFactory
from .faults import (
    CELL_TIMEOUT_REFUSAL,
    CellFailure,
    FaultPolicy,
    SweepFailureReport,
    call_with_retries,
    fire_fault_hooks,
    nan_point,
)

__all__ = ["SweepPoint", "SweepResult", "run_sweep", "run_single"]

#: The engines a sweep runs on (:func:`run_sweep`, the figures, the CLI).
_SWEEP_ENGINES = ("scalar", "fused")

#: The engines one cell runs on (:func:`run_single`); ``"batch"`` is the
#: fused engine's per-cell fallback.
_CELL_ENGINES = ("scalar", "batch")


def _check_engine(
    engine: str, engines: Tuple[str, ...] = _SWEEP_ENGINES
) -> None:
    if engine not in engines:
        raise ValueError(f"engine must be one of {engines}, got {engine!r}")


def _check_sweep(
    num_intervals: int,
    seeds: Sequence[int],
    shards: Optional[int],
    num_cells: int,
    faults: Optional[FaultPolicy],
) -> bool:
    """Validate a sweep's common arguments; True if it runs on a pool.

    ``shards`` of 2 or more over two or more cells starts a worker
    pool; a ``cell_timeout`` is refused wherever no pool would enforce
    it.
    """
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    if not seeds:
        raise ValueError("need at least one seed")
    if shards is not None and int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    pooled = shards is not None and int(shards) > 1 and num_cells > 1
    if not pooled and faults is not None and faults.cell_timeout is not None:
        raise ValueError(CELL_TIMEOUT_REFUSAL)
    return pooled


def _refuse_scalar_options(engine: str, rng, topology) -> None:
    if rng is not None and engine == "scalar":
        raise ValueError(
            f"rng={rng!r} requires engine='batch' or 'fused'; the scalar "
            "engine has a single per-seed draw discipline"
        )
    if topology is not None and engine == "scalar":
        raise ValueError(
            "topology= requires engine='batch' or 'fused'; the scalar "
            "engine is single-domain only"
        )


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated measurements for one (parameter value, policy) cell."""

    parameter: float
    policy: str
    total_deficiency: float  # mean across seeds
    deficiency_std: float
    group_deficiency: Optional[Tuple[float, ...]] = None
    collisions: float = 0.0
    mean_overhead_us: float = 0.0


@dataclass
class SweepResult:
    """All cells of one sweep, indexed for reporting.

    ``failures`` is ``None`` for a fully successful sweep; a best-effort
    run that permanently lost cells attaches the structured
    :class:`~repro.experiments.faults.SweepFailureReport` naming them
    (the corresponding points hold NaN measurements).
    """

    parameter_name: str
    values: List[float] = field(default_factory=list)
    points: List[SweepPoint] = field(default_factory=list)
    failures: Optional[SweepFailureReport] = None

    def _lookup(self, by_value: Dict[float, float], policy: str) -> List[float]:
        missing = [v for v in self.values if v not in by_value]
        if missing:
            known = sorted({p.policy for p in self.points})
            raise KeyError(
                f"sweep of {self.parameter_name!r} has no point for policy "
                f"{policy!r} at value(s) {missing} (policies present: "
                f"{known})"
            )
        return [by_value[v] for v in self.values]

    def series(self, policy: str) -> List[float]:
        """Deficiency series (aligned with ``values``) for one policy.

        Raises a ``KeyError`` naming the policy and the missing parameter
        value(s) if any (value, policy) cell is absent.
        """
        by_value = {
            p.parameter: p.total_deficiency
            for p in self.points
            if p.policy == policy
        }
        return self._lookup(by_value, policy)

    def group_series(self, policy: str, group: int) -> List[float]:
        """Per-group deficiency series; ``KeyError`` semantics as
        :meth:`series` (a point without group data counts as missing)."""
        by_value = {}
        for p in self.points:
            if p.policy == policy and p.group_deficiency is not None:
                by_value[p.parameter] = p.group_deficiency[group]
        return self._lookup(by_value, policy)

    @property
    def policies(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.policy not in seen:
                seen.append(p.policy)
        return seen


def _resolve_topology(topology, spec: NetworkSpec):
    """A concrete :class:`~repro.topology.graph.CellTopology` for ``spec``.

    ``topology`` may be a ready topology or a builder called with the
    spec (sweeps change the spec per value; a builder like
    ``lambda spec: grid_cells(spec.num_links, 4)`` adapts to each one).
    """
    if topology is None:
        return None
    from ..topology import CellTopology

    if not isinstance(topology, CellTopology):
        topology = topology(spec)
    if topology.num_links != spec.num_links:
        raise ValueError(
            f"topology covers {topology.num_links} links but the spec has "
            f"{spec.num_links}"
        )
    return topology


@dataclass
class _Cell:
    """One (value, policy) cell of a sweep and the plan it runs under.

    ``rng`` / ``topology`` are what the cell's policy
    family actually honours of the sweep's requests (see
    :func:`_plan_cell`); the rest is the sweep's bookkeeping.
    """

    value: float
    label: str
    spec: NetworkSpec
    factory: PolicyFactory
    policy: object
    rng: str
    topology: object
    key: Optional[str] = None
    point: Optional[SweepPoint] = None
    cached: bool = False
    failed: bool = False  # permanent best-effort failure: never cached
    rows: Optional[slice] = field(default=None, repr=False)  # fused rows


def _plan_cell(
    value: float,
    label: Optional[str],
    spec: NetworkSpec,
    factory: PolicyFactory,
    rng_mode: str,
    topology,
) -> _Cell:
    """Resolve one cell against its family's registry descriptor.

    A family without a batch kernel runs ``rng="free"`` as the default
    discipline and ignores ``topology``.  A topology cell the topology
    engine cannot run (:func:`~repro.topology.engine.topology_refusal`)
    raises ``TypeError`` here, before any cell of its sweep runs: that
    engine has no fallback to degrade to.  ``label=None`` takes the
    policy's registry label.
    """
    policy = factory()
    batchable = registry.has_kernel(policy)
    topology = _resolve_topology(topology, spec) if batchable else None
    if topology is not None:
        from ..topology import topology_refusal

        refusal = topology_refusal(spec, policy, rng_mode, topology)
        if refusal is not None:
            raise TypeError(refusal)
    return _Cell(
        value=value,
        label=registry.policy_label(policy) if label is None else label,
        spec=spec,
        factory=factory,
        policy=policy,
        rng="batch" if rng_mode == "free" and not batchable else rng_mode,
        topology=topology,
    )


_LOCKSTEP_ADVICE = (
    "{names} state cannot evolve under a lockstep batch draw discipline; "
    "these cells fall back to the scalar engine: {labels}.  Pass "
    "rng='free' to keep them vectorized (statistically equivalent)"
)

#: Once-per-sweep degrade advisories, in the order they are issued.
_ADVICE = {
    "topology": (
        "topology= is ignored for policy families without a batch "
        "kernel: {labels}; those cells run single-domain exactly as they "
        "would without a topology"
    ),
    "free": (
        "rng='free' is ignored for policy families without a batch "
        "kernel: {labels}; those cells run exactly as they would under "
        "the default draw discipline"
    ),
    "channel": _LOCKSTEP_ADVICE,
    "arrivals": _LOCKSTEP_ADVICE,
}

#: Set while a sweep runs the cells it already advised about, so the
#: ``run_single`` calls inside it do not repeat the advisories per cell.
_SWEEP_ADVISED = contextvars.ContextVar("sweep_advised", default=False)


@contextlib.contextmanager
def _advised():
    token = _SWEEP_ADVISED.set(True)
    try:
        yield
    finally:
        _SWEEP_ADVISED.reset(token)


def _advise(
    cells: Sequence[_Cell], rng_mode: str, topology, stacklevel: int
) -> None:
    """Warn once per kind of degradation among a sweep's planned cells.

    The kinds: a requested ``topology`` or ``rng="free"`` for a family
    without a batch kernel, and a stateful channel
    or arrival process whose random state cannot evolve under the
    lockstep discipline — only where free draws would keep the cell on
    the batch engine (other fallbacks are the family's, not the
    discipline's).
    """
    found: Dict[str, Tuple[List[str], List[str]]] = {}

    def note(kind: str, label: str, name: str = "") -> None:
        labels, names = found.setdefault(kind, ([], []))
        if label not in labels:
            labels.append(label)
        if name and name not in names:
            names.append(name)

    for cell in cells:
        if topology is not None and cell.topology is None:
            note("topology", cell.label)
        if rng_mode == "free" and cell.rng != "free":
            note("free", cell.label)
        random_state = [
            (kind, model)
            for kind, model in (
                ("channel", cell.spec.channel),
                ("arrivals", cell.spec.arrivals),
            )
            if model.has_state and model.state_uses_rng
        ]
        if random_state and cell.topology is None and cell.rng == "batch":
            from ..sim.batch_sim import supports_batch_engine

            if supports_batch_engine(cell.spec, cell.policy, rng="free"):
                for kind, model in random_state:
                    note(kind, cell.label, type(model).__name__)
    for kind, text in _ADVICE.items():
        if kind in found:
            labels, names = found[kind]
            warnings.warn(
                text.format(labels=", ".join(labels), names="/".join(names)),
                UserWarning,
                stacklevel=stacklevel,
            )


def _plan_sweep(
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Dict[str, PolicyFactory],
    rng_mode: str,
    topology,
    stacklevel: int,
    advise: bool = True,
) -> List[_Cell]:
    """Every (value, policy) cell of a sweep, planned and advised once."""
    cells: List[_Cell] = []
    for value in values:
        spec = spec_builder(value)
        topo = _resolve_topology(topology, spec)
        for label, factory in policies.items():
            cells.append(
                _plan_cell(
                    float(value), label, spec, factory, rng_mode, topo
                )
            )
    if advise:
        _advise(cells, rng_mode, topology, stacklevel + 1)
    return cells


def _run_single_topology(
    spec: NetworkSpec,
    policy,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    topology,
    rng: Optional[str] = None,
    validate: bool = True,
) -> SweepPoint:
    """One (spec, policy) cell on the multi-cell topology engine."""
    from ..topology import run_topology_batch

    result = run_topology_batch(
        spec, policy, seeds, topology, num_intervals,
        rng=rng, validate=validate,
    )
    totals = result.total_deficiency()  # (S,)
    group_mean = None
    if groups is not None:
        per_group = result.group_deficiency(groups)  # (S, G)
        group_mean = tuple(float(x) for x in per_group.mean(axis=0))
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=registry.policy_label(policy),
        total_deficiency=float(totals.mean()),
        deficiency_std=float(totals.std()),
        group_deficiency=group_mean,
        collisions=float(result.collision_sums.astype(float).mean()),
        mean_overhead_us=float(result.mean_overhead_us().mean()),
    )


def _run_single_batch(
    spec: NetworkSpec,
    policy,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]],
    rng: Optional[str] = None,
) -> SweepPoint:
    """One (spec, policy) cell on the batch engine: all seeds in one run."""
    from ..sim.batch_sim import run_simulation_batch

    batch = run_simulation_batch(spec, policy, num_intervals, seeds, rng=rng)
    totals = batch.total_deficiency()  # (S,)
    collisions = batch.collisions.sum(axis=0).astype(float)  # (S,)
    overheads = (
        batch.overhead_time_us.mean(axis=0)
        if num_intervals
        else np.zeros(len(seeds))
    )
    group_mean = None
    if groups is not None:
        from ..analysis.metrics import group_deficiency

        deliveries = batch.deliveries  # (K, S, N)
        per_seed = [
            group_deficiency(
                deliveries[:, s], spec.requirement_vector, groups
            )
            for s in range(batch.num_seeds)
        ]
        group_mean = tuple(float(x) for x in np.mean(per_seed, axis=0))
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=registry.policy_label(policy),
        total_deficiency=float(totals.mean()),
        deficiency_std=float(totals.std()),
        group_deficiency=group_mean,
        collisions=float(collisions.mean()),
        mean_overhead_us=float(np.mean(overheads)),
    )


def run_single(
    spec: NetworkSpec,
    factory: PolicyFactory,
    num_intervals: int,
    seeds: Sequence[int],
    groups: Optional[Sequence[int]] = None,
    engine: str = "scalar",
    rng: Optional[str] = None,
    topology=None,
) -> SweepPoint:
    """Average one policy's deficiency on one spec across seeds.

    ``engine="batch"`` simulates all seeds simultaneously on the
    vectorized engine when the (spec, policy) pair supports it, and falls
    back to the scalar engine per policy otherwise (e.g. frame-CSMA, which
    has no batch kernel) — same statistics either way, only the random
    draw order differs; it is the fused sweep's per-cell fallback.
    ``rng`` selects the batch draw discipline
    (:data:`~repro.sim.rng.RNG_MODES`); ``"free"`` degrades to the
    default discipline for families without a batch kernel, and is
    rejected on the scalar engine.  ``topology`` — a
    :class:`~repro.topology.graph.CellTopology` or a builder called with
    the spec — runs batchable families through the multi-cell engine
    (:func:`~repro.topology.engine.run_topology_batch`); families
    without a batch kernel degrade to the single-domain path.  The
    topology degrade and a lockstep fallback to the scalar engine are
    each announced with one ``UserWarning`` (a sweep calling this per
    cell announces them once for the whole sweep instead).
    """
    _check_engine(engine, _CELL_ENGINES)
    _refuse_scalar_options(engine, rng, topology)
    if engine == "batch":
        rng_mode = normalize_rng_mode(rng)
        cell = _plan_cell(
            float("nan"), None, spec, factory, rng_mode, topology
        )
        if not _SWEEP_ADVISED.get():
            # Passing the cell's own discipline keeps a direct call's
            # rng="free" degrade silent; sweeps announce it.
            _advise([cell], cell.rng, topology, stacklevel=3)
        if cell.topology is not None:
            return _run_single_topology(
                spec, cell.policy, num_intervals, seeds, groups,
                cell.topology, rng=cell.rng,
            )
        from ..sim.batch_sim import supports_batch_engine

        if supports_batch_engine(spec, cell.policy, rng=cell.rng):
            return _run_single_batch(
                spec, cell.policy, num_intervals, seeds, groups, cell.rng
            )
    from ..sim.interval_sim import run_simulation

    totals: List[float] = []
    group_totals: List[np.ndarray] = []
    collisions: List[float] = []
    overheads: List[float] = []
    name = ""
    for seed in seeds:
        policy = factory()
        # Registry-backed label: the descriptor's (unique) registered name
        # when the instance is exactly a registered class, the instance's
        # own ``name`` for subclass variants (e.g. "DB-DP(est)").
        name = registry.policy_label(policy)
        result = run_simulation(spec, policy, num_intervals, seed=seed)
        totals.append(result.total_deficiency())
        summary = result.summary()
        collisions.append(float(summary.total_collisions))
        overheads.append(summary.mean_overhead_us)
        if groups is not None:
            from ..analysis.metrics import group_deficiency

            group_totals.append(
                group_deficiency(
                    result.deliveries, spec.requirement_vector, groups
                )
            )
    group_mean = (
        tuple(float(x) for x in np.mean(group_totals, axis=0))
        if group_totals
        else None
    )
    return SweepPoint(
        parameter=float("nan"),  # filled by run_sweep
        policy=name,
        total_deficiency=float(np.mean(totals)),
        deficiency_std=float(np.std(totals)),
        group_deficiency=group_mean,
        collisions=float(np.mean(collisions)),
        mean_overhead_us=float(np.mean(overheads)),
    )


def _lookup(
    store,
    cells: Sequence[_Cell],
    seeds: Tuple[int, ...],
    num_intervals: int,
    groups: Optional[Sequence[int]],
    engine: str,
) -> None:
    """Key every cell and serve the warm ones from ``store``.

    Hit cells never touch an engine.  Uncacheable cells (unregistered
    policy, or a spec that cannot be fingerprinted) run uncached,
    announced once per sweep.  Only cells that actually run free draws
    get the distinct ``rng`` key; degraded cells produce
    default-discipline samples and share the default key.
    """
    from .cache import warn_uncacheable  # cache.py imports this module

    if store is None:
        return
    uncacheable: List[str] = []
    for cell in cells:
        cell.key = store.cell_key(
            spec=cell.spec,
            policy=cell.policy,
            seeds=seeds,
            num_intervals=num_intervals,
            groups=groups,
            engine=engine,
            rng=cell.rng,
            topology=cell.topology,
        )
        if cell.key is None:
            if cell.label not in uncacheable:
                uncacheable.append(cell.label)
            continue
        cell.point = store.get(cell.key)
        cell.cached = cell.point is not None
    warn_uncacheable(uncacheable, stacklevel=4)


def _store_settled(cells: Sequence[_Cell], store) -> None:
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


def _settle(
    cell: _Cell,
    compute: Callable[[_Cell], SweepPoint],
    faults: Optional[FaultPolicy],
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    failures: List[CellFailure],
) -> None:
    """Compute ``cell.point`` — fail-fast, or under ``faults``' retries.

    A permanent best-effort failure leaves a NaN point and marks the
    cell failed (never cached).
    """
    if faults is None:
        cell.point = compute(cell)
        return

    def attempt(k: int) -> SweepPoint:
        fire_fault_hooks(cell.value, cell.label, k)
        return compute(cell)

    point = call_with_retries(
        attempt,
        value=cell.value,
        label=cell.label,
        seeds=seeds,
        faults=faults,
        failures=failures,
    )
    cell.failed = point is None
    cell.point = nan_point(cell.label, groups) if cell.failed else point


def _settle_cells(
    cells: Sequence[_Cell],
    compute: Callable[[_Cell], SweepPoint],
    faults: Optional[FaultPolicy],
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    failures: List[CellFailure],
    store,
) -> None:
    """The in-process per-cell loop: compute every unresolved cell
    under ``faults`` and checkpoint it before the next one starts, so a
    sweep killed part-way resumes warm from everything computed."""
    with _advised():
        for cell in cells:
            if cell.point is None:
                _settle(cell, compute, faults, seeds, groups, failures)
                _store_settled([cell], store)


def _assemble(
    parameter_name: str,
    values: Sequence[float],
    cells: Sequence[_Cell],
    failures: List[CellFailure],
) -> SweepResult:
    result = SweepResult(parameter_name=parameter_name, values=list(values))
    # dataclasses.replace keeps every other SweepPoint field intact
    # (rebuilding field-by-field would silently drop fields added later).
    result.points = [
        replace(cell.point, parameter=cell.value, policy=cell.label)
        for cell in cells
    ]
    if failures:
        result.failures = SweepFailureReport(failures)
    return result


def _cell_runner(
    num_intervals: int,
    seeds: Tuple[int, ...],
    groups: Optional[Sequence[int]],
    engine: str,
    rng: Optional[str],
    validate: bool = True,
) -> Callable[[_Cell], SweepPoint]:
    """How :func:`_settle_cells` computes one planned cell: on the
    topology engine when the cell runs multi-cell, else through
    :func:`run_single`."""

    def compute(cell: _Cell) -> SweepPoint:
        if cell.topology is not None:
            return _run_single_topology(
                cell.spec, cell.policy, num_intervals, seeds, groups,
                cell.topology, rng=cell.rng, validate=validate,
            )
        return run_single(
            cell.spec, cell.factory, num_intervals, seeds, groups, engine,
            rng,
        )

    return compute


def run_sweep(
    parameter_name: str,
    values: Sequence[float],
    spec_builder: Callable[[float], NetworkSpec],
    policies: Union[Dict[str, PolicyFactory], Sequence[str]],
    num_intervals: int,
    seeds: Sequence[int] = (0,),
    groups: Optional[Sequence[int]] = None,
    engine: str = "scalar",
    cache=None,
    faults: Optional[FaultPolicy] = None,
    rng: Optional[str] = None,
    shards: Optional[int] = None,
    topology=None,
) -> SweepResult:
    """Run every (value, policy) cell and aggregate across seeds.

    ``policies`` maps labels to zero-argument factories, or is a sequence
    of registered policy names (``repro.core.registry.available()``) which
    the registry resolves to default-config factories.

    ``engine="scalar"`` (default) runs each cell's seeds one by one on
    the scalar engine; ``engine="fused"`` delegates the whole grid to
    :func:`~repro.experiments.grid.run_sweep_fused`, which batches every
    batchable (value, seed) cell of a policy family into one engine pass.
    ``rng`` selects the batch draw discipline and ``topology`` — a
    :class:`~repro.topology.graph.CellTopology` or a builder called with
    each value's spec — the multi-cell engine; both are fused-engine
    options (see :func:`~repro.experiments.grid.run_sweep_fused`).

    shards:
        ``K >= 2`` runs the sweep on a pool of K worker processes
        (:mod:`repro.experiments.parallel`): one cell per work unit on
        the scalar engine, K row-contiguous mega-batch blocks on the
        fused engine.  A unit that raises is retried under ``faults``, a
        killed worker's pool is respawned and its unfinished units
        resubmitted, a unit running past ``cell_timeout`` is failed and
        its worker reclaimed.  Scalar points are the same at every
        shard count.  ``None``/``1`` runs in-process.
    cache:
        ``True`` / directory / :class:`~repro.experiments.cache.SweepCache`
        checkpoints each finished cell on disk and serves warm cells
        without simulating (nor submitting them to a pool), so an
        interrupted sweep resumes from everything already computed
        (scalar cells are deterministic per cell, making the resumed
        result bit-identical to an uninterrupted run).
    faults:
        ``None`` (default) keeps the historical fail-fast behaviour: a
        cell's exception propagates unwrapped — except on a pool
        (``shards >= 2``), which runs strict with zero retries.  A
        :class:`~repro.experiments.faults.FaultPolicy` retries failing
        cells with backoff; permanent failures raise
        :class:`~repro.experiments.faults.SweepCellError` naming the
        (value, policy) cell (``strict``) or yield NaN points plus a
        :class:`~repro.experiments.faults.SweepFailureReport` on the
        result (``best_effort``).  ``cell_timeout`` needs a pool and is
        refused (``ValueError``) on a sweep that will not start one.
    """
    _check_engine(engine)
    if engine == "fused":
        from .grid import run_sweep_fused

        return run_sweep_fused(
            parameter_name,
            values,
            spec_builder,
            policies,
            num_intervals,
            seeds,
            groups,
            cache=cache,
            faults=faults,
            rng=rng,
            shards=shards,
            topology=topology,
        )
    pooled = _check_sweep(
        num_intervals, seeds, shards, len(values) * len(policies), faults
    )
    _refuse_scalar_options(engine, rng, topology)
    from .cache import resolve_cache  # cache.py imports this module

    seeds_t = tuple(int(s) for s in seeds)
    policies = registry.resolve_policies(policies)
    rng_mode = normalize_rng_mode(None)
    cells = _plan_sweep(
        values, spec_builder, policies, rng_mode, None, stacklevel=3,
        advise=False,
    )
    store = resolve_cache(cache)
    _lookup(store, cells, seeds_t, num_intervals, groups, engine)
    failures: List[CellFailure] = []
    if pooled:
        from .grid import _run_sweep_sharded

        _run_sweep_sharded(
            cells, engine, spec_builder, policies, num_intervals, seeds_t,
            groups, rng_mode, True, faults, store, int(shards), failures,
            None,
        )
    else:
        _settle_cells(
            cells, _cell_runner(num_intervals, seeds_t, groups, engine, None),
            faults, seeds_t, groups, failures, store,
        )
    return _assemble(parameter_name, values, cells, failures)

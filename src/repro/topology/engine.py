"""Multi-cell simulation lowered onto the batch engine.

One :class:`TopologySimulator` advances *all* (seed, cell) pairs of a
:class:`~repro.topology.graph.CellTopology` as rows of a single
:class:`~repro.sim.batch_sim.BatchIntervalSimulator`: cell ``c``'s rows
sit contiguously at ``c * S .. (c + 1) * S - 1`` (cell-major order), each
bound to that cell's sliced spec.  The kernel never learns about the
topology — rows are just small independent networks.

**Per-cell streams.**  The packed simulator gets one stream tag per
row, ``cell_stream_tag(c)`` for cell ``c``'s rows, so its
:class:`~repro.sim.rng.BatchRngBundle` splits the rows into one block per
cell.  Under the vectorized disciplines (``rng="batch"`` / ``"free"``)
every draw object of the batch engine fills each block from that cell's
own streams — the exact streams an *independent*
``BatchIntervalSimulator(cell_spec, policy, seeds,
stream_tag=cell_stream_tag(c))`` would consume.  Every kernel stage is
row-local arithmetic on exact small integers (matmul reductions
included), so row (c, s) of the packed run computes bit-identically to
row s of the independent cell run, given that the packed cells share one
``A_max`` and one channel-draw dtype (checked for ``A_max``; the dtype
only widens for reliabilities below ~1e-4).  That is the
disconnected-topology identity guarantee, and it also makes results
invariant under cell packing order and sharding.  Sync mode draws from
per-seed scalar bundles keyed by seed value alone.

**Boundary resolution.**  Topologies with boundary links mask non-owner
memberships' arrivals before each interval (see
:mod:`repro.topology.boundary`); owner draws come from a dedicated
topology-level free substream, so cells never communicate mid-interval.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import registry
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from ..sim.batch_sim import BatchIntervalSimulator, batch_refusal
from ..sim.rng import normalize_rng_mode
from ..sim.spec_stack import SpecStack
from .boundary import BoundaryMasker
from .graph import CellTopology, cell_stream_tag
from .pack import CellPacking

__all__ = [
    "TopologySimulator",
    "TopologyResult",
    "run_topology_batch",
    "topology_refusal",
]


class _PackedBatchSim(BatchIntervalSimulator):
    """Batch sim whose arrivals pass through the boundary masker."""

    _mask: Optional[BoundaryMasker] = None

    def _sample_arrivals(self) -> np.ndarray:
        arrivals = super()._sample_arrivals()
        if self._mask is not None:
            arrivals = self._mask.apply(self.interval, arrivals)
        return arrivals


# ----------------------------------------------------------------------
@dataclass
class TopologyResult:
    """Aggregated outcome of a multi-cell run (possibly one shard).

    ``delivery_sums`` is ``(S, num_links)`` over *global* links — each
    link's deliveries summed over its packed memberships (the boundary
    masker guarantees at most one membership delivers per interval).  A
    shard over a cell subset reports partial sums; :meth:`merge` adds
    shards together.
    """

    topology: CellTopology
    cells: Tuple[int, ...]
    seeds: Tuple[int, ...]
    num_intervals: int
    requirements: np.ndarray
    delivery_sums: np.ndarray
    collision_sums: np.ndarray
    overhead_cell_rows: np.ndarray  # (C_packed, S) per-row interval means

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)

    def mean_deliveries(self) -> np.ndarray:
        return self.delivery_sums / max(1, self.num_intervals)

    def total_deficiency(self) -> np.ndarray:
        """Per-seed summed timely-throughput deficiency over global links."""
        short = self.requirements[None, :] - self.mean_deliveries()
        return np.maximum(short, 0.0).sum(axis=1)

    def group_deficiency(self, groups: Sequence[int]) -> np.ndarray:
        """Per-seed deficiency summed within each link group — ``(S, G)``.

        ``groups[n]`` is the 0-based group id of global link ``n``, as in
        :func:`repro.analysis.metrics.group_deficiency`.
        """
        gid = np.asarray(groups, dtype=int)
        short = np.maximum(
            self.requirements[None, :] - self.mean_deliveries(), 0.0
        )
        return np.stack(
            [short[:, gid == g].sum(axis=1) for g in range(int(gid.max()) + 1)],
            axis=1,
        )

    def mean_overhead_us(self) -> np.ndarray:
        """Per-seed protocol overhead, averaged across packed cells."""
        return self.overhead_cell_rows.mean(axis=0)

    @staticmethod
    def merge(parts: Sequence["TopologyResult"]) -> "TopologyResult":
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        for p in parts[1:]:
            if (
                p.seeds != first.seeds
                or p.num_intervals != first.num_intervals
                or p.topology.fingerprint() != first.topology.fingerprint()
            ):
                raise ValueError("shards disagree on workload identity")
        cells = tuple(c for p in parts for c in p.cells)
        if len(set(cells)) != len(cells):
            raise ValueError("shards overlap on cells")
        return TopologyResult(
            topology=first.topology,
            cells=cells,
            seeds=first.seeds,
            num_intervals=first.num_intervals,
            requirements=first.requirements,
            delivery_sums=sum(p.delivery_sums for p in parts),
            collision_sums=sum(p.collision_sums for p in parts),
            overhead_cell_rows=np.concatenate(
                [p.overhead_cell_rows for p in parts], axis=0
            ),
        )


# ----------------------------------------------------------------------
def topology_refusal(
    spec: NetworkSpec,
    policy: IntervalMac,
    rng_mode: str,
    topology: CellTopology,
) -> Optional[str]:
    """Why :class:`TopologySimulator` cannot run ``(spec, policy)`` on
    ``topology`` under ``rng_mode``, or ``None`` when it can.

    The batch engine's gate (:func:`~repro.sim.batch_sim.batch_refusal`)
    plus per-cell slicing of the channel and arrival models
    (``take_links``) and, outside ``rng="sync"``, one ``A_max`` for
    every cell of the topology (packed rows draw their arrivals as one
    block).  The topology engine has no scalar counterpart, so
    a draw-discipline refusal names the discipline that does run the
    stateful model rather than the batch gate's single-domain advice;
    a timing the kernel cannot solve keeps the batch gate's message.
    """
    refusal = registry.kernel_refusal(policy)
    if refusal is not None:
        return refusal
    for model in (spec.channel, spec.arrivals):
        try:
            model.take_links((0,))
        except TypeError as exc:  # links not independent: no cell slices
            return str(exc)
    refusal = batch_refusal(spec, policy, rng_mode)
    if refusal is not None:
        # Sliceable models the batch gate refuses are the stateful ones;
        # with none, the kernel refused the timing.
        names = "/".join(
            type(m).__name__ for m in (spec.channel, spec.arrivals) if m.has_state
        )
        if not names:
            return refusal
        fix = (
            "rng='free' (statistically equivalent)"
            if batch_refusal(spec, policy, "free") is None
            else "rng='sync'"
        )
        return (
            f"{names} cannot run on the topology engine under the "
            f"{rng_mode!r} draw discipline; pass {fix}"
        )
    if rng_mode != "sync":
        width = topology.max_cell_size
        a_max = {
            max(1, spec.arrivals.take_links(cell, width - len(cell)).max_per_link)
            for cell in topology.cells
        }
        if len(a_max) > 1:
            return (
                f"cells must share one A_max for packed draws: got "
                f"{sorted(a_max)}"
            )
    return None


class TopologySimulator:
    """Advance every (seed, cell) pair of a topology in one batch."""

    def __init__(
        self,
        spec: NetworkSpec,
        policy: IntervalMac,
        seeds: Sequence[int],
        topology: CellTopology,
        *,
        rng: Optional[str] = None,
        validate: bool = True,
        record_traces: bool = False,
        cells_subset: Optional[Sequence[int]] = None,
    ):
        self.seeds = tuple(int(s) for s in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if cells_subset is None:
            cells = tuple(range(topology.num_cells))
        else:
            cells = tuple(int(c) for c in cells_subset)
            if (
                not cells
                or len(set(cells)) != len(cells)
                or not all(0 <= c < topology.num_cells for c in cells)
            ):
                raise ValueError(f"bad cell subset {cells}")
        self.cells = cells
        self.rng_mode = normalize_rng_mode(rng)
        refusal = topology_refusal(spec, policy, self.rng_mode, topology)
        if refusal is not None:
            raise TypeError(refusal)
        self.packing = CellPacking(spec, topology)
        self.topology = topology
        cell_specs = [self.packing.cell_specs[c] for c in cells]
        self.sim = _PackedBatchSim(
            SpecStack([spec_c for spec_c in cell_specs for _ in self.seeds]),
            policy,
            self.seeds * len(cells),
            rng=self.rng_mode,
            validate=validate,
            record_traces=record_traces,
            stream_tag=[cell_stream_tag(c) for c in cells for _ in self.seeds],
        )
        if topology.boundary_links:
            self.sim._mask = BoundaryMasker(self.packing, self.seeds, cells)

    # ------------------------------------------------------------------
    def step(self) -> None:
        self.sim.step()

    def run(self, num_intervals: int) -> TopologyResult:
        self.sim.run(num_intervals)
        return self.result()

    def result(self) -> TopologyResult:
        stats = self.sim.stats
        S = len(self.seeds)
        return TopologyResult(
            topology=self.topology,
            cells=self.cells,
            seeds=self.seeds,
            num_intervals=stats.num_intervals,
            requirements=self.packing.spec.requirement_vector,
            delivery_sums=self.packing.aggregate_rows(
                stats.delivery_sums, S, cells=self.cells
            ),
            collision_sums=stats.collision_sums.reshape(
                len(self.cells), S
            ).sum(axis=0),
            overhead_cell_rows=stats.mean_overhead_us().reshape(
                len(self.cells), S
            ),
        )


# ----------------------------------------------------------------------
def _split_cells(num_cells: int, shards: int) -> List[Tuple[int, ...]]:
    shards = max(1, min(int(shards), num_cells))
    base, extra = divmod(num_cells, shards)
    groups, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return groups


def _run_shard_task(payload) -> TopologyResult:
    (
        spec,
        policy,
        seeds,
        topology,
        cells,
        num_intervals,
        options,
    ) = payload
    sim = TopologySimulator(
        spec, policy, seeds, topology, cells_subset=cells, **options
    )
    return sim.run(num_intervals)


def run_topology_batch(
    spec: NetworkSpec,
    policy: IntervalMac,
    seeds: Sequence[int],
    topology: CellTopology,
    num_intervals: int,
    *,
    rng: Optional[str] = None,
    validate: bool = True,
    shards: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> TopologyResult:
    """Run a multi-cell simulation, optionally sharded over cell groups.

    Sharding is bit-invariant: every cell's draws are keyed by its global
    index and the boundary owner stream spans the whole topology, so any
    shard count (including in-process fallback) merges to the same
    result.  Shard processes fork the current interpreter; if a pool
    cannot be used (a payload that cannot be pickled, or workers that
    cannot start), shards run sequentially in process — same answer, no
    parallelism.  An exception raised by a shard's simulation propagates.
    """
    options = dict(rng=rng, validate=validate)
    if not shards or shards <= 1:
        sim = TopologySimulator(spec, policy, seeds, topology, **options)
        return sim.run(num_intervals)
    groups = _split_cells(topology.num_cells, shards)
    payloads = [
        (spec, policy, tuple(seeds), topology, cells, num_intervals, options)
        for cells in groups
    ]
    workers = max_workers or min(len(groups), os.cpu_count() or 1)
    parts = _run_shards_in_pool(payloads, workers) if workers > 1 else None
    if parts is None:
        parts = [_run_shard_task(p) for p in payloads]
    return TopologyResult.merge(parts)


def _run_shards_in_pool(payloads, workers: int) -> Optional[List[TopologyResult]]:
    """Shard results from a process pool, or ``None`` when no pool can run
    them: a payload that cannot be pickled, or workers that cannot start.
    An exception raised inside a shard propagates."""
    try:
        pickle.dumps(payloads)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    from concurrent.futures import ProcessPoolExecutor

    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, NotImplementedError):  # no usable semaphores or pipes
        return None
    with pool:
        try:
            futures = [pool.submit(_run_shard_task, p) for p in payloads]
        except OSError:  # worker processes could not be started
            return None
        return [f.result() for f in futures]

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
disconnected-topology identity guarantee, and it also makes a cell's
results independent of which sweep shard runs its topology.  Sync mode
draws from per-seed scalar bundles keyed by seed value alone.

**Boundary resolution.**  Topologies with boundary links mask non-owner
memberships' arrivals before each interval (see
:mod:`repro.topology.boundary`); owner draws come from a dedicated
topology-level free substream, so cells never communicate mid-interval.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
    """Aggregated outcome of a multi-cell run.

    ``delivery_sums`` is ``(S, num_links)`` over *global* links — each
    link's deliveries summed over its packed memberships (the boundary
    masker guarantees at most one membership delivers per interval).
    """

    topology: CellTopology
    seeds: Tuple[int, ...]
    num_intervals: int
    requirements: np.ndarray
    delivery_sums: np.ndarray
    collision_sums: np.ndarray
    overhead_cell_rows: np.ndarray  # (C, S) per-row interval means

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
        """Per-seed protocol overhead, averaged across cells."""
        return self.overhead_cell_rows.mean(axis=0)


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
    ):
        self.seeds = tuple(int(s) for s in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.cells = tuple(range(topology.num_cells))
        self.rng_mode = normalize_rng_mode(rng)
        refusal = topology_refusal(spec, policy, self.rng_mode, topology)
        if refusal is not None:
            raise TypeError(refusal)
        self.packing = CellPacking(spec, topology)
        self.topology = topology
        self.sim = _PackedBatchSim(
            SpecStack(
                [cell for cell in self.packing.cell_specs for _ in self.seeds]
            ),
            policy,
            self.seeds * len(self.cells),
            rng=self.rng_mode,
            validate=validate,
            record_traces=record_traces,
            stream_tag=[
                cell_stream_tag(c) for c in self.cells for _ in self.seeds
            ],
        )
        if topology.boundary_links:
            self.sim._mask = BoundaryMasker(self.packing, self.seeds)

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
            seeds=self.seeds,
            num_intervals=stats.num_intervals,
            requirements=self.packing.spec.requirement_vector,
            delivery_sums=self.packing.aggregate_rows(stats.delivery_sums, S),
            collision_sums=stats.collision_sums.reshape(
                len(self.cells), S
            ).sum(axis=0),
            overhead_cell_rows=stats.mean_overhead_us().reshape(
                len(self.cells), S
            ),
        )


# ----------------------------------------------------------------------
def run_topology_batch(
    spec: NetworkSpec,
    policy: IntervalMac,
    seeds: Sequence[int],
    topology: CellTopology,
    num_intervals: int,
    *,
    rng: Optional[str] = None,
    validate: bool = True,
) -> TopologyResult:
    """Run a multi-cell simulation: every (seed, cell) pair of
    ``topology`` advances as one row of a single batch simulator, in
    this process.  A sweep spreads its (value, policy) cells over worker
    processes by sharding its grid
    (:func:`~repro.experiments.grid.run_sweep_fused` with ``shards=``);
    one topology never splits across processes."""
    sim = TopologySimulator(
        spec, policy, seeds, topology, rng=rng, validate=validate
    )
    return sim.run(num_intervals)

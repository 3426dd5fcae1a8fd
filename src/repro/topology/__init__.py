"""Interference-graph topologies: many cells, one batch invocation.

Public surface of the multi-cell layer (see ``docs/topology.md``):

* :class:`~repro.topology.graph.CellTopology` plus the
  :func:`~repro.topology.graph.single_cell` /
  :func:`~repro.topology.graph.partition_cells` /
  :func:`~repro.topology.graph.grid_cells` builders;
* :class:`~repro.topology.engine.TopologySimulator` and
  :func:`~repro.topology.engine.run_topology_batch` — the lowering onto
  the batch engine (bit-identical per cell, shard-invariant), gated by
  :func:`~repro.topology.engine.topology_refusal`.
"""
from .boundary import BoundaryMasker, BoundaryOwnerDraws
from .engine import (
    TopologyResult,
    TopologySimulator,
    run_topology_batch,
    topology_refusal,
)
from .graph import (
    TOPOLOGY_STREAM_TAG,
    CellTopology,
    cell_stream_tag,
    grid_cells,
    partition_cells,
    single_cell,
)
from .pack import CellPacking

__all__ = [
    "BoundaryMasker",
    "BoundaryOwnerDraws",
    "CellPacking",
    "CellTopology",
    "TOPOLOGY_STREAM_TAG",
    "TopologyResult",
    "TopologySimulator",
    "cell_stream_tag",
    "grid_cells",
    "partition_cells",
    "run_topology_batch",
    "single_cell",
    "topology_refusal",
]

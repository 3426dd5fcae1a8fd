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
#: Public name -> the submodule that defines it, imported on first
#: access (see ``repro.__getattr__``): building a topology loads neither
#: the engine nor the batch simulator it lowers onto.
_SUBMODULE_OF = {
    name: submodule
    for submodule, names in {
        "boundary": ("BoundaryMasker", "BoundaryOwnerDraws"),
        "engine": (
            "TopologyResult", "TopologySimulator", "run_topology_batch",
            "topology_refusal",
        ),
        "graph": (
            "TOPOLOGY_STREAM_TAG", "CellTopology", "cell_stream_tag",
            "grid_cells", "partition_cells", "single_cell",
        ),
        "pack": ("CellPacking",),
    }.items()
    for name in names
}

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


def __getattr__(name: str):
    """``from .<submodule> import <name>`` on first access (PEP 562)."""
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{submodule}", fromlist=(name,))
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})

"""Disconnected topologies are bit-identical to independent per-cell sims.

The acceptance property of the multi-cell lowering: with no cross-cell
edges, row (cell, seed) of the packed run computes *per-interval*
bit-identically to row (seed) of an independent
``BatchIntervalSimulator`` bound to that cell's sliced spec and
cell-keyed streams — under every draw discipline.
"""

import numpy as np
import pytest

from repro import DBDPPolicy, DCFPolicy, FCSMAPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import (
    TopologySimulator,
    cell_stream_tag,
    grid_cells,
    partition_cells,
    run_topology_batch,
)

SEEDS = (0, 1, 2)
INTERVALS = 80
NUM_LINKS = 12
NUM_CELLS = 3
CELL_WIDTHS = (4, 64)


@pytest.mark.parametrize("rng", ["sync", None, "free"])
def test_disconnected_bit_identical_per_interval(rng):
    # Width 64 exceeds max_transmissions + 1, so DB-DP binds the
    # incremental DP state off sync mode.
    for width in CELL_WIDTHS:
        num_links = width * NUM_CELLS
        spec = video_symmetric_spec(0.55, num_links=num_links)
        topo = partition_cells(num_links, NUM_CELLS)
        sim = TopologySimulator(
            spec, DBDPPolicy(), SEEDS, topo,
            rng=rng, record_traces=True,
        )
        sim.run(INTERVALS)
        packed = sim.sim.result
        S = len(SEEDS)
        for c in range(NUM_CELLS):
            kwargs = {} if rng == "sync" else {"stream_tag": cell_stream_tag(c)}
            independent = BatchIntervalSimulator(
                sim.packing.cell_specs[c], DBDPPolicy(), SEEDS,
                rng=rng, record_traces=True, **kwargs,
            ).run(INTERVALS)
            rows = slice(c * S, (c + 1) * S)
            for field in ("arrivals", "deliveries", "attempts", "collisions"):
                np.testing.assert_array_equal(
                    getattr(packed, field)[:, rows],
                    getattr(independent, field),
                    err_msg=f"width {width} cell {c} rng={rng} {field}",
                )


@pytest.mark.parametrize("rng", ["sync", None, "free"])
@pytest.mark.parametrize("policy", [FCSMAPolicy, DCFPolicy])
def test_contention_kernel_disconnected_bit_identical(policy, rng):
    """The contention-round kernel draws its backoff block per row block
    too, so packed cells replay independent per-cell runs."""
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    sim = TopologySimulator(
        spec, policy(), SEEDS, topo, rng=rng, record_traces=True
    )
    sim.run(INTERVALS)
    packed = sim.sim.result
    S = len(SEEDS)
    for c in range(NUM_CELLS):
        kwargs = {} if rng == "sync" else {"stream_tag": cell_stream_tag(c)}
        independent = BatchIntervalSimulator(
            sim.packing.cell_specs[c], policy(), SEEDS,
            rng=rng, record_traces=True, **kwargs,
        ).run(INTERVALS)
        rows = slice(c * S, (c + 1) * S)
        for field in ("deliveries", "attempts", "collisions",
                      "overhead_time_us"):
            np.testing.assert_array_equal(
                getattr(packed, field)[:, rows],
                getattr(independent, field),
                err_msg=f"cell {c} rng={rng} {field}",
            )


def _sweep_builder(alpha):
    return video_symmetric_spec(alpha, num_links=NUM_LINKS)


def _sweep_topology(spec):
    return grid_cells(spec.num_links, NUM_CELLS, 0.5)


def test_sharded_run_is_bit_invariant():
    """A topology sweep split into shards equals the unsharded sweep bit
    for bit under every draw discipline: topology rows draw from their
    cells' streams and boundary owners from the topology's, never from
    the shard's."""
    kwargs = dict(
        parameter_name="alpha", values=(0.5, 0.55, 0.6),
        spec_builder=_sweep_builder, policies=["DB-DP", "LDF"],
        num_intervals=INTERVALS, seeds=SEEDS, topology=_sweep_topology,
    )
    for rng in ("batch", "free", "sync"):
        one = run_sweep_fused(rng=rng, **kwargs).points
        for shards in (2, 3):
            sharded = run_sweep_fused(rng=rng, shards=shards, **kwargs)
            assert sharded.points == one, (rng, shards)


def test_non_capable_family_rejected():
    from repro.core import registry

    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    factory = registry.resolve_policies(["FrameCSMA"])["FrameCSMA"]
    with pytest.raises(TypeError, match="no batch kernel"):
        TopologySimulator(spec, factory(), SEEDS, topo)


def test_empty_seeds_rejected():
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    with pytest.raises(ValueError, match="need at least one seed"):
        TopologySimulator(spec, DBDPPolicy(), (), topo)
    with pytest.raises(ValueError, match="need at least one seed"):
        run_topology_batch(spec, DBDPPolicy(), (), topo, INTERVALS)

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
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import (
    TopologyResult,
    TopologySimulator,
    cell_stream_tag,
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


def test_cell_subset_merge_matches_full_run():
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    policy = DBDPPolicy()
    full = TopologySimulator(spec, policy, SEEDS, topo).run(INTERVALS)
    parts = [
        TopologySimulator(
            spec, policy, SEEDS, topo, cells_subset=cells
        ).run(INTERVALS)
        for cells in ((1,), (2, 0))
    ]
    merged = TopologyResult.merge(parts)
    np.testing.assert_array_equal(full.delivery_sums, merged.delivery_sums)
    np.testing.assert_array_equal(full.collision_sums, merged.collision_sums)


def test_sharded_run_is_bit_invariant():
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    one = run_topology_batch(spec, DBDPPolicy(), SEEDS, topo, INTERVALS)
    sharded = run_topology_batch(
        spec, DBDPPolicy(), SEEDS, topo, INTERVALS, shards=2, max_workers=1
    )
    np.testing.assert_array_equal(one.delivery_sums, sharded.delivery_sums)
    np.testing.assert_array_equal(
        one.total_deficiency(), sharded.total_deficiency()
    )


def test_packing_order_invariance():
    """Reordering the packed cells does not change any cell's results."""
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    forward = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo, cells_subset=(0, 1, 2)
    ).run(INTERVALS)
    backward = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo, cells_subset=(2, 1, 0)
    ).run(INTERVALS)
    np.testing.assert_array_equal(
        forward.delivery_sums, backward.delivery_sums
    )


def test_non_capable_family_rejected():
    from repro.core import registry

    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    factory = registry.resolve_policies(["FrameCSMA"])["FrameCSMA"]
    with pytest.raises(TypeError, match="no batch kernel"):
        TopologySimulator(spec, factory(), SEEDS, topo)


@pytest.mark.parametrize(
    "seeds, cells, message",
    [
        ((), None, "need at least one seed"),
        (SEEDS, (), r"bad cell subset \(\)"),
        (SEEDS, (0, 0), r"bad cell subset \(0, 0\)"),
        (SEEDS, (NUM_CELLS,), "bad cell subset"),
    ],
)
def test_bad_seeds_or_cell_subset_rejected(seeds, cells, message):
    spec = video_symmetric_spec(0.55, num_links=NUM_LINKS)
    topo = partition_cells(NUM_LINKS, NUM_CELLS)
    with pytest.raises(ValueError, match=message):
        TopologySimulator(spec, DBDPPolicy(), seeds, topo, cells_subset=cells)
    if cells is None:
        with pytest.raises(ValueError, match=message):
            run_topology_batch(spec, DBDPPolicy(), seeds, topo, INTERVALS)

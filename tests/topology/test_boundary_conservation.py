"""Boundary-link conservation: one owner, one serve, no double-counting.

Property test over the per-interval traces of a packed multi-cell run:
a boundary link (member of two cells) is never served in both cells in
the same interval, only its per-interval *owner* membership ever sees
arrivals, and the aggregated per-link delivery sums equal the plain sum
over memberships (no double-counting).  Asserted across all RNG
disciplines.
"""

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.topology import BoundaryOwnerDraws, TopologySimulator, grid_cells

SEEDS = (0, 1, 2)
INTERVALS = 80
NUM_LINKS = 12
NUM_CELLS = 3


def _run(rng):
    spec = video_symmetric_spec(0.6, num_links=NUM_LINKS)
    topo = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.5)
    assert topo.boundary_links, "property test needs boundary links"
    sim = TopologySimulator(
        spec, DBDPPolicy(), SEEDS, topo,
        rng=rng, record_traces=True,
    )
    result = sim.run(INTERVALS)
    return topo, sim, result


@pytest.mark.parametrize("rng", ["sync", None, "free"])
def test_boundary_conservation(rng):
    topo, sim, result = _run(rng)
    traces = sim.sim.result
    S = len(SEEDS)
    for link in topo.boundary_links:
        mships = topo.memberships[link]
        assert len(mships) >= 2
        served = [
            traces.deliveries[:, c * S : (c + 1) * S, i] for c, i in mships
        ]
        # Never served by two memberships in the same (interval, seed).
        serving = sum((d > 0).astype(int) for d in served)
        assert serving.max() <= 1, (
            f"boundary link {link} served in two cells at once "
            f"(rng={rng})"
        )
        # No double-counting: the aggregated per-link sum is the plain
        # sum over memberships.
        total = sum(d.sum(axis=0) for d in served)
        np.testing.assert_array_equal(result.delivery_sums[:, link], total)


@pytest.mark.parametrize("rng", ["sync", None, "free"])
def test_only_the_owner_sees_arrivals(rng):
    topo, sim, _ = _run(rng)
    traces = sim.sim.result
    S = len(SEEDS)
    # Replay the owner stream: a pure function of (topology, seeds),
    # independent of the simulation's own draw discipline.
    draws = BoundaryOwnerDraws(topo, SEEDS)
    for k in range(INTERVALS):
        owners = draws.owners_at(k)  # (S, B)
        for b, link in enumerate(topo.boundary_links):
            for j, (c, i) in enumerate(topo.memberships[link]):
                losers = np.flatnonzero(owners[:, b] != j)
                assert (
                    traces.arrivals[k, c * S + losers, i] == 0
                ).all(), (
                    f"non-owner membership {j} of link {link} saw "
                    f"arrivals at interval {k} (rng={rng})"
                )


def test_owner_stream_is_deterministic():
    topo = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.5)
    a = BoundaryOwnerDraws(topo, SEEDS)
    b = BoundaryOwnerDraws(topo, SEEDS)
    for k in range(32):
        np.testing.assert_array_equal(a.owners_at(k), b.owners_at(k))


def test_owner_stream_rejects_out_of_order_reads():
    topo = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.5)
    draws = BoundaryOwnerDraws(topo, SEEDS)
    draws.owners_at(0)
    with pytest.raises(RuntimeError, match="out of order"):
        draws.owners_at(5)

"""Units for the topology graph model and the cell packing."""

import numpy as np
import pytest

from repro.experiments.configs import video_symmetric_spec
from repro.topology import (
    CellPacking,
    CellTopology,
    grid_cells,
    partition_cells,
    single_cell,
)


class TestCellTopology:
    def test_single_cell_has_no_boundary(self):
        topo = single_cell(5)
        assert topo.num_cells == 1
        assert topo.boundary_links == ()

    def test_partition_is_disconnected(self):
        topo = partition_cells(10, 3)
        assert topo.num_cells == 3
        assert topo.boundary_links == ()
        sizes = sorted(len(c) for c in topo.cells)
        assert sizes == [3, 3, 4]
        assert sorted(l for c in topo.cells for l in c) == list(range(10))

    def test_grid_cells_zero_fraction_matches_partition(self):
        assert grid_cells(12, 4, 0.0).cells == partition_cells(12, 4).cells

    def test_grid_cells_promotes_boundary_links(self):
        topo = grid_cells(12, 4, cross_cell_fraction=0.5)
        # round(0.5 * 12) = 6 wanted, capped at num_cells = 4 borders.
        assert len(topo.boundary_links) == 4
        for link in topo.boundary_links:
            assert len(topo.memberships[link]) == 2

    def test_every_link_must_be_covered(self):
        with pytest.raises(ValueError, match="belong to no cell"):
            CellTopology(4, ((0, 1), (2,)))

    def test_duplicate_within_cell_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            CellTopology(3, ((0, 1, 1), (2,)))

    def test_out_of_range_link_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            CellTopology(3, ((0, 1), (2, 3)))

    def test_fingerprint_is_stable_and_sensitive(self):
        a = grid_cells(12, 4, 0.5).fingerprint()
        b = grid_cells(12, 4, 0.5).fingerprint()
        c = grid_cells(12, 4, 0.0).fingerprint()
        assert a == b
        assert a["digest"] != c["digest"]


class TestCellPacking:
    def test_cell_specs_slice_the_global_spec(self):
        spec = video_symmetric_spec(0.55, num_links=10)
        topo = partition_cells(10, 3)
        packing = CellPacking(spec, topo)
        assert packing.width == 4
        for c, cell in enumerate(topo.cells):
            cell_spec = packing.cell_specs[c]
            assert cell_spec.num_links == packing.width
            for i, link in enumerate(cell):
                assert packing.member_matrix[c, i] == link
                assert cell_spec.reliabilities[i] == spec.reliabilities[link]
                assert (
                    cell_spec.requirement_vector[i]
                    == spec.requirement_vector[link]
                )
            # Pads: dead links with no traffic and no requirement.
            for i in range(len(cell), packing.width):
                assert packing.member_matrix[c, i] == -1
                assert cell_spec.requirement_vector[i] == 0.0

    def test_boundary_requirement_split_across_memberships(self):
        spec = video_symmetric_spec(0.55, num_links=12)
        topo = grid_cells(12, 3, cross_cell_fraction=0.5)
        packing = CellPacking(spec, topo)
        for b, link in enumerate(topo.boundary_links):
            mships = topo.memberships[link]
            shares = [
                packing.cell_specs[c].requirement_vector[i]
                for c, i in mships
            ]
            assert np.isclose(sum(shares), spec.requirement_vector[link])
            for c, i in mships:
                assert packing.boundary_index_matrix[c, i] == b

    def test_aggregate_rows_sums_memberships(self):
        spec = video_symmetric_spec(0.55, num_links=6)
        topo = grid_cells(6, 3, cross_cell_fraction=1.0)
        packing = CellPacking(spec, topo)
        S = 2
        rows = np.arange(
            topo.num_cells * S * packing.width, dtype=np.int64
        ).reshape(topo.num_cells * S, packing.width)
        out = packing.aggregate_rows(rows, S)
        assert out.shape == (S, 6)
        for s in range(S):
            for link in range(6):
                expect = sum(
                    rows[c * S + s, i] for c, i in topo.memberships[link]
                )
                assert out[s, link] == expect

    def test_num_links_mismatch_rejected(self):
        spec = video_symmetric_spec(0.55, num_links=10)
        with pytest.raises(ValueError, match="topology covers"):
            CellPacking(spec, partition_cells(8, 2))

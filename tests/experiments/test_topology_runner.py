"""The ``topology=`` plumbing through the experiment runners and CLI."""

import warnings

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.experiments.cache import SweepCache
from repro.experiments.cli import build_parser, main
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.runner import run_single, run_sweep
from repro.topology import TopologyResult, grid_cells, run_topology_batch
from tests.experiments.per_cell import per_cell_sweep

SEEDS = (0, 1)
INTERVALS = 40
VALUES = (0.5, 0.55)


def _spec(alpha):
    return video_symmetric_spec(alpha, num_links=12)


def _builder(spec):
    return grid_cells(spec.num_links, 3, 0.5)


def _sweep(engine, **kwargs):
    return run_sweep(
        "alpha*", VALUES, _spec, ["DB-DP", "FrameCSMA"], INTERVALS,
        seeds=SEEDS, engine=engine, topology=_builder, **kwargs,
    )


class TestRunnerPlumbing:
    def test_batch_and_fused_agree(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            batch = per_cell_sweep(
                "alpha*", VALUES, _spec, ["DB-DP", "FrameCSMA"], INTERVALS,
                seeds=SEEDS, topology=_builder,
            )
            fused = _sweep("fused")
        assert [p.policy for p in batch.points] == [
            p.policy for p in fused.points
        ]
        for a, b in zip(batch.points, fused.points):
            assert a.total_deficiency == b.total_deficiency

    def test_non_capable_family_degrades_with_one_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _sweep("fused")
        topo_warnings = [
            w for w in caught if "topology= is ignored" in str(w.message)
        ]
        assert len(topo_warnings) == 1
        assert "FrameCSMA" in str(topo_warnings[0].message)
        # The degraded cells still produce finite points.
        frame = [p for p in result.points if p.policy == "FrameCSMA"]
        assert all(np.isfinite(p.total_deficiency) for p in frame)

    def test_degraded_cells_match_topology_free_sweep(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with_topo = _sweep("fused")
        plain = run_sweep(
            "alpha*", VALUES, _spec, ["FrameCSMA"], INTERVALS,
            seeds=SEEDS, engine="fused",
        )
        got = {
            p.parameter: p.total_deficiency
            for p in with_topo.points
            if p.policy == "FrameCSMA"
        }
        for p in plain.points:
            assert got[p.parameter] == p.total_deficiency

    def test_scalar_engine_rejects_topology(self):
        with pytest.raises(ValueError, match="topology="):
            run_sweep(
                "alpha*", VALUES, _spec, ["DB-DP"], INTERVALS,
                seeds=SEEDS, engine="scalar", topology=_builder,
            )
        with pytest.raises(ValueError, match="topology="):
            run_single(
                _spec(0.5), DBDPPolicy, INTERVALS, SEEDS,
                engine="scalar", topology=_builder,
            )

    def test_topology_num_links_mismatch_rejected(self):
        with pytest.raises(ValueError, match="topology covers"):
            run_single(
                _spec(0.5), DBDPPolicy, INTERVALS, SEEDS,
                engine="batch", topology=grid_cells(8, 2),
            )


class TestCacheKeys:
    def test_topology_keys_are_distinct(self, tmp_path):
        store = SweepCache(tmp_path)
        common = dict(
            spec=_spec(0.5),
            policy=DBDPPolicy(),
            seeds=SEEDS,
            num_intervals=INTERVALS,
        )
        plain = store.cell_key(**common)
        topo = store.cell_key(**common, topology=grid_cells(12, 3))
        other = store.cell_key(**common, topology=grid_cells(12, 3, 0.5))
        assert plain != topo
        assert topo != other
        # None omits the field: pre-existing keys preserved.
        assert store.cell_key(**common, topology=None) == plain

    def test_cold_warm_resume_identical(self, tmp_path):
        kwargs = dict(seeds=SEEDS, engine="fused", cache=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cold = run_sweep(
                "alpha*", VALUES, _spec, ["DB-DP"], INTERVALS,
                topology=_builder, **kwargs,
            )
            warm = run_sweep(
                "alpha*", VALUES, _spec, ["DB-DP"], INTERVALS,
                topology=_builder, **kwargs,
            )
        for a, b in zip(cold.points, warm.points):
            assert a.total_deficiency == b.total_deficiency
            assert a.deficiency_std == b.deficiency_std
            assert a.mean_overhead_us == b.mean_overhead_us


class TestBatchEntryPoint:
    def test_returns_per_link_topology_result(self):
        result = run_topology_batch(
            _spec(0.5), DBDPPolicy(), SEEDS, grid_cells(12, 3, 0.5), INTERVALS
        )
        assert isinstance(result, TopologyResult)
        assert result.delivery_sums.shape == (len(SEEDS), 12)

    def test_direct_call_is_strict_for_non_capable_families(self):
        from repro.core import registry

        factory = registry.resolve_policies(["FrameCSMA"])["FrameCSMA"]
        with pytest.raises(TypeError, match="no batch kernel"):
            run_topology_batch(
                _spec(0.5), factory(), SEEDS, grid_cells(12, 3), INTERVALS
            )


class TestCli:
    def test_parser_accepts_cell_flags(self):
        args = build_parser().parse_args(
            ["fig3", "--cells", "4", "--cross-cell-fraction", "0.1"]
        )
        assert args.cells == 4
        assert args.cross_cell_fraction == 0.1

    def test_fraction_requires_cells(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--cross-cell-fraction", "0.1"])
        assert "--cells" in capsys.readouterr().err

    def test_cells_flag_runs_a_figure(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = main(
                ["fig3", "--cells", "4", "--intervals", "20",
                 "--seeds", "0"]
            )
        assert code == 0
        assert "alpha*" in capsys.readouterr().out

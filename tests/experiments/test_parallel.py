"""Scalar sweeps on a worker pool: ``run_sweep(engine="scalar", shards=K)``.

Each cell is one work unit of the pool orchestrator, so every fault
contract — retry, kill, hang, refund, checkpoint and resume — names and
NaN-fills exactly one (value, policy) cell, and the points equal the
in-process scalar sweep at every shard count.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.cache import SweepCache
from repro.experiments.cli import main
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.faults import (
    CELL_TIMEOUT_REFUSAL,
    ENV_FAULT_INJECT,
    FaultPolicy,
    SweepCellError,
)
from repro.experiments.figures import fig3
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import run_single, run_sweep


def small_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=6)


#: Run on a pool of two workers: the pooled counterpart of ``run_sweep``.
pooled_sweep = functools.partial(run_sweep, engine="scalar", shards=2)


class TestParallelSweep:
    def test_matches_sequential_exactly(self):
        """Same seeds -> bit-identical deficiencies."""
        kwargs = dict(
            parameter_name="alpha",
            values=[0.4, 0.7],
            spec_builder=small_builder,
            policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy},
            num_intervals=120,
            seeds=(0, 1),
        )
        sequential = run_sweep(**kwargs)
        parallel = pooled_sweep(**kwargs)
        for label in ("LDF", "DB-DP"):
            np.testing.assert_array_equal(
                sequential.series(label), parallel.series(label)
            )

    def test_group_support(self):
        """With groups, every shard count equals the in-process sweep
        point for point."""
        kwargs = dict(
            parameter_name="alpha",
            values=[0.4, 0.6],
            spec_builder=small_builder,
            policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy},
            num_intervals=60,
            seeds=(0, 1),
            groups=(0, 0, 0, 1, 1, 1),
        )
        in_process = run_sweep(**kwargs)
        for shards in (1, 2, 3):
            result = run_sweep(shards=shards, **kwargs)
            assert result.points == in_process.points, shards
        assert len(result.group_series("LDF", 1)) == 2

    def test_points_preserve_all_sweep_point_fields(self):
        """Result assembly uses dataclasses.replace, so every field the
        worker computed must survive into the merged SweepResult."""
        from dataclasses import fields

        kwargs = dict(
            parameter_name="alpha",
            values=[0.4, 0.6],
            spec_builder=small_builder,
            policies={"LDF": LDFPolicy},
            num_intervals=60,
            seeds=(0, 1),
        )
        sequential = run_sweep(**kwargs)
        parallel = pooled_sweep(**kwargs)
        assert len(parallel.points) == len(sequential.points)
        for seq_pt, par_pt in zip(sequential.points, parallel.points):
            for f in fields(seq_pt):
                np.testing.assert_array_equal(
                    getattr(seq_pt, f.name),
                    getattr(par_pt, f.name),
                    err_msg=f"field {f.name!r} lost in parallel assembly",
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            pooled_sweep("x", [1.0], small_builder, {"LDF": LDFPolicy}, 0)
        with pytest.raises(ValueError):
            pooled_sweep(
                "x", [1.0], small_builder, {"LDF": LDFPolicy}, 10, seeds=()
            )
        with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
            run_sweep(
                "x", [1.0], small_builder, {"LDF": LDFPolicy}, 10, shards=0
            )

    def test_unpicklable_builder_runs_cells_in_process(self):
        kwargs = dict(
            parameter_name="alpha",
            values=[0.4, 0.6],
            policies={"LDF": LDFPolicy},
            num_intervals=40,
            seeds=(0, 1),
        )
        with pytest.warns(UserWarning, match="not picklable"):
            local = pooled_sweep(
                spec_builder=lambda a: small_builder(a), **kwargs
            )
        assert local.points == run_sweep(
            spec_builder=small_builder, **kwargs
        ).points


ENGINE_REFUSAL = "engine must be one of ('scalar', 'fused'), got 'batch'"


class TestEngineRefusals:
    """Each entry accepts only the engines it runs."""

    def test_sweep_refuses_batch(self):
        with pytest.raises(ValueError) as err:
            run_sweep(
                "alpha", [0.5], small_builder, ["LDF"], 10, engine="batch"
            )
        assert str(err.value) == ENGINE_REFUSAL

    def test_figure_refuses_batch(self):
        with pytest.raises(ValueError) as err:
            fig3(num_intervals=10, alphas=(0.5,), engine="batch")
        assert str(err.value) == ENGINE_REFUSAL

    def test_cli_refuses_batch(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fig3", "--engine", "batch", "--intervals", "10"])
        assert exit_.value.code == 2
        assert ENGINE_REFUSAL in capsys.readouterr().err

    def test_single_cell_refuses_fused(self):
        with pytest.raises(ValueError) as err:
            run_single(small_builder(0.5), LDFPolicy, 10, (0,), engine="fused")
        assert str(err.value) == (
            "engine must be one of ('scalar', 'batch'), got 'fused'"
        )


class TestCellTimeoutRefusals:
    """``cell_timeout`` is enforced only by a pool; a sweep that starts
    none refuses it before any cell runs."""

    FAULTS = FaultPolicy(cell_timeout=10.0)

    @pytest.mark.parametrize("engine", ["scalar", "fused"])
    @pytest.mark.parametrize(
        "values, shards", [((0.4, 0.6), None), ((0.4, 0.6), 1), ((0.5,), 2)]
    )
    def test_refused_without_a_pool(self, engine, values, shards):
        with pytest.raises(ValueError) as err:
            run_sweep(
                "alpha", values, small_builder, ["LDF"], 10,
                engine=engine, shards=shards, faults=self.FAULTS,
            )
        assert str(err.value) == CELL_TIMEOUT_REFUSAL

    def test_fused_entry_refuses_it_too(self):
        with pytest.raises(ValueError) as err:
            run_sweep_fused(
                "alpha", (0.4, 0.6), small_builder, ["LDF"], 10,
                faults=self.FAULTS,
            )
        assert str(err.value) == CELL_TIMEOUT_REFUSAL

    @pytest.mark.parametrize("engine", ["scalar", "fused"])
    def test_refused_by_the_in_process_fallback(self, engine):
        with pytest.raises(ValueError) as err:
            run_sweep(
                "alpha", (0.4, 0.6), lambda a: small_builder(a), ["LDF"],
                10, engine=engine, shards=2, faults=self.FAULTS,
            )
        assert str(err.value) == CELL_TIMEOUT_REFUSAL

    def test_cli_refuses_it_without_shards(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fig3", "--cell-timeout", "10", "--intervals", "10"])
        assert exit_.value.code == 2
        assert CELL_TIMEOUT_REFUSAL in capsys.readouterr().err


#: Fast retries for fault tests: no backoff sleeping.
def fast_faults(**overrides):
    return FaultPolicy(**{"backoff_base": 0.0, **overrides})


def small_kwargs(**overrides):
    return {
        **dict(
            parameter_name="alpha",
            values=[0.4, 0.7],
            spec_builder=small_builder,
            policies={"LDF": LDFPolicy},
            num_intervals=60,
            seeds=(0, 1),
        ),
        **overrides,
    }


class TestFaultTolerance:
    """Deterministic fault injection through REPRO_FAULT_INJECT.

    Workers are forked after the env var is set, so the directives reach
    them without extra plumbing; attempt indices are passed down by the
    orchestrator, so 'heal after n attempts' is deterministic.  Every
    assertion holds under any schedule of the two workers.
    """

    def test_transient_worker_exception_heals(self, monkeypatch):
        """An exception on attempt 0 only: retries recover the cell and
        the result is bit-identical to a clean run."""
        kwargs = small_kwargs()
        clean = run_sweep(**kwargs)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.4:1")
        result = pooled_sweep(faults=fast_faults(retries=1), **kwargs)
        np.testing.assert_array_equal(
            result.series("LDF"), clean.series("LDF")
        )
        assert result.failures is None

    def test_permanent_exception_strict_names_cell(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.7")
        with pytest.raises(SweepCellError) as err:
            pooled_sweep(faults=fast_faults(retries=1), **small_kwargs())
        e = err.value
        assert (e.value, e.policy, e.seeds, e.attempts) == (
            0.7, "LDF", (0, 1), 2,
        )
        assert "InjectedFault" in str(e)

    def test_permanent_exception_best_effort_yields_nan_and_report(
        self, monkeypatch
    ):
        kwargs = small_kwargs()
        clean = run_sweep(**kwargs)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.7")
        result = pooled_sweep(
            faults=fast_faults(retries=0, mode="best_effort"), **kwargs
        )
        good, bad = result.series("LDF")
        assert good == clean.series("LDF")[0]
        assert math.isnan(bad)
        report = result.failures
        assert report is not None and report.cells == [(0.7, "LDF")]
        (failure,) = report.failures
        assert failure.attempts == 1
        assert failure.error_type == "InjectedFault"

    def test_worker_kill_recovers_bit_identical(self, monkeypatch):
        """os._exit in a worker breaks the whole pool; the orchestrator
        must respawn it, resubmit, and still match the clean run."""
        kwargs = small_kwargs()
        clean = run_sweep(**kwargs)
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:LDF:0.4:1")
        result = pooled_sweep(faults=fast_faults(retries=2), **kwargs)
        np.testing.assert_array_equal(
            result.series("LDF"), clean.series("LDF")
        )
        assert result.failures is None

    def test_worker_kill_permanent_best_effort(self, monkeypatch):
        """A cell that always kills its worker exhausts its retries as
        BrokenProcessPool; best-effort fills it with NaN and keeps the
        healthy cell.  A break the killer shares with the healthy cell is
        refunded to both, so only the killer's solo runs are charged."""
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:LDF:0.7")
        result = pooled_sweep(
            faults=fast_faults(retries=1, mode="best_effort"),
            **small_kwargs(),
        )
        good, bad = result.series("LDF")
        assert not math.isnan(good)
        assert math.isnan(bad)
        (failure,) = result.failures.failures
        assert (failure.value, failure.policy) == (0.7, "LDF")
        assert failure.error_type == "BrokenProcessPool"
        assert failure.attempts == 2

    def test_cell_timeout_retry_recovers(self, monkeypatch):
        """A hang on attempt 0 only: the timeout expires the cell, the
        pool is respawned to reclaim the worker, and the retry heals."""
        kwargs = small_kwargs(num_intervals=40)
        clean = run_sweep(**kwargs)
        monkeypatch.setenv(ENV_FAULT_INJECT, "hang:LDF:0.7:1")
        result = pooled_sweep(
            faults=fast_faults(retries=1, cell_timeout=1.0), **kwargs
        )
        np.testing.assert_array_equal(
            result.series("LDF"), clean.series("LDF")
        )
        assert result.failures is None

    def test_cell_timeout_permanent_best_effort(self, monkeypatch):
        """The hung cell fails for good; a healthy cell still running
        when the pool is respawned is refunded and re-runs."""
        monkeypatch.setenv(ENV_FAULT_INJECT, "hang:LDF:0.7")
        result = pooled_sweep(
            faults=fast_faults(
                retries=0, cell_timeout=0.5, mode="best_effort"
            ),
            **small_kwargs(num_intervals=40),
        )
        good, bad = result.series("LDF")
        assert not math.isnan(good)
        assert math.isnan(bad)
        (failure,) = result.failures.failures
        assert failure.error_type == "TimeoutError"
        assert "cell_timeout" in failure.message


class TestCheckpointResume:
    def test_warm_cells_are_never_submitted(self, tmp_path, monkeypatch):
        """With every cell cached, the sweep must succeed even when any
        submitted cell would kill its worker: warm hits skip the pool."""
        kwargs = small_kwargs()
        cache = SweepCache(tmp_path)
        cold = pooled_sweep(cache=cache, **kwargs)
        assert cache.stores == 2
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill")  # kill *any* cell
        warm = pooled_sweep(
            cache=cache, faults=fast_faults(retries=0), **kwargs
        )
        assert cache.hits == 2
        np.testing.assert_array_equal(
            warm.series("LDF"), cold.series("LDF")
        )

    def test_kill_at_half_then_resume_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: a sweep killed part-way must resume
        from the checkpointed cells and finish bit-identical to an
        uninterrupted (and uncached) run.

        The kill hits the grid's last cell.  Whatever cell shares the
        pool with it when it dies is a suspect and re-runs alone before
        the strict abort, so exactly the other three cells are
        checkpointed under any schedule of the two workers.
        """
        kwargs = small_kwargs(values=[0.4, 0.5, 0.6, 0.7])
        reference = run_sweep(**kwargs)  # in-process, uncached

        cache = SweepCache(tmp_path)
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:LDF:0.7")
        with pytest.raises(SweepCellError) as err:
            pooled_sweep(
                cache=cache, faults=fast_faults(retries=0), **kwargs
            )
        assert (err.value.value, err.value.policy) == (0.7, "LDF")
        assert err.value.attempts == 1
        assert cache.stores == 3  # every cell but the killer checkpointed

        monkeypatch.delenv(ENV_FAULT_INJECT)
        resumed = pooled_sweep(cache=cache, **kwargs)
        assert cache.hits == 3  # the checkpointed cells came from disk
        assert len(resumed.points) == len(reference.points)
        for ref_pt, res_pt in zip(reference.points, resumed.points):
            assert ref_pt == res_pt  # bit-identical, field by field

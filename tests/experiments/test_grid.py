"""Tests for the grid-fused sweep engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBDPPolicy, FrameCSMAPolicy, LDFPolicy
from repro.core.policies import IntervalMac as _IntervalMac
from repro.core.policies import IntervalOutcome as _IntervalOutcome
from repro.experiments import grid
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import run_sweep
from tests.experiments.per_cell import per_cell_sweep


def builder(alpha):
    return video_symmetric_spec(alpha, num_links=4)


BASE = dict(
    parameter_name="alpha",
    values=[0.45, 0.6],
    spec_builder=builder,
    num_intervals=120,
    seeds=(0, 1, 2),
)


class TestSyncExactness:
    def test_sync_rng_matches_scalar_sweep_bitwise(self):
        """With scalar-identical streams the whole fused grid must equal
        the scalar per-cell sweep field-for-field — every row simulates
        the same physics from the same draws, and the aggregation mirrors
        the per-cell float operations."""
        kw = dict(BASE, policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy})
        fused = run_sweep_fused(**kw, rng="sync")
        scalar = run_sweep(**kw, engine="scalar")
        assert fused.points == scalar.points
        assert fused.values == scalar.values

    def test_sync_rng_with_groups(self):
        kw = dict(
            BASE,
            policies={"LDF": LDFPolicy},
            groups=(0, 0, 1, 1),
        )
        fused = run_sweep_fused(**kw, rng="sync")
        scalar = run_sweep(**kw, engine="scalar")
        assert fused.points == scalar.points


class TestFallback:
    def test_unfusable_policy_falls_back_per_cell(self):
        """FrameCSMA has no batch kernel; its cells must reproduce the
        per-cell runner exactly (both routes reach the same scalar
        engine with the same seeds)."""
        kw = dict(
            BASE, policies={"FrameCSMA": FrameCSMAPolicy, "LDF": LDFPolicy}
        )
        fused = run_sweep_fused(**kw)
        per_cell = per_cell_sweep(**kw)
        fused_frame = [p for p in fused.points if p.policy == "FrameCSMA"]
        per_cell_frame = [
            p for p in per_cell.points if p.policy == "FrameCSMA"
        ]
        assert fused_frame == per_cell_frame
        # The fused LDF cells are fresh samples, not bit-identical; the
        # sweep must still cover every (value, policy) cell.
        assert len(fused.points) == len(per_cell.points) == 4
        assert fused.series("LDF") and fused.series("FrameCSMA")

    def test_unstackable_group_degrades_gracefully(self, monkeypatch):
        """If stacking itself fails, the group must fall back to the
        per-cell runner rather than crash or drop cells."""
        monkeypatch.setattr(grid, "_build_fused_sim", lambda *a, **k: None)
        kw = dict(BASE, policies={"LDF": LDFPolicy})
        result = run_sweep_fused(**kw)
        assert len(result.points) == 2
        assert all(p.total_deficiency >= 0 for p in result.points)


class TestLockstepSharing:
    def test_draw_sharing_changes_no_values(self, monkeypatch):
        """Cross-family draw sharing is an optimization only: disabling
        it must leave every sweep point bit-identical."""
        kw = dict(BASE, policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy})
        shared = run_sweep_fused(**kw)
        monkeypatch.setattr(grid, "share_batch_draws", lambda sims: None)
        unshared = run_sweep_fused(**kw)
        assert shared.points == unshared.points


class TestStatistics:
    def test_default_mode_statistically_close_to_per_cell(self):
        """Default-mode rows are fresh samples of the same estimator;
        means must agree within a loose tolerance even at this tiny
        horizon (the tight ensemble check lives in the integration
        suite)."""
        kw = dict(
            BASE,
            policies={"LDF": LDFPolicy},
            num_intervals=300,
            seeds=tuple(range(8)),
        )
        fused = run_sweep_fused(**kw)
        per_cell = per_cell_sweep(**kw)
        for a, b in zip(fused.series("LDF"), per_cell.series("LDF")):
            assert abs(a - b) < max(0.3, 0.5 * b)


class TestValidationArgs:
    def test_bad_intervals_rejected(self):
        with pytest.raises(ValueError, match="num_intervals"):
            run_sweep_fused(
                "alpha", [0.5], builder, {"LDF": LDFPolicy}, 0, seeds=(0,)
            )

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_sweep_fused(
                "alpha", [0.5], builder, {"LDF": LDFPolicy}, 10, seeds=()
            )

    def test_engine_fused_routes_through_run_sweep(self):
        kw = dict(BASE, policies={"LDF": LDFPolicy})
        result = run_sweep(**kw, engine="fused")
        assert len(result.points) == 2
        assert result.series("LDF")


class TestScalarOnlyDeclaredFallback:
    """Scalar-only families run through the fused engine by declaration.

    Frame-CSMA names no ``batch_kernel`` in its registry descriptor;
    ``run_sweep(engine="fused")`` must route each of its cells through
    the declared per-cell fallback and reproduce the per-cell runner
    exactly.  (DCF and FCSMA name the contention-round kernel; see
    :class:`TestContentionFamiliesFuse`.)
    """

    @pytest.mark.parametrize("name", ["FrameCSMA"])
    def test_scalar_only_policy_through_fused_engine(self, name):
        kw = dict(BASE, policies=(name,), num_intervals=60, seeds=(0, 1))
        fused = run_sweep(**kw, engine="fused")
        per_cell = per_cell_sweep(**kw)
        assert fused.points == per_cell.points
        assert fused.series(name)

    def test_names_resolve_via_registry(self):
        from repro.core import registry

        kw = dict(BASE, policies=("LDF", "DB-DP"), num_intervals=60)
        by_name = run_sweep_fused(**kw, rng="sync")
        by_factory = run_sweep_fused(
            **dict(kw, policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy}),
            rng="sync",
        )
        assert by_name.points == by_factory.points
        assert registry.get("FrameCSMA").batch_kernel is None


class TestContentionFamiliesFuse:
    """DCF and FCSMA run as fused mega-batches on the contention-round
    kernel: under ``rng="sync"`` the fused grid equals the scalar sweep
    field for field, and no cell falls back per cell."""

    @pytest.mark.parametrize("name", ["DCF", "FCSMA"])
    def test_sync_fused_matches_scalar_sweep(self, name, monkeypatch):
        kw = dict(BASE, policies=(name,), num_intervals=60, seeds=(0, 1))
        scalar = run_sweep(**kw, engine="scalar")

        def per_cell(*args, **kwargs):
            raise AssertionError("a contention cell fell back per cell")

        monkeypatch.setattr(
            grid, "_fallback_runner", lambda *args: per_cell
        )
        fused = run_sweep_fused(**kw, rng="sync")
        assert fused.points == scalar.points


class TestUncacheableWarning:
    class _Mystery(_IntervalMac):
        """Unregistered policy: simulable but not fingerprintable.

        Not an LDF subclass — an MRO walk must find no registered
        ancestor, so its cells are uncacheable by construction.
        """

        name = "mystery"

        def run_interval(self, k, arrivals, positive_debts, rng):
            n = self.spec.num_links
            return _IntervalOutcome(
                deliveries=np.zeros(n, dtype=np.int64),
                attempts=np.zeros(n, dtype=np.int64),
                busy_time_us=0.0,
                overhead_time_us=0.0,
                collisions=0,
                priorities=tuple(range(1, n + 1)),
            )

    def test_unregistered_policy_skips_cache_with_one_warning(self, tmp_path):
        kw = dict(
            BASE,
            policies={"mystery": self._Mystery, "LDF": LDFPolicy},
            num_intervals=40,
            seeds=(0,),
        )
        with pytest.warns(UserWarning, match="mystery") as record:
            result = run_sweep_fused(**kw, cache=str(tmp_path))
        cache_warnings = [
            w for w in record if "sweep cache" in str(w.message)
        ]
        # One warning for the whole sweep, not one per cell.
        assert len(cache_warnings) == 1
        # The sweep still completes: every cell present, LDF cells cached.
        assert len(result.points) == 4
        with pytest.warns(UserWarning, match="sweep cache"):
            rerun = run_sweep_fused(**kw, cache=str(tmp_path))
        assert [p for p in rerun.points if p.policy == "LDF"] == [
            p for p in result.points if p.policy == "LDF"
        ]

    def test_registered_policies_warn_nothing(self, tmp_path, recwarn):
        kw = dict(BASE, policies={"LDF": LDFPolicy}, num_intervals=40, seeds=(0,))
        run_sweep_fused(**kw, cache=str(tmp_path))
        assert not [w for w in recwarn if "sweep cache" in str(w.message)]


class TestFusedFaults:
    """FaultPolicy on the fused engine: a fused group fails as a unit."""

    def kwargs(self, **overrides):
        return {
            **BASE,
            **dict(num_intervals=60, seeds=(0, 1)),
            **overrides,
        }

    def test_faults_enabled_changes_no_values(self):
        """With no fault firing, the faults path (sequential groups, no
        lockstep sharing) must be bit-identical to the default path."""
        from repro.experiments.faults import FaultPolicy

        kw = self.kwargs(policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy})
        plain = run_sweep_fused(**kw)
        guarded = run_sweep_fused(
            **kw, faults=FaultPolicy(backoff_base=0.0)
        )
        for label in ("LDF", "DB-DP"):
            np.testing.assert_array_equal(
                plain.series(label), guarded.series(label)
            )

    def test_transient_fault_heals(self, monkeypatch):
        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        kw = self.kwargs(policies={"LDF": LDFPolicy})
        clean = run_sweep_fused(**kw)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:*:1")
        result = run_sweep_fused(
            **kw, faults=FaultPolicy(retries=1, backoff_base=0.0)
        )
        np.testing.assert_array_equal(
            result.series("LDF"), clean.series("LDF")
        )
        assert result.failures is None

    def test_permanent_best_effort_nans_the_whole_group(self, monkeypatch):
        """LDF's fused group shares one simulator, so a permanent fault
        in it loses every LDF cell; DB-DP's group is untouched."""
        import math

        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        kw = self.kwargs(policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy})
        clean = run_sweep_fused(**kw)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF")
        result = run_sweep_fused(
            **kw,
            faults=FaultPolicy(
                retries=0, backoff_base=0.0, mode="best_effort"
            ),
        )
        assert all(math.isnan(x) for x in result.series("LDF"))
        np.testing.assert_array_equal(
            result.series("DB-DP"), clean.series("DB-DP")
        )
        assert sorted(result.failures.cells) == [
            (0.45, "LDF"), (0.6, "LDF"),
        ]

    def test_permanent_strict_raises_naming_a_cell(self, monkeypatch):
        from repro.experiments.faults import (
            ENV_FAULT_INJECT,
            FaultPolicy,
            SweepCellError,
        )

        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF")
        with pytest.raises(SweepCellError) as err:
            run_sweep_fused(
                **self.kwargs(policies={"LDF": LDFPolicy}),
                faults=FaultPolicy(retries=0, backoff_base=0.0),
            )
        assert err.value.policy == "LDF"

    def test_fallback_cells_fail_individually(self, monkeypatch):
        """Scalar-only policies run per cell even under faults, so only
        the targeted (value, policy) cell fails — not a whole group."""
        import math

        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        kw = self.kwargs(policies={"FrameCSMA": FrameCSMAPolicy})
        clean = run_sweep_fused(**kw)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:FrameCSMA:0.45")
        result = run_sweep_fused(
            **kw,
            faults=FaultPolicy(
                retries=0, backoff_base=0.0, mode="best_effort"
            ),
        )
        bad, good = result.series("FrameCSMA")
        assert math.isnan(bad)
        assert good == clean.series("FrameCSMA")[1]
        assert result.failures.cells == [(0.45, "FrameCSMA")]

    @pytest.mark.filterwarnings("ignore:topology= is ignored")
    @pytest.mark.parametrize("topology", [None, "cells"])
    def test_strict_failure_keeps_every_finished_cell(
        self, monkeypatch, tmp_path, topology
    ):
        """Each cell is checkpointed as it settles: a strict failure in
        the last fallback cell leaves the other five in the cache, and a
        rerun serves them warm."""
        from repro.experiments.cache import SweepCache
        from repro.experiments.faults import (
            ENV_FAULT_INJECT,
            FaultPolicy,
            SweepCellError,
        )
        from repro.topology import grid_cells

        kw = self.kwargs(
            values=[0.3, 0.45, 0.6],
            policies={"DB-DP": DBDPPolicy, "FrameCSMA": FrameCSMAPolicy},
            topology=(
                None if topology is None
                else lambda spec: grid_cells(spec.num_links, 2)
            ),
        )
        cache = SweepCache(tmp_path)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:FrameCSMA:0.6")
        with pytest.raises(SweepCellError) as err:
            run_sweep_fused(
                **kw, cache=cache,
                faults=FaultPolicy(retries=0, backoff_base=0.0),
            )
        assert (err.value.value, err.value.policy) == (0.6, "FrameCSMA")
        assert cache.stores == 5
        monkeypatch.delenv(ENV_FAULT_INJECT)
        resumed = run_sweep_fused(**kw, cache=cache)
        assert cache.hits == 5
        assert resumed.points == run_sweep_fused(**kw).points

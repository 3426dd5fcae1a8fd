"""Tests for the sweep runner."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro import (
    BernoulliChannel,
    ConstantArrivals,
    DBDPPolicy,
    FrameCSMAPolicy,
    LDFPolicy,
    NetworkSpec,
    StaticPriorityPolicy,
    video_timing,
)
from repro.core.policies import IntervalMac, IntervalOutcome
from repro.experiments import grid
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.faults import FaultPolicy
from repro.experiments.runner import run_single, run_sweep
from repro.phy.channel import channel_from_spec
from repro.topology import grid_cells
from repro.traffic.arrivals import arrivals_from_spec


def tiny_builder(alpha):
    return video_symmetric_spec(alpha, num_links=4)


class TestRunSingle:
    def test_seed_averaging(self):
        spec = tiny_builder(0.5)
        point = run_single(spec, LDFPolicy, 100, seeds=(0, 1, 2))
        assert point.total_deficiency >= 0.0
        assert point.deficiency_std >= 0.0
        assert point.policy == "LDF"

    def test_group_deficiency(self):
        spec = tiny_builder(0.5)
        point = run_single(
            spec, LDFPolicy, 100, seeds=(0,), groups=(0, 0, 1, 1)
        )
        assert point.group_deficiency is not None
        assert len(point.group_deficiency) == 2


class TestBatchEngine:
    def test_batch_point_statistics_match_scalar(self):
        spec = tiny_builder(0.6)
        seeds = tuple(range(10))
        scalar = run_single(spec, DBDPPolicy, 400, seeds=seeds)
        batch = run_single(spec, DBDPPolicy, 400, seeds=seeds, engine="batch")
        assert batch.policy == scalar.policy
        assert batch.total_deficiency == pytest.approx(
            scalar.total_deficiency, abs=0.25
        )
        assert batch.deficiency_std >= 0.0

    def test_batch_group_deficiency(self):
        spec = tiny_builder(0.5)
        point = run_single(
            spec, LDFPolicy, 100, seeds=(0, 1), groups=(0, 0, 1, 1),
            engine="batch",
        )
        assert point.group_deficiency is not None
        assert len(point.group_deficiency) == 2

    def test_unsupported_policy_falls_back_to_scalar(self):
        """FrameCSMA has no batch kernel: engine='batch' must silently run
        the scalar path and reproduce it exactly (same seeds, same draws)."""
        spec = tiny_builder(0.5)
        scalar = run_single(spec, FrameCSMAPolicy, 80, seeds=(0, 1))
        fallback = run_single(
            spec, FrameCSMAPolicy, 80, seeds=(0, 1), engine="batch"
        )
        # (parameter is NaN in both, so compare the measured fields)
        assert fallback.policy == scalar.policy
        assert fallback.total_deficiency == scalar.total_deficiency
        assert fallback.deficiency_std == scalar.deficiency_std
        assert fallback.collisions == scalar.collisions
        assert fallback.mean_overhead_us == scalar.mean_overhead_us

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_single(tiny_builder(0.5), LDFPolicy, 10, seeds=(0,), engine="gpu")

    def test_sweep_accepts_engine(self):
        sweep = run_sweep(
            "alpha",
            [0.4, 0.7],
            tiny_builder,
            {"LDF": LDFPolicy},
            num_intervals=60,
            seeds=(0, 1),
            engine="fused",
        )
        assert len(sweep.points) == 2
        assert all(p.total_deficiency >= 0.0 for p in sweep.points)


class TestRunSweep:
    def test_structure(self):
        sweep = run_sweep(
            "alpha",
            [0.3, 0.6],
            tiny_builder,
            {"LDF": LDFPolicy, "Static": StaticPriorityPolicy},
            num_intervals=80,
            seeds=(0,),
        )
        assert sweep.values == [0.3, 0.6]
        assert sweep.policies == ["LDF", "Static"]
        assert len(sweep.points) == 4
        assert len(sweep.series("LDF")) == 2

    def test_deficiency_monotone_in_load_for_ldf(self):
        """Sanity: higher load cannot decrease deficiency much."""
        sweep = run_sweep(
            "alpha",
            [0.3, 0.95],
            tiny_builder,
            {"LDF": LDFPolicy},
            num_intervals=400,
            seeds=(0,),
        )
        series = sweep.series("LDF")
        assert series[1] >= series[0] - 0.05

    def test_group_series(self):
        sweep = run_sweep(
            "alpha",
            [0.5],
            tiny_builder,
            {"LDF": LDFPolicy},
            num_intervals=50,
            seeds=(0,),
            groups=(0, 1, 1, 1),
        )
        assert len(sweep.group_series("LDF", 0)) == 1
        assert len(sweep.group_series("LDF", 1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep("x", [1.0], tiny_builder, {"LDF": LDFPolicy}, 0)
        with pytest.raises(ValueError):
            run_sweep(
                "x", [1.0], tiny_builder, {"LDF": LDFPolicy}, 10, seeds=()
            )


class TestSeriesErrors:
    """`series`/`group_series` must fail loudly, naming what's missing."""

    def _sweep(self, **kw):
        return run_sweep(
            "alpha", [0.4, 0.6], tiny_builder, {"LDF": LDFPolicy},
            num_intervals=40, seeds=(0,), **kw,
        )

    def test_unknown_policy_names_policy_and_values(self):
        sweep = self._sweep()
        with pytest.raises(KeyError) as exc:
            sweep.series("DB-DP")
        message = str(exc.value)
        assert "DB-DP" in message
        assert "0.4" in message and "0.6" in message
        assert "LDF" in message  # lists the policies that are present

    def test_partial_coverage_names_missing_values_only(self):
        sweep = self._sweep()
        del sweep.points[1]  # drop the 0.6 cell
        with pytest.raises(KeyError) as exc:
            sweep.series("LDF")
        message = str(exc.value)
        assert "0.6" in message and "0.4" not in message

    def test_group_series_without_group_data_raises(self):
        sweep = self._sweep()  # no groups recorded
        with pytest.raises(KeyError, match="LDF"):
            sweep.group_series("LDF", 0)


class TestRunSweepCacheAndFaults:
    """Checkpoint/resume and the FaultPolicy path on the sequential runner."""

    def kwargs(self, **overrides):
        return {
            **dict(
                parameter_name="alpha",
                values=[0.4, 0.6],
                spec_builder=tiny_builder,
                policies={"LDF": LDFPolicy},
                num_intervals=40,
                seeds=(0, 1),
            ),
            **overrides,
        }

    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        from repro.experiments.cache import SweepCache

        cache = SweepCache(tmp_path)
        cold = run_sweep(cache=cache, **self.kwargs())
        assert cache.stores == 2 and cache.hits == 0
        warm = run_sweep(cache=cache, **self.kwargs())
        assert cache.hits == 2
        assert warm.points == cold.points

    def test_transient_fault_heals(self, monkeypatch):
        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        clean = run_sweep(**self.kwargs())
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.4:1")
        result = run_sweep(
            faults=FaultPolicy(retries=1, backoff_base=0.0), **self.kwargs()
        )
        np.testing.assert_array_equal(
            result.series("LDF"), clean.series("LDF")
        )
        assert result.failures is None

    def test_permanent_strict_raises_naming_cell(self, monkeypatch):
        from repro.experiments.faults import (
            ENV_FAULT_INJECT,
            FaultPolicy,
            SweepCellError,
        )

        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.6")
        with pytest.raises(SweepCellError) as err:
            run_sweep(
                faults=FaultPolicy(retries=0, backoff_base=0.0),
                **self.kwargs(),
            )
        assert (err.value.value, err.value.policy) == (0.6, "LDF")

    def test_permanent_best_effort_yields_nan_and_report(self, monkeypatch):
        import math

        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.6")
        result = run_sweep(
            faults=FaultPolicy(
                retries=0, backoff_base=0.0, mode="best_effort"
            ),
            **self.kwargs(),
        )
        good, bad = result.series("LDF")
        assert not math.isnan(good) and math.isnan(bad)
        assert result.failures.cells == [(0.6, "LDF")]

    def test_failed_cells_are_not_checkpointed(self, tmp_path, monkeypatch):
        """A NaN best-effort point must never be stored: once the fault
        clears, the cell recomputes instead of hitting a poisoned entry."""
        from repro.experiments.cache import SweepCache
        from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy

        cache = SweepCache(tmp_path)
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:LDF:0.6")
        run_sweep(
            cache=cache,
            faults=FaultPolicy(
                retries=0, backoff_base=0.0, mode="best_effort"
            ),
            **self.kwargs(),
        )
        assert cache.stores == 1  # only the healthy cell
        monkeypatch.delenv(ENV_FAULT_INJECT)
        healed = run_sweep(cache=cache, **self.kwargs())
        assert healed.failures is None
        assert cache.stores == 2 and cache.hits == 1
        reference = run_sweep(**self.kwargs())
        assert healed.points == reference.points


def _ge_builder(alpha):
    spec = tiny_builder(alpha)
    channel = channel_from_spec("ge:0.1:0.3", spec.num_links)
    return dataclasses.replace(spec, channel=channel)


def _mmpp_builder(alpha):
    spec = tiny_builder(alpha)
    return NetworkSpec.from_delivery_ratios(
        arrivals=arrivals_from_spec("mmpp:0.7:0.1", spec.num_links),
        channel=spec.channel,
        timing=spec.timing,
        delivery_ratios=spec.delivery_ratios,
    )


def _two_cells(spec):
    return grid_cells(spec.num_links, 2)


class _Unregistered(IntervalMac):
    """No registered ancestor: simulable, but its cells are uncacheable."""

    name = "mystery"

    def run_interval(self, k, arrivals, positive_debts, rng):
        n = self.spec.num_links
        return IntervalOutcome(
            deliveries=np.zeros(n, dtype=np.int64),
            attempts=np.zeros(n, dtype=np.int64),
            busy_time_us=0.0,
            overhead_time_us=0.0,
            collisions=0,
            priorities=tuple(range(1, n + 1)),
        )


_LOCKSTEP = (
    "{} state cannot evolve under a lockstep batch draw discipline; these "
    "cells fall back to the scalar engine: DB-DP, LDF.  Pass rng='free' "
    "to keep them vectorized (statistically equivalent)"
)

#: Each degrade path: the sweep that hits it on both of its values, and
#: the one advisory that sweep must emit.
DEGRADES = {
    "topology": (
        dict(policies=["DB-DP", "FrameCSMA"], topology=_two_cells),
        "topology= is ignored for policy families without a batch "
        "kernel: FrameCSMA; those cells run single-domain exactly as they "
        "would without a topology",
    ),
    "free-rng": (
        dict(policies=["LDF", "FrameCSMA"], rng="free"),
        "rng='free' is ignored for policy families without a batch "
        "kernel: FrameCSMA; those cells run exactly as they would under "
        "the default draw discipline",
    ),
    "ge-channel": (
        dict(policies=["DB-DP", "LDF"], spec_builder=_ge_builder),
        _LOCKSTEP.format("GilbertElliottChannel"),
    ),
    "mmpp-arrivals": (
        dict(policies=["DB-DP", "LDF"], spec_builder=_mmpp_builder),
        _LOCKSTEP.format("MarkovModulatedArrivals"),
    ),
    "uncacheable": (
        dict(policies={"mystery": _Unregistered, "LDF": LDFPolicy}),
        "skipping the sweep cache for ['mystery']: the policy is not "
        "registered (or its spec/config cannot be fingerprinted), so "
        "these cells run uncached every time; register a "
        "PolicyDescriptor with repro.core.registry to make them cacheable",
    ),
}


def _sweep_engine(engine, monkeypatch):
    """The sweep engine for a test's ``engine`` parameter.  ``"batch"``
    is the fused engine with fusing turned off: every cell runs on the
    per-cell batch runner, the fused engine's fallback."""
    if engine == "batch":
        monkeypatch.setattr(grid, "_build_fused_sim", lambda *a, **k: None)
    return "fused"


@pytest.mark.parametrize("engine", ["batch", "fused"])
@pytest.mark.parametrize("kind", sorted(DEGRADES))
def test_each_degrade_is_announced_once_per_sweep(
    kind, engine, tmp_path, monkeypatch
):
    options, advisory = DEGRADES[kind]
    kwargs = dict(
        parameter_name="alpha",
        values=(0.5, 0.6),
        spec_builder=tiny_builder,
        num_intervals=20,
        seeds=(0, 1),
        engine=_sweep_engine(engine, monkeypatch),
        cache=str(tmp_path),
    )
    kwargs.update(options)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(**kwargs)
    emitted = [str(w.message) for w in caught if w.category is UserWarning]
    assert emitted == [advisory]


#: Topology sweeps whose draw state the topology engine cannot run: the
#: model each refusal must name, and whether rng='free' is its fix.
TOPOLOGY_REFUSALS = {
    "ge-batch": (_ge_builder, None, "GilbertElliottChannel", True),
    "mmpp-batch": (_mmpp_builder, None, "MarkovModulatedArrivals", False),
    "mmpp-free": (_mmpp_builder, "free", "MarkovModulatedArrivals", False),
}


@pytest.mark.parametrize("best_effort", [False, True])
@pytest.mark.parametrize("engine", ["batch", "fused"])
@pytest.mark.parametrize("case", sorted(TOPOLOGY_REFUSALS))
def test_refused_topology_draw_state_fails_before_any_cell(
    case, engine, best_effort, tmp_path, monkeypatch
):
    """The topology engine has no fallback, so planning refuses the whole
    sweep with one TypeError: no cell runs (FrameCSMA's degraded cells
    come first and would be cached), best-effort does not NaN-fill it,
    and the advice never names the single-domain scalar engine."""
    builder, rng, model, advises_free = TOPOLOGY_REFUSALS[case]
    faults = (
        FaultPolicy(retries=0, backoff_base=0.0, mode="best_effort")
        if best_effort
        else None
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(TypeError, match=model) as raised:
            run_sweep(
                "alpha", (0.5, 0.6), builder, ["FrameCSMA", "DB-DP"], 20,
                seeds=(0, 1), engine=_sweep_engine(engine, monkeypatch),
                rng=rng, topology=_two_cells,
                cache=str(tmp_path), faults=faults,
            )
    message = str(raised.value)
    assert ("rng='free'" in message) == advises_free
    assert "scalar" not in message
    assert not any(tmp_path.rglob("*.json"))


def _mixed_a_max_builder(alpha):
    """Two cells of ``_two_cells`` whose arrivals slice to A_max 1 and 2."""
    return NetworkSpec(
        arrivals=ConstantArrivals((1, 1, 2, 2)),
        channel=BernoulliChannel.symmetric(4, 0.8),
        timing=video_timing(),
        requirements=(0.5,) * 4,
    )


@pytest.mark.parametrize("best_effort", [False, True])
@pytest.mark.parametrize("engine", ["batch", "fused"])
def test_mixed_a_max_topology_fails_before_any_cell(
    engine, best_effort, tmp_path, monkeypatch
):
    """Cells that slice to different arrival maxima cannot share packed
    draws: planning refuses the sweep with the engine's own message before
    FrameCSMA's degraded cells run and are cached, and best-effort does
    not NaN-fill it."""
    faults = (
        FaultPolicy(retries=0, backoff_base=0.0, mode="best_effort")
        if best_effort
        else None
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(TypeError) as raised:
            run_sweep(
                "alpha", (0.5,), _mixed_a_max_builder, ["FrameCSMA", "DB-DP"],
                10, engine=_sweep_engine(engine, monkeypatch),
                topology=_two_cells, cache=str(tmp_path),
                faults=faults,
            )
    assert str(raised.value) == (
        "cells must share one A_max for packed draws: got [1, 2]"
    )
    assert not any(tmp_path.rglob("*.json"))

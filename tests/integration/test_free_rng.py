"""The ``rng="free"`` draw discipline: determinism, equivalence, fallback.

The free discipline's contract is *statistical* equivalence with the
default lockstep-batch discipline — kernels draw only what they consume
from independently derived per-(seed, stream) substreams, so bit
identity is explicitly NOT promised.  What is promised, and asserted
here:

* determinism: free draws are a pure function of (seeds, stream tag,
  stream name) — the same sweep run twice is bit-identical;
* distinctness: free draws differ from the batch discipline's (same
  seeds), and the two disciplines' per-cell means agree within the same
  joint confidence bound used by ``test_fused_statistical.py``;
* fallback: families without a batch kernel (FrameCSMA) run ``rng="free"``
  cells exactly as default ones, with exactly one ``UserWarning`` per
  sweep (and raise ``TypeError`` when handed to the batch simulator
  directly);
* mode hygiene: unknown modes are rejected, and ``rng="free"`` is
  meaningless on the scalar engine.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import (
    DBDPPolicy,
    DCFPolicy,
    FCSMAPolicy,
    FrameCSMAPolicy,
    LDFPolicy,
    run_simulation_batch,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import run_single, run_sweep
from repro.sim.batch_sim import BatchIntervalSimulator, supports_batch_engine
from repro.sim.rng import RNG_MODES, normalize_rng_mode

SEEDS = tuple(range(24))
INTERVALS = 400
VALUES = (0.5, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
#: The equivalence checks also cover the contention-round kernel.
EQUIVALENCE_POLICIES = {**POLICIES, "FCSMA": FCSMAPolicy, "DCF": DCFPolicy}


def builder(alpha):
    return video_symmetric_spec(alpha, num_links=6)


def _totals(result):
    return [p.total_deficiency for p in result.points]


class TestNormalizeRngMode:
    def test_defaults(self):
        assert normalize_rng_mode() == "batch"
        assert RNG_MODES == ("sync", "batch", "free")

    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_explicit_modes_pass_through(self, mode):
        assert normalize_rng_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rng mode"):
            normalize_rng_mode("quantum")


class TestFreeModeGuards:
    def test_scalar_engine_rejected(self):
        with pytest.raises(ValueError, match="engine='batch' or 'fused'"):
            run_single(
                builder(0.5), DBDPPolicy, 10, (0,), engine="scalar",
                rng="free",
            )
        with pytest.raises(ValueError, match="engine='batch' or 'fused'"):
            run_sweep(
                "alpha", [0.5], builder, {"DB-DP": DBDPPolicy}, 10, (0,),
                engine="scalar", rng="free",
            )


class TestFreeDeterminismAndDistinctness:
    @pytest.mark.parametrize("factory", [DBDPPolicy, LDFPolicy],
                             ids=lambda f: f.__name__)
    def test_direct_batch_free_is_deterministic(self, factory):
        spec = builder(0.55)
        a = run_simulation_batch(spec, factory(), 200, (0, 1, 2), rng="free")
        b = run_simulation_batch(spec, factory(), 200, (0, 1, 2), rng="free")
        assert (a.deliveries == b.deliveries).all()
        assert (a.attempts == b.attempts).all()
        assert (a.collisions == b.collisions).all()

    def test_direct_batch_free_differs_from_batch(self):
        spec = builder(0.55)
        free = run_simulation_batch(spec, DBDPPolicy(), 200, (0, 1), rng="free")
        batch = run_simulation_batch(spec, DBDPPolicy(), 200, (0, 1))
        assert (free.deliveries != batch.deliveries).any()

    def test_fused_free_sweep_is_deterministic(self):
        kw = dict(num_intervals=150, seeds=(0, 1, 2), rng="free")
        a = run_sweep_fused("alpha", VALUES, builder, POLICIES, **kw)
        b = run_sweep_fused("alpha", VALUES, builder, POLICIES, **kw)
        assert a.points == b.points


class TestFreeStatisticalEquivalence:
    """Free vs batch disciplines, same harness as test_fused_statistical."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        kw = dict(
            parameter_name="alpha",
            values=VALUES,
            spec_builder=builder,
            policies=EQUIVALENCE_POLICIES,
            num_intervals=INTERVALS,
            seeds=SEEDS,
        )
        free = run_sweep_fused(**kw, rng="free")
        batch = run_sweep_fused(**kw)
        return free, batch

    @staticmethod
    def _cell(result, policy, value):
        (point,) = [
            p for p in result.points
            if p.policy == policy and p.parameter == value
        ]
        return point

    @pytest.mark.parametrize("policy", sorted(EQUIVALENCE_POLICIES))
    @pytest.mark.parametrize("value", VALUES)
    def test_means_within_joint_confidence_bound(self, sweeps, policy, value):
        free, batch = sweeps
        f = self._cell(free, policy, value)
        b = self._cell(batch, policy, value)
        n = len(SEEDS)
        se = math.sqrt(
            (f.deficiency_std**2 + b.deficiency_std**2) / max(n - 1, 1)
        )
        tol = 3.0 * se + 0.02
        assert abs(f.total_deficiency - b.total_deficiency) <= tol, (
            f"{policy}@{value}: free {f.total_deficiency:.4f} vs batch "
            f"{b.total_deficiency:.4f} (tol {tol:.4f})"
        )

    def test_collisions_and_overhead_track(self, sweeps):
        free, batch = sweeps
        for policy in EQUIVALENCE_POLICIES:
            for value in VALUES:
                f = self._cell(free, policy, value)
                b = self._cell(batch, policy, value)
                assert abs(f.collisions - b.collisions) <= max(
                    5.0, 0.25 * max(f.collisions, b.collisions)
                )
                assert abs(f.mean_overhead_us - b.mean_overhead_us) <= max(
                    5.0, 0.25 * max(f.mean_overhead_us, b.mean_overhead_us)
                )


class TestCapabilityFallback:
    """FrameCSMA names no batch kernel, so ``rng="free"`` cannot apply to
    it."""

    def test_supports_batch_engine_refuses_free(self):
        spec = builder(0.5)
        assert supports_batch_engine(spec, DBDPPolicy(), rng="free")
        assert not supports_batch_engine(spec, FrameCSMAPolicy(), rng="free")

    def test_direct_simulator_raises_type_error(self):
        spec = builder(0.5)
        with pytest.raises(TypeError, match="no batch kernel"):
            BatchIntervalSimulator([spec] * 2, FrameCSMAPolicy(), [0, 1],
                                   rng="free")

    def test_fused_sweep_degrades_with_one_warning(self):
        kw = dict(num_intervals=80, seeds=(0, 1))
        policies = {"DB-DP": DBDPPolicy, "FrameCSMA": FrameCSMAPolicy}
        advice = "rng='free' is ignored"
        with pytest.warns(UserWarning, match=advice) as record:
            free = run_sweep_fused(
                "alpha", VALUES, builder, policies, rng="free", **kw
            )
        assert len([w for w in record if advice in str(w.message)]) == 1
        batch = run_sweep_fused("alpha", VALUES, builder, policies, **kw)
        # Degraded cells run exactly as default ones: bit-identical to a
        # plain sweep.  Batchable cells run genuinely free.
        for f, b in zip(free.points, batch.points):
            if f.policy == "FrameCSMA":
                assert f == b
        assert _totals(free) != _totals(batch)

    def test_run_single_degrades_silently(self):
        spec = builder(0.5)
        free = run_single(spec, FrameCSMAPolicy, 100, (0, 1), engine="batch",
                          rng="free")
        batch = run_single(spec, FrameCSMAPolicy, 100, (0, 1), engine="batch")
        # run_single leaves parameter=NaN (filled by run_sweep); pin it
        # so dataclass equality compares the measurements.
        assert dataclasses.replace(free, parameter=0.0) == dataclasses.replace(
            batch, parameter=0.0
        )

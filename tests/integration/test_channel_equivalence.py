"""Cross-engine equivalence for stateful and time-varying channels.

Two layers of guarantees, mirroring the Bernoulli ones:

* Gilbert-Elliott under the fused engine with ``rng="free"`` is a
  *fresh sample* of the same estimator as the scalar engine — per-cell
  means must agree within a joint 3-sigma confidence bound (same
  pattern as ``test_fused_statistical.py``).
* ``rng="sync"`` drives scalar clones from per-seed streams, so the
  batch engine is *bit-identical* to the scalar engine even with
  Markov channel state; the deterministic ``TimeVaryingReliability``
  schedule is additionally exact under the lockstep disciplines.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import (
    BatchIntervalSimulator,
    DBDPPolicy,
    GilbertElliottChannel,
    LDFPolicy,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.runner import run_sweep
from repro.phy.channel import TimeVaryingReliability
from repro.sim.interval_sim import run_simulation

SEEDS = tuple(range(24))
INTERVALS = 400
VALUES = (0.55, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
NUM_LINKS = 6


def _ge_builder(alpha):
    spec = video_symmetric_spec(alpha, num_links=NUM_LINKS)
    return dataclasses.replace(spec, channel=GilbertElliottChannel(NUM_LINKS))


def _tv_builder(alpha):
    spec = video_symmetric_spec(alpha, num_links=NUM_LINKS)
    channel = TimeVaryingReliability.symmetric(
        NUM_LINKS, 0.8, profile="drift", period=60, amplitude=0.15
    )
    return dataclasses.replace(spec, channel=channel)


def _cell(result, policy, value):
    (point,) = [
        p for p in result.points if p.policy == policy and p.parameter == value
    ]
    return point


def _assert_joint_ci(f, b, policy, value, label_a, label_b):
    n = len(SEEDS)
    se = math.sqrt(
        (f.deficiency_std**2 + b.deficiency_std**2) / max(n - 1, 1)
    )
    tol = 3.0 * se + 0.02
    assert abs(f.total_deficiency - b.total_deficiency) <= tol, (
        f"{policy}@{value}: {label_a} {f.total_deficiency:.4f} vs "
        f"{label_b} {b.total_deficiency:.4f} (tol {tol:.4f})"
    )


@pytest.fixture(scope="module")
def ge_sweeps():
    kw = dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=_ge_builder,
        policies=POLICIES,
        num_intervals=INTERVALS,
        seeds=SEEDS,
    )
    fused = run_sweep(**kw, engine="fused", rng="free")
    scalar = run_sweep(**kw, engine="scalar")
    return fused, scalar


class TestGilbertElliottStatistical:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("value", VALUES)
    def test_fused_free_matches_scalar_mean(self, ge_sweeps, policy, value):
        fused, scalar = ge_sweeps
        _assert_joint_ci(
            _cell(fused, policy, value),
            _cell(scalar, policy, value),
            policy,
            value,
            "fused-free",
            "scalar",
        )

    def test_burst_channel_hurts_versus_stationary_bernoulli(self, ge_sweeps):
        """Sanity anchor: the Gilbert-Elliott scalar cells must not be a
        silent Bernoulli replay — bursty losses at equal stationary
        reliability leave a distinct (here: non-trivial) deficiency."""
        _, scalar = ge_sweeps
        assert _cell(scalar, "LDF", VALUES[1]).total_deficiency > 0.0


class TestGilbertElliottSyncIdentity:
    @pytest.mark.parametrize("factory", [LDFPolicy, DBDPPolicy])
    def test_sync_batch_bit_identical_to_scalar(self, factory):
        """Exact per-interval identity where defined: ``rng="sync"``
        replays the scalar per-seed streams, Markov state included."""
        spec = _ge_builder(0.6)
        seeds = (0, 1, 2)
        sim = BatchIntervalSimulator(spec, factory(), seeds, rng="sync")
        sim.run(150)
        batch = sim.result
        for s, seed in enumerate(seeds):
            scalar = run_simulation(spec, factory(), 150, seed=seed)
            np.testing.assert_array_equal(
                batch.deliveries[:, s], scalar.deliveries
            )
            np.testing.assert_array_equal(
                batch.arrivals[:, s], scalar.arrivals
            )
            np.testing.assert_array_equal(
                batch.attempts[:, s], scalar.attempts
            )


class TestTimeVaryingReliability:
    def test_lockstep_batch_matches_scalar_mean(self):
        """The deterministic schedule consumes no state randomness, so it
        runs under the *default* lockstep discipline; means must agree
        with the scalar engine within the joint confidence bound."""
        kw = dict(
            parameter_name="alpha",
            values=(VALUES[0],),
            spec_builder=_tv_builder,
            policies=POLICIES,
            num_intervals=INTERVALS,
            seeds=SEEDS,
        )
        fused = run_sweep(**kw, engine="fused")
        scalar = run_sweep(**kw, engine="scalar")
        for policy in POLICIES:
            _assert_joint_ci(
                _cell(fused, policy, VALUES[0]),
                _cell(scalar, policy, VALUES[0]),
                policy,
                VALUES[0],
                "fused-lockstep",
                "scalar",
            )

    def test_sync_batch_bit_identical_to_scalar(self):
        spec = _tv_builder(0.6)
        seeds = (0, 1)
        sim = BatchIntervalSimulator(spec, LDFPolicy(), seeds, rng="sync")
        sim.run(130)  # > 2 periods: exercises the schedule wrap
        batch = sim.result
        for s, seed in enumerate(seeds):
            scalar = run_simulation(spec, LDFPolicy(), 130, seed=seed)
            np.testing.assert_array_equal(
                batch.deliveries[:, s], scalar.deliveries
            )
            np.testing.assert_array_equal(
                batch.attempts[:, s], scalar.attempts
            )

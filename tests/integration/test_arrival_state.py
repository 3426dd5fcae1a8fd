"""Cross-engine equivalence and state hygiene for stateful arrivals.

Mirrors ``test_channel_equivalence.py`` for the traffic plane:

* **State-leak regression** — a :class:`MarkovModulatedArrivals`
  instance shared across consecutive runs must produce bit-identical
  results for the same seed: every engine resets arrival state at
  construction instead of resuming the previous run's chain.
* **Statistical equivalence** — MMPP and Pareto-burst traffic under the
  fused engine with ``rng="free"`` is a *fresh sample* of the same
  estimator as the scalar engine; per-cell means must agree within a
  joint 3-sigma confidence bound.
* **Sync identity** — ``rng="sync"`` is bit-identical to the scalar
  engine, Markov/renewal arrival state included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BatchIntervalSimulator,
    BernoulliChannel,
    DBDPPolicy,
    LDFPolicy,
    NetworkSpec,
    idealized_timing,
)
from repro.experiments.runner import run_single, run_sweep
from repro.sim.interval_sim import run_simulation
from repro.traffic.arrivals import MarkovModulatedArrivals, ParetoBurstArrivals

SEEDS = tuple(range(24))
INTERVALS = 400
RATIOS = (0.7, 0.8)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
NUM_LINKS = 6


def _mmpp_arrivals():
    return MarkovModulatedArrivals(
        NUM_LINKS, 0.7, 0.1, 0.8, 0.85, initial_state="stationary"
    )


def _pareto_arrivals():
    return ParetoBurstArrivals(NUM_LINKS, start_prob=0.2, tail=1.5, dur_max=32)


def _mmpp_builder(ratio):
    return NetworkSpec.from_delivery_ratios(
        arrivals=_mmpp_arrivals(),
        channel=BernoulliChannel.symmetric(NUM_LINKS, 0.8),
        timing=idealized_timing(NUM_LINKS),
        delivery_ratios=ratio,
    )


def _pareto_builder(ratio):
    return NetworkSpec.from_delivery_ratios(
        arrivals=_pareto_arrivals(),
        channel=BernoulliChannel.symmetric(NUM_LINKS, 0.8),
        timing=idealized_timing(NUM_LINKS),
        delivery_ratios=ratio,
    )


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


class TestArrivalStateLeak:
    """Satellite regression: no state may leak between runs."""

    def test_consecutive_scalar_runs_identical(self):
        """Two consecutive scalar runs with the same seed and a *shared*
        process instance are bit-identical."""
        spec = _mmpp_builder(0.8)  # one instance, reused below
        first = run_simulation(spec, LDFPolicy(), 200, seed=7)
        second = run_simulation(spec, LDFPolicy(), 200, seed=7)
        np.testing.assert_array_equal(first.arrivals, second.arrivals)
        np.testing.assert_array_equal(first.deliveries, second.deliveries)

    def test_consecutive_run_single_calls_identical(self):
        spec = _mmpp_builder(0.8)
        first = run_single(spec, LDFPolicy, 150, seeds=(3, 4))
        second = run_single(spec, LDFPolicy, 150, seeds=(3, 4))
        assert first.total_deficiency == second.total_deficiency
        assert first.deficiency_std == second.deficiency_std
        assert first.collisions == second.collisions

    def test_pareto_runs_do_not_leak_residual_bursts(self):
        spec = _pareto_builder(0.8)
        first = run_simulation(spec, LDFPolicy(), 200, seed=11)
        second = run_simulation(spec, LDFPolicy(), 200, seed=11)
        np.testing.assert_array_equal(first.arrivals, second.arrivals)

    def test_batch_free_runs_identical(self):
        spec = _mmpp_builder(0.8)
        sims = []
        for _ in range(2):
            sim = BatchIntervalSimulator(
                spec, LDFPolicy(), (0, 1, 2), rng="free"
            )
            sim.run(80)
            sims.append(sim.result)
        np.testing.assert_array_equal(
            sims[0].deliveries, sims[1].deliveries
        )


@pytest.fixture(scope="module")
def mmpp_sweeps():
    kw = dict(
        parameter_name="ratio",
        values=RATIOS,
        spec_builder=_mmpp_builder,
        policies=POLICIES,
        num_intervals=INTERVALS,
        seeds=SEEDS,
    )
    fused = run_sweep(**kw, engine="fused", rng="free")
    scalar = run_sweep(**kw, engine="scalar")
    return fused, scalar


class TestMarkovModulatedStatistical:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("value", RATIOS)
    def test_fused_free_matches_scalar_mean(self, mmpp_sweeps, policy, value):
        fused, scalar = mmpp_sweeps
        _assert_joint_ci(
            _cell(fused, policy, value),
            _cell(scalar, policy, value),
            policy,
            value,
            "fused-free",
            "scalar",
        )


class TestParetoBurstStatistical:
    def test_fused_free_matches_scalar_mean(self):
        kw = dict(
            parameter_name="ratio",
            values=(RATIOS[0],),
            spec_builder=_pareto_builder,
            policies=POLICIES,
            num_intervals=INTERVALS,
            seeds=SEEDS,
        )
        fused = run_sweep(**kw, engine="fused", rng="free")
        scalar = run_sweep(**kw, engine="scalar")
        for policy in POLICIES:
            _assert_joint_ci(
                _cell(fused, policy, RATIOS[0]),
                _cell(scalar, policy, RATIOS[0]),
                policy,
                RATIOS[0],
                "fused-free",
                "scalar",
            )


class TestSyncIdentity:
    @pytest.mark.parametrize("builder", [_mmpp_builder, _pareto_builder])
    def test_sync_batch_bit_identical_to_scalar(self, builder):
        """``rng="sync"`` replays the scalar per-seed streams, arrival
        state included."""
        spec = builder(0.8)
        seeds = (0, 1, 2)
        sim = BatchIntervalSimulator(spec, LDFPolicy(), seeds, rng="sync")
        sim.run(150)
        batch = sim.result
        for s, seed in enumerate(seeds):
            scalar = run_simulation(spec, LDFPolicy(), 150, seed=seed)
            np.testing.assert_array_equal(
                batch.arrivals[:, s], scalar.arrivals
            )
            np.testing.assert_array_equal(
                batch.deliveries[:, s], scalar.deliveries
            )
            np.testing.assert_array_equal(
                batch.attempts[:, s], scalar.attempts
            )

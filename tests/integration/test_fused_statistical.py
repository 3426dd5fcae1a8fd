"""Statistical cross-engine equivalence: fused vs per-cell batch sweeps.

In the production ``rng="batch"`` mode the fused engine draws from
``"fused"``-tagged mega-batch streams, so its cells are *fresh samples* of
the same per-cell estimator rather than bit-identical replays.  This test
runs a 24-seed ensemble per cell for both engines and asserts the
per-cell means agree within a 3-sigma confidence bound derived from both
ensembles' spreads — the two estimators must be statistically
indistinguishable, per policy and per load level.

(The bit-exact ``rng="sync"`` correspondence is covered in
``tests/experiments/test_grid.py``; scalar-vs-batch agreement in
``test_batch_cross_engine.py``.)
"""

from __future__ import annotations

import math

import pytest

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from tests.experiments.per_cell import per_cell_sweep

SEEDS = tuple(range(24))
INTERVALS = 400
VALUES = (0.5, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}


def builder(alpha):
    return video_symmetric_spec(alpha, num_links=6)


@pytest.fixture(scope="module")
def sweeps():
    kw = dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=builder,
        policies=POLICIES,
        num_intervals=INTERVALS,
        seeds=SEEDS,
    )
    fused = run_sweep_fused(**kw)
    per_cell = per_cell_sweep(**kw)
    return fused, per_cell


def _cell(result, policy, value):
    (point,) = [
        p for p in result.points if p.policy == policy and p.parameter == value
    ]
    return point


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("value", VALUES)
def test_means_within_joint_confidence_bound(sweeps, policy, value):
    fused, per_cell = sweeps
    f = _cell(fused, policy, value)
    b = _cell(per_cell, policy, value)
    # Standard error of the difference of two independent 24-seed means;
    # the stored std is the population std over seeds.
    n = len(SEEDS)
    se = math.sqrt(
        (f.deficiency_std**2 + b.deficiency_std**2) / max(n - 1, 1)
    )
    tol = 3.0 * se + 0.02
    assert abs(f.total_deficiency - b.total_deficiency) <= tol, (
        f"{policy}@{value}: fused {f.total_deficiency:.4f} vs per-cell "
        f"{b.total_deficiency:.4f} (tol {tol:.4f})"
    )


def test_collisions_and_overhead_track(sweeps):
    """Secondary outputs must agree in scale, not just the headline
    deficiency (guards against an engine silently zeroing a channel)."""
    fused, per_cell = sweeps
    for policy in POLICIES:
        for value in VALUES:
            f = _cell(fused, policy, value)
            b = _cell(per_cell, policy, value)
            assert abs(f.collisions - b.collisions) <= max(
                5.0, 0.25 * max(f.collisions, b.collisions)
            )
            assert abs(f.mean_overhead_us - b.mean_overhead_us) <= max(
                5.0, 0.25 * max(f.mean_overhead_us, b.mean_overhead_us)
            )

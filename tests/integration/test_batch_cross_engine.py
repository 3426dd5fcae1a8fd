"""Cross-engine validation: scalar interval engine vs batch engine.

Two levels of agreement are asserted:

* ``rng="sync"`` — every replication consumes scalar-identical random
  streams in scalar order, so every per-interval trace must be
  **bit-identical** to ``IntervalSimulator(spec, policy, seed=s)``.
* ``rng="batch"`` (the fast production mode) — draw order differs, so
  agreement is **statistical**: deficiency and throughput on the paper's
  Fig. 3 workload must match across a seed ensemble.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DBDPPolicy,
    DCFPolicy,
    ELDFPolicy,
    FCSMAPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    run_simulation,
    run_simulation_batch,
)
from repro.experiments.configs import video_symmetric_spec

SEEDS = (0, 1, 2)
INTERVALS = 300

POLICIES = {
    "DB-DP": DBDPPolicy,
    # DCF's contention windows persist across intervals, so the horizon
    # must be long enough for that state to matter (300 intervals).
    "DCF": DCFPolicy,
    "ELDF": ELDFPolicy,
    "FCSMA": FCSMAPolicy,
    "LDF": LDFPolicy,
    "RoundRobin": RoundRobinPolicy,
    "Static": StaticPriorityPolicy,
}


@pytest.fixture(scope="module")
def spec():
    # Fig. 3-style near-capacity video load, shrunk to 6 links for speed.
    return video_symmetric_spec(0.6, num_links=6)


class TestSyncModeBitExact:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_traces_match_scalar_engine(self, spec, name):
        factory = POLICIES[name]
        batch = run_simulation_batch(
            spec, factory(), INTERVALS, SEEDS, rng="sync"
        )
        for s, seed in enumerate(SEEDS):
            scalar = run_simulation(spec, factory(), INTERVALS, seed=seed)
            np.testing.assert_array_equal(
                batch.arrivals[:, s], scalar.arrivals, err_msg=f"{name} arrivals"
            )
            np.testing.assert_array_equal(
                batch.deliveries[:, s],
                scalar.deliveries,
                err_msg=f"{name} deliveries",
            )
            np.testing.assert_array_equal(
                batch.attempts[:, s], scalar.attempts, err_msg=f"{name} attempts"
            )
            np.testing.assert_array_equal(
                batch.busy_time_us[:, s], scalar.busy_time_us
            )
            np.testing.assert_array_equal(
                batch.overhead_time_us[:, s], scalar.overhead_time_us
            )
            assert batch.total_deficiency()[s] == pytest.approx(
                scalar.total_deficiency()
            )

    def test_priority_dynamics_match_scalar_engine(self, spec):
        """The DP swap chain is the subtlest batch state; in sync mode the
        whole priority trajectory must replay the scalar one."""
        batch = run_simulation_batch(
            spec,
            DBDPPolicy(),
            INTERVALS,
            SEEDS,
            rng="sync",
            record_priorities=True,
        )
        for s, seed in enumerate(SEEDS):
            sim_priorities = run_simulation(
                spec, DBDPPolicy(), INTERVALS, seed=seed, record_priorities=True
            ).priorities
            np.testing.assert_array_equal(
                batch.priorities[:, s], np.asarray(sim_priorities)
            )


#: Families whose fast-mode runs are checked against the scalar engine:
#: the paper's three (DB-DP, LDF and the FCSMA baseline) and DCF, which
#: shares FCSMA's contention-round kernel.
STATISTICAL = ("DB-DP", "LDF", "FCSMA", "DCF")
CONTENTION = ("FCSMA", "DCF")


class TestBatchModeStatisticalAgreement:
    """Fast-mode draws differ from scalar ones, but the physics must not."""

    NUM_SEEDS = 12
    HORIZON = 1200

    @pytest.fixture(scope="class")
    def pair(self):
        spec = video_symmetric_spec(0.6, num_links=6)
        seeds = range(self.NUM_SEEDS)
        out = {}
        for name in STATISTICAL:
            factory = POLICIES[name]
            scalar = [
                run_simulation(spec, factory(), self.HORIZON, seed=s)
                for s in seeds
            ]
            batch = run_simulation_batch(
                spec, factory(), self.HORIZON, list(seeds)
            )
            out[name] = (scalar, batch)
        return out

    @pytest.mark.parametrize("name", STATISTICAL)
    def test_total_deficiency_matches(self, pair, name):
        scalar, batch = pair[name]
        scalar_mean = np.mean([r.total_deficiency() for r in scalar])
        batch_mean = batch.total_deficiency().mean()
        assert batch_mean == pytest.approx(scalar_mean, abs=0.25)

    @pytest.mark.parametrize("name", STATISTICAL)
    def test_timely_throughput_profile_matches(self, pair, name):
        scalar, batch = pair[name]
        scalar_profile = np.mean([r.timely_throughput() for r in scalar], axis=0)
        batch_profile = batch.timely_throughput().mean(axis=0)
        np.testing.assert_allclose(batch_profile, scalar_profile, atol=0.06)

    @pytest.mark.parametrize("name", STATISTICAL)
    def test_airtime_accounting_matches(self, pair, name):
        scalar, batch = pair[name]
        scalar_busy = np.mean([r.busy_time_us.mean() for r in scalar])
        batch_busy = batch.busy_time_us.mean()
        assert batch_busy == pytest.approx(scalar_busy, rel=0.05)

    @pytest.mark.parametrize("name", CONTENTION)
    def test_collisions_and_overhead_match(self, pair, name):
        scalar, batch = pair[name]
        scalar_collisions = np.mean([r.collisions.mean() for r in scalar])
        assert batch.collisions.mean() == pytest.approx(
            scalar_collisions, rel=0.05
        )
        scalar_overhead = np.mean([r.overhead_time_us.mean() for r in scalar])
        assert batch.overhead_time_us.mean() == pytest.approx(
            scalar_overhead, rel=0.05
        )
        scalar_attempts = np.mean([r.attempts.sum(axis=1).mean() for r in scalar])
        assert batch.attempts.sum(axis=2).mean() == pytest.approx(
            scalar_attempts, rel=0.05
        )

    @pytest.mark.parametrize("name", CONTENTION)
    def test_deficiency_matches_under_collision_pressure(self, name):
        """The shared workload leaves contention families without
        deficiency; on lossy links near their capacity the two engines'
        seed means must agree within a joint 3-sigma bound."""
        spec = video_symmetric_spec(0.9, num_links=6, reliability=0.3)
        seeds = list(range(8))
        factory = POLICIES[name]
        scalar = np.array([
            run_simulation(spec, factory(), 400, seed=s).total_deficiency()
            for s in seeds
        ])
        batch = run_simulation_batch(spec, factory(), 400, seeds)
        fast = batch.total_deficiency()
        assert scalar.mean() > 1.0  # the check is not vacuous
        se = np.sqrt((scalar.var() + fast.var()) / (len(seeds) - 1))
        assert abs(fast.mean() - scalar.mean()) <= 3.0 * se + 0.02

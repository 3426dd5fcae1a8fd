"""Tests for the discretized FCSMA baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BernoulliChannel,
    ConstantArrivals,
    DebtWindowMap,
    FCSMAPolicy,
    NetworkSpec,
    RngBundle,
    idealized_timing,
    run_simulation,
    video_timing,
)
from repro.traffic.arrivals import BurstyVideoArrivals


class TestDebtWindowMap:
    def test_sections(self):
        window_map = DebtWindowMap(windows=(32, 16, 8), section_width=1.0)
        assert window_map.window(0.0) == 32
        assert window_map.window(0.99) == 32
        assert window_map.window(1.0) == 16
        assert window_map.window(2.0) == 8

    def test_saturation(self):
        """The paper's criticism: beyond the last section the map is
        oblivious to further debt growth."""
        window_map = DebtWindowMap(windows=(32, 16, 8), section_width=1.0)
        assert window_map.window(2.0) == window_map.window(1000.0) == 8
        assert window_map.saturation_debt == 2.0

    def test_rejects_increasing_windows(self):
        with pytest.raises(ValueError, match="non-increasing"):
            DebtWindowMap(windows=(8, 16))

    def test_rejects_empty_or_invalid(self):
        with pytest.raises(ValueError):
            DebtWindowMap(windows=())
        with pytest.raises(ValueError):
            DebtWindowMap(windows=(4, 0))
        with pytest.raises(ValueError):
            DebtWindowMap(windows=(4,), section_width=0.0)

    def test_window_array_matches_window(self):
        """The batch kernel's vectorized map equals the scalar one."""
        window_map = DebtWindowMap(windows=(40, 20, 8, 3), section_width=0.7)
        debts = np.random.default_rng(3).uniform(0.0, 4.0, size=(4, 5))
        debts[0, :4] = (0.0, 0.7, 1.4, 2.1)  # section boundaries
        out = window_map.window_array(debts, np.empty_like(debts))
        expected = [[window_map.window(float(d)) for d in row] for row in debts]
        np.testing.assert_array_equal(out, expected)

    def test_rejects_negative_debt(self):
        with pytest.raises(ValueError):
            DebtWindowMap().window(-1.0)


def make_spec(n=6, p=0.7, alpha=0.5):
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(n, alpha),
        channel=BernoulliChannel.symmetric(n, p),
        timing=video_timing(),
        delivery_ratios=0.9,
    )


class TestFCSMAExecution:
    def test_collisions_happen(self):
        spec = make_spec(n=10, alpha=0.8)
        result = run_simulation(spec, FCSMAPolicy(), 200, seed=0)
        assert int(result.collisions.sum()) > 0

    def test_deliveries_bounded_by_arrivals(self):
        spec = make_spec()
        result = run_simulation(spec, FCSMAPolicy(), 300, seed=1)
        assert np.all(result.deliveries <= result.arrivals)

    def test_no_contenders_no_time_used(self):
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=ConstantArrivals.symmetric(3, 0),
            channel=BernoulliChannel.symmetric(3, 0.7),
            timing=video_timing(),
            delivery_ratios=0.0,
        )
        policy = FCSMAPolicy()
        policy.bind(spec)
        outcome = policy.run_interval(
            0, np.zeros(3, dtype=np.int64), np.zeros(3), RngBundle(0)
        )
        assert outcome.busy_time_us == 0.0
        assert outcome.collisions == 0

    def test_single_link_never_collides(self):
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=ConstantArrivals.symmetric(1, 2),
            channel=BernoulliChannel.symmetric(1, 1.0),
            timing=video_timing(),
            delivery_ratios=1.0,
        )
        result = run_simulation(spec, FCSMAPolicy(), 100, seed=2)
        assert int(result.collisions.sum()) == 0
        np.testing.assert_array_equal(
            result.deliveries, np.full((100, 1), 2)
        )

    def test_overhead_grows_with_network_size(self):
        small = run_simulation(make_spec(n=4), FCSMAPolicy(), 200, seed=3)
        large = run_simulation(make_spec(n=16), FCSMAPolicy(), 200, seed=3)
        small_rate = small.collisions.sum() / max(small.attempts.sum(), 1)
        large_rate = large.collisions.sum() / max(large.attempts.sum(), 1)
        assert large_rate > small_rate

    def test_indebted_link_wins_more(self):
        """Smaller window for high debt -> more wins in contention."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=ConstantArrivals.symmetric(2, 3),
            channel=BernoulliChannel.symmetric(2, 1.0),
            timing=idealized_timing(3),
            delivery_ratios=0.5,
        )
        policy = FCSMAPolicy(
            window_map=DebtWindowMap(windows=(64, 2), section_width=1.0)
        )
        policy.bind(spec)
        rng = RngBundle(4)
        wins = np.zeros(2)
        for k in range(300):
            outcome = policy.run_interval(
                k,
                np.array([3, 3]),
                np.array([0.0, 5.0]),  # link 1 deeply in debt
                rng,
            )
            wins += outcome.deliveries
        assert wins[1] > 2.0 * wins[0]

    def test_debt_oblivious_beyond_saturation(self):
        """Two links, both far above the saturation debt: equal windows,
        symmetric service despite a 10x debt difference."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=ConstantArrivals.symmetric(2, 3),
            channel=BernoulliChannel.symmetric(2, 1.0),
            timing=idealized_timing(3),
            delivery_ratios=0.5,
        )
        policy = FCSMAPolicy(
            window_map=DebtWindowMap(windows=(64, 16), section_width=1.0)
        )
        policy.bind(spec)
        rng = RngBundle(5)
        wins = np.zeros(2)
        for k in range(600):
            outcome = policy.run_interval(
                k, np.array([3, 3]), np.array([10.0, 100.0]), rng
            )
            wins += outcome.deliveries
        assert wins[1] < 1.3 * wins[0]  # no debt responsiveness left

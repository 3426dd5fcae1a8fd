"""Tests for arrival processes (Section II-B model)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    BernoulliArrivals,
    BurstyVideoArrivals,
    ConstantArrivals,
    CorrelatedBurstArrivals,
    TruncatedPoissonArrivals,
)
from repro.traffic.arrivals import (
    ArrivalProcess,
    MarkovModulatedArrivals,
    ParetoBurstArrivals,
    arrivals_from_spec,
)


def empirical_mean(process, rng, n=4000):
    return np.mean([process.sample(rng) for _ in range(n)], axis=0)


class TestBernoulliArrivals:
    def test_mean_rates(self):
        process = BernoulliArrivals(rates=(0.2, 0.9))
        np.testing.assert_allclose(process.mean_rates, [0.2, 0.9])
        assert process.max_per_link == 1

    def test_empirical_mean(self, rng):
        process = BernoulliArrivals(rates=(0.3, 0.7))
        np.testing.assert_allclose(
            empirical_mean(process, rng), [0.3, 0.7], atol=0.03
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliArrivals(rates=(1.2,))
        with pytest.raises(ValueError):
            BernoulliArrivals(rates=())


class TestBurstyVideoArrivals:
    def test_paper_mean_formula(self):
        """lambda_n = 3.5 alpha_n with the default burst_max = 6."""
        process = BurstyVideoArrivals.symmetric(3, 0.55)
        np.testing.assert_allclose(process.mean_rates, [3.5 * 0.55] * 3)

    def test_support(self, rng):
        process = BurstyVideoArrivals.symmetric(2, 0.8)
        for _ in range(500):
            sample = process.sample(rng)
            assert np.all((sample >= 0) & (sample <= 6))

    def test_burst_values_uniform(self, rng):
        process = BurstyVideoArrivals.symmetric(1, 1.0)
        values = [int(process.sample(rng)[0]) for _ in range(6000)]
        counts = np.bincount(values, minlength=7)
        assert counts[0] == 0  # alpha = 1: always a burst
        assert counts[1:].min() > 800  # each of 1..6 ~ 1000

    def test_empirical_mean(self, rng):
        process = BurstyVideoArrivals.symmetric(4, 0.5)
        np.testing.assert_allclose(
            empirical_mean(process, rng), [1.75] * 4, atol=0.12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyVideoArrivals(alphas=(1.5,))
        with pytest.raises(ValueError):
            BurstyVideoArrivals(alphas=(0.5,), burst_max=0)


class TestConstantArrivals:
    def test_deterministic(self, rng):
        process = ConstantArrivals(counts=(2, 0, 1))
        for _ in range(5):
            np.testing.assert_array_equal(process.sample(rng), [2, 0, 1])

    def test_mean_and_max(self):
        process = ConstantArrivals(counts=(2, 0, 1))
        np.testing.assert_allclose(process.mean_rates, [2, 0, 1])
        assert process.max_per_link == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantArrivals(counts=(-1,))


class TestTruncatedPoisson:
    def test_truncation_respected(self, rng):
        process = TruncatedPoissonArrivals(poisson_rates=(10.0,), cap=4)
        for _ in range(300):
            assert process.sample(rng)[0] <= 4

    def test_mean_accounts_for_truncation(self, rng):
        process = TruncatedPoissonArrivals(poisson_rates=(3.0,), cap=4)
        theory = process.mean_rates[0]
        assert theory < 3.0  # truncation pulls the mean down
        empirical = empirical_mean(process, rng, n=8000)[0]
        assert empirical == pytest.approx(theory, abs=0.06)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedPoissonArrivals(poisson_rates=(-1.0,))
        with pytest.raises(ValueError):
            TruncatedPoissonArrivals(poisson_rates=(1.0,), cap=0)


class TestCorrelatedBurstArrivals:
    def test_all_or_nothing(self, rng):
        process = CorrelatedBurstArrivals(num_links_=4, event_prob=0.5)
        for _ in range(300):
            sample = process.sample(rng)
            assert np.all(sample == 0) or np.all(sample >= 1)

    def test_mean(self, rng):
        process = CorrelatedBurstArrivals(
            num_links_=3, event_prob=0.4, burst_max=3
        )
        np.testing.assert_allclose(process.mean_rates, [0.8] * 3)
        np.testing.assert_allclose(
            empirical_mean(process, rng, n=8000), [0.8] * 3, atol=0.06
        )

    def test_cross_link_correlation_is_positive(self, rng):
        process = CorrelatedBurstArrivals(num_links_=2, event_prob=0.5)
        samples = np.array([process.sample(rng) for _ in range(4000)])
        corr = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert corr > 0.5


class TestMarkovModulated:
    def test_stationary_mean(self):
        process = MarkovModulatedArrivals(
            2, on_rate=0.8, off_rate=0.0, p_stay_on=0.9, p_stay_off=0.9
        )
        np.testing.assert_allclose(process.mean_rates, [0.4] * 2)

    def test_temporal_correlation(self, rng):
        """The process intentionally violates temporal independence."""
        process = MarkovModulatedArrivals(
            1, on_rate=1.0, off_rate=0.0, p_stay_on=0.95, p_stay_off=0.95
        )
        samples = np.array([process.sample(rng)[0] for _ in range(8000)], float)
        corr = np.corrcoef(samples[:-1], samples[1:])[0, 1]
        assert corr > 0.5

    def test_support(self, rng):
        process = MarkovModulatedArrivals(3, on_rate=0.5)
        for _ in range(100):
            assert np.all(process.sample(rng) <= 1)

    def test_reset_state_restores_run_order_independence(self):
        """Two runs with the same seed and a shared process instance must
        be bit-identical once the caller resets between them."""
        process = MarkovModulatedArrivals(4, 0.7, 0.1, 0.8, 0.85)
        first = np.stack(
            [process.sample(np.random.default_rng(5)) for _ in range(1)]
        )
        for _ in range(37):  # leave the chain mid-burst
            process.sample(np.random.default_rng(9))
        process.reset_state()
        second = np.stack(
            [process.sample(np.random.default_rng(5)) for _ in range(1)]
        )
        np.testing.assert_array_equal(first, second)

    def test_initial_state_choices(self):
        on = MarkovModulatedArrivals(6, 0.5, initial_state="on")
        off = MarkovModulatedArrivals(6, 0.5, initial_state="off")
        assert on._state_on.all()
        assert not off._state_on.any()
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(6, 0.5, initial_state="maybe")

    def test_stationary_initial_state_is_deterministic(self):
        a = MarkovModulatedArrivals(
            64, 0.7, 0.1, 0.8, 0.85, initial_state="stationary"
        )
        b = MarkovModulatedArrivals(
            64, 0.7, 0.1, 0.8, 0.85, initial_state="stationary"
        )
        np.testing.assert_array_equal(a._state_on, b._state_on)
        before = a._state_on.copy()
        a.sample(np.random.default_rng(0))
        a.reset_state()
        np.testing.assert_array_equal(a._state_on, before)
        # The per-link fraction tracks the stationary distribution.
        pi_on = a._pi_on
        assert abs(a._state_on.mean() - pi_on) < 0.2

    def test_capability_surface(self):
        process = MarkovModulatedArrivals(3, 0.5)
        assert process.has_state
        assert process.state_uses_rng
        assert process.supports_batch_state
        assert not process.supports_batch_sampling
        stateless = BernoulliArrivals.symmetric(3, 0.5)
        assert not stateless.has_state
        assert stateless.stack_rows((stateless,)) is None

    def test_batch_rows_match_scalar_stream(self):
        """One stacked row consumes the generator exactly like the scalar
        sample loop, so the vectorized chain has the scalar law."""
        scalar = MarkovModulatedArrivals(5, 0.6, 0.2, 0.7, 0.9)
        rows = MarkovModulatedArrivals.stack_rows(
            (MarkovModulatedArrivals(5, 0.6, 0.2, 0.7, 0.9),)
        )
        g_rows, g_scalar = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(50):
            np.testing.assert_array_equal(
                rows.evolve(g_rows)[0], scalar.sample(g_scalar)
            )

    def test_evolve_block_matches_stepwise(self):
        procs = (
            MarkovModulatedArrivals(4, 0.6, 0.2, 0.7, 0.9),
            MarkovModulatedArrivals(4, 0.9, 0.0, 0.95, 0.8),
        )
        block_rows = MarkovModulatedArrivals.stack_rows(procs)
        step_rows = MarkovModulatedArrivals.stack_rows(procs)
        depth = 16
        out = np.empty((depth, 2, 4), dtype=np.int64)
        block_rows.evolve_block(depth, np.random.default_rng(3), out)
        g = np.random.default_rng(3)
        for d in range(depth):
            # Block mode draws all uniforms up front in interval order;
            # stepwise consumption differs, so compare distributions via
            # the same chunked draw instead: one-deep blocks.
            expected = np.empty((1, 2, 4), dtype=np.int64)
            step_rows.evolve_block(1, g, expected)
            np.testing.assert_array_equal(out[d], expected[0])

    def test_equality_and_codec(self):
        a = MarkovModulatedArrivals(3, 0.5, 0.1, 0.9, 0.8, "stationary")
        b = MarkovModulatedArrivals(3, 0.5, 0.1, 0.9, 0.8, "stationary")
        assert a == b and hash(a) == hash(b)
        assert a != MarkovModulatedArrivals(3, 0.5, 0.1, 0.9, 0.8, "on")
        assert MarkovModulatedArrivals.from_config(a.to_config()) == a


class TestParetoBurstArrivals:
    def test_mean_rates_renewal_formula(self, rng):
        process = ParetoBurstArrivals(3, start_prob=0.2, tail=1.5, dur_max=32)
        empirical = empirical_mean(process, rng, n=20000)
        np.testing.assert_allclose(
            empirical, process.mean_rates, atol=0.05
        )

    def test_support_and_peak(self, rng):
        process = ParetoBurstArrivals(2, start_prob=0.5, peak=3)
        assert process.max_per_link == 3
        for _ in range(300):
            sample = process.sample(rng)
            assert np.all((sample == 0) | (sample == 3))

    def test_heavy_tail_durations(self, rng):
        """Burst lengths must reach well beyond the mean (the point of the
        Pareto tail)."""
        process = ParetoBurstArrivals(
            1, start_prob=0.3, tail=1.2, dur_max=64
        )
        active = np.array(
            [process.sample(rng)[0] > 0 for _ in range(20000)]
        )
        # Longest observed run of consecutive active intervals.
        longest = run = 0
        for a in active:
            run = run + 1 if a else 0
            longest = max(longest, run)
        assert longest >= 20

    def test_reset_state(self):
        process = ParetoBurstArrivals(4, start_prob=0.9, dur_max=16)
        g = np.random.default_rng(0)
        for _ in range(5):
            process.sample(g)
        assert process._remaining.any()
        process.reset_state()
        assert not process._remaining.any()

    def test_capability_surface_and_equality(self):
        process = ParetoBurstArrivals(3, start_prob=0.2)
        assert process.has_state
        assert process.state_uses_rng
        assert process.supports_batch_state
        assert not process.supports_batch_sampling
        assert process == ParetoBurstArrivals(3, start_prob=0.2)
        assert process != ParetoBurstArrivals(3, start_prob=0.3)

    def test_batch_rows_match_scalar_stream(self):
        scalar = ParetoBurstArrivals(6, 0.2, 1.5, 32, 2)
        rows = ParetoBurstArrivals.stack_rows(
            (ParetoBurstArrivals(6, 0.2, 1.5, 32, 2),)
        )
        g_rows, g_scalar = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(100):
            np.testing.assert_array_equal(
                rows.evolve(g_rows)[0], scalar.sample(g_scalar)
            )

    def test_mixed_dur_max_rows_stay_in_support(self):
        procs = (
            ParetoBurstArrivals(3, 0.5, 1.5, 8),
            ParetoBurstArrivals(3, 0.5, 1.5, 64),
        )
        rows = ParetoBurstArrivals.stack_rows(procs)
        out = np.empty((32, 2, 3), dtype=np.int64)
        rows.evolve_block(32, np.random.default_rng(1), out)
        assert out.min() >= 0 and out.max() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoBurstArrivals(0, start_prob=0.2)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(1, start_prob=0.0)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(1, start_prob=0.2, tail=0.0)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(1, start_prob=0.2, dur_max=0)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(1, start_prob=0.2, peak=0)


class TestArrivalsFromSpec:
    def test_formats(self):
        assert arrivals_from_spec(
            "bernoulli:0.5", 3
        ) == BernoulliArrivals.symmetric(3, 0.5)
        assert arrivals_from_spec(
            "bursty:0.4:4", 2
        ) == BurstyVideoArrivals.symmetric(2, 0.4, burst_max=4)
        assert arrivals_from_spec(
            "constant:2", 2
        ) == ConstantArrivals.symmetric(2, 2)
        assert arrivals_from_spec(
            "mmpp:0.7:0.1:0.8:0.85:stationary", 3
        ) == MarkovModulatedArrivals(3, 0.7, 0.1, 0.8, 0.85, "stationary")
        assert arrivals_from_spec("mmpp:0.7", 3) == MarkovModulatedArrivals(
            3, 0.7
        )
        assert arrivals_from_spec(
            "pareto:0.2:1.5:32:2", 3
        ) == ParetoBurstArrivals(3, 0.2, 1.5, 32, 2)

    def test_bad_specs_raise_value_error(self):
        for bad in ("nope:1", "mmpp", "pareto", "bernoulli:x", "pareto:0"):
            with pytest.raises(ValueError):
                arrivals_from_spec(bad, 3)


class TestGenericSampleBatchValidation:
    def test_generic_fallback_goes_through_check_batch(self, rng):
        """A sample() override that breaks the A_max bound must be caught
        by the generic sample_batch fallback, not silently stacked."""

        class Broken(ArrivalProcess):
            @property
            def num_links(self):
                return 2

            @property
            def mean_rates(self):
                return np.full(2, 0.5)

            @property
            def max_per_link(self):
                return 1

            def sample(self, rng):
                return np.full(2, 7, dtype=np.int64)  # violates max_per_link

        with pytest.raises(AssertionError):
            Broken().sample_batch(rng, 4)

    def test_generic_fallback_stacks_valid_draws(self, rng):
        process = TruncatedPoissonArrivals(poisson_rates=(1.0, 2.0), cap=4)
        if process.supports_batch_sampling:
            batch = process.sample_batch(rng, 5)
            assert batch.shape == (5, 2)
            assert batch.max() <= 4


class TestTakeLinks:
    @pytest.mark.parametrize(
        "process, field, pad_value",
        [
            (BernoulliArrivals(rates=(0.1, 0.2, 0.3)), "rates", 0.0),
            (BurstyVideoArrivals(alphas=(0.1, 0.2, 0.3)), "alphas", 0.0),
            (ConstantArrivals(counts=(1, 2, 3)), "counts", 0),
            (
                TruncatedPoissonArrivals(poisson_rates=(0.1, 0.2, 0.3)),
                "poisson_rates",
                0.0,
            ),
        ],
    )
    def test_slices_and_pads(self, process, field, pad_value):
        cell = process.take_links((2, 0), pad=2)
        assert type(cell) is type(process)
        values = getattr(process, field)
        assert getattr(cell, field) == (values[2], values[0]) + (pad_value,) * 2
        assert dataclasses.replace(cell, **{field: values}) == process

    @pytest.mark.parametrize(
        "text", ["mmpp:0.7:0.1:0.8:0.85", "pareto:0.2:1.5:32"]
    )
    def test_stateful_processes_refuse_with_pinned_message(self, text):
        process = arrivals_from_spec(text, 4)
        with pytest.raises(TypeError) as err:
            process.take_links((0, 1), pad=1)
        assert str(err.value) == (
            f"{type(process).__name__} cannot be sliced per cell: the "
            "topology layer needs cross-link-independent arrivals (the "
            "joint law must factor across cells)"
        )

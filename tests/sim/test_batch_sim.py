"""Tests for the batch (all-seeds-at-once) simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchIntervalSimulator,
    BernoulliChannel,
    DBDPPolicy,
    FrameCSMAPolicy,
    GilbertElliottChannel,
    LDFPolicy,
    NetworkSpec,
    RoundRobinPolicy,
    idealized_timing,
    run_simulation_batch,
    supports_batch_engine,
)
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_kernels import BatchIntervalOutcome
from repro.traffic.arrivals import (
    BernoulliArrivals,
    BurstyVideoArrivals,
    MarkovModulatedArrivals,
    arrivals_from_spec,
)

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def spec():
    return video_symmetric_spec(0.6, num_links=5)


class TestConstruction:
    def test_unsupported_policy_rejected(self, spec):
        with pytest.raises(TypeError, match="no batch kernel"):
            BatchIntervalSimulator(spec, FrameCSMAPolicy(), SEEDS)

    def test_stochastic_channel_state_needs_free_rng(self):
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(3, 0.5),
            channel=GilbertElliottChannel(3),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        with pytest.raises(TypeError, match="rng='free'"):
            BatchIntervalSimulator(spec, LDFPolicy(), SEEDS)
        # The named fallbacks construct fine.
        BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="free")
        BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="sync")

    def test_stateful_arrivals_need_sync_mode(self):
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=MarkovModulatedArrivals(3, 0.5),
            channel=BernoulliChannel.symmetric(3, 0.8),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        with pytest.raises(TypeError, match="rng='sync'"):
            BatchIntervalSimulator(spec, LDFPolicy(), SEEDS)
        # The sync path drives scalar clones, so stateful arrivals are fine.
        sim = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="sync")
        sim.run(10)
        assert sim.result.num_intervals == 10
        # Free-draw mode hosts the vectorized batch-state plane.
        free = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="free")
        free.run(10)
        assert free.result.num_intervals == 10

    def test_stateful_arrival_runs_are_independent(self):
        """Two back-to-back runs sharing a process instance must agree:
        the simulator resets arrival state per run (state-leak guard)."""
        process = MarkovModulatedArrivals(3, 0.6, 0.1, 0.8, 0.9)
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=process,
            channel=BernoulliChannel.symmetric(3, 0.8),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        first = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="free")
        first.run(30)
        second = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="free")
        second.run(30)
        np.testing.assert_array_equal(
            first.result.deliveries, second.result.deliveries
        )

    def test_supports_batch_engine(self, spec):
        assert supports_batch_engine(spec, DBDPPolicy())
        assert supports_batch_engine(spec, LDFPolicy())
        assert not supports_batch_engine(spec, FrameCSMAPolicy())
        stateful = NetworkSpec.from_delivery_ratios(
            arrivals=MarkovModulatedArrivals(3, 0.5),
            channel=BernoulliChannel.symmetric(3, 0.8),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        assert not supports_batch_engine(stateful, LDFPolicy())
        assert supports_batch_engine(stateful, LDFPolicy(), rng="sync")
        # Free-draw mode hosts stochastic arrival state vectorized.
        assert supports_batch_engine(stateful, LDFPolicy(), rng="free")
        from repro.traffic.arrivals import ParetoBurstArrivals

        pareto = NetworkSpec.from_delivery_ratios(
            arrivals=ParetoBurstArrivals(3, start_prob=0.3),
            channel=BernoulliChannel.symmetric(3, 0.8),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        assert not supports_batch_engine(pareto, LDFPolicy())
        assert supports_batch_engine(pareto, LDFPolicy(), rng="free")
        assert supports_batch_engine(pareto, LDFPolicy(), rng="sync")

    def test_non_iid_channel_runs_under_sync_only(self):
        """A stateless channel with non-i.i.d. attempts cannot be
        pre-drawn, but the sync path drives scalar clones and runs it:
        the predicate and the constructor must agree in every mode."""

        class _NonIID(BernoulliChannel):
            @property
            def iid_within_interval(self) -> bool:
                return False

        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(3, 0.5),
            channel=_NonIID((0.8, 0.8, 0.8)),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        assert supports_batch_engine(spec, LDFPolicy(), rng="sync")
        BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng="sync").run(5)
        for mode in ("batch", "free"):
            assert not supports_batch_engine(spec, LDFPolicy(), rng=mode)
            with pytest.raises(TypeError, match="not i.i.d. within"):
                BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, rng=mode)

    def test_negative_interval_count_rejected(self, spec):
        sim = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS)
        with pytest.raises(ValueError):
            sim.run(-1)


class TestReproducibility:
    @pytest.mark.parametrize("factory", [DBDPPolicy, LDFPolicy, RoundRobinPolicy])
    def test_same_seeds_same_trace(self, spec, factory):
        a = run_simulation_batch(spec, factory(), 120, SEEDS)
        b = run_simulation_batch(spec, factory(), 120, SEEDS)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.deliveries, b.deliveries)
        np.testing.assert_array_equal(a.attempts, b.attempts)

    def test_replications_are_distinct(self, spec):
        result = run_simulation_batch(spec, DBDPPolicy(), 200, SEEDS)
        assert not np.array_equal(
            result.deliveries[:, 0], result.deliveries[:, 1]
        )

    def test_split_runs_match_single_run(self, spec):
        """run(70) + run(50) must equal run(120): the chunked draw caches
        are internal bookkeeping, not part of the random semantics."""
        split = BatchIntervalSimulator(spec, DBDPPolicy(), SEEDS)
        split.run(70)
        split.run(50)
        whole = run_simulation_batch(spec, DBDPPolicy(), 120, SEEDS)
        np.testing.assert_array_equal(
            split.result.deliveries, whole.deliveries
        )
        np.testing.assert_array_equal(split.result.arrivals, whole.arrivals)

    @pytest.mark.parametrize("rng", [None, "free"])
    def test_row_blocks_replay_independent_runs(self, spec, rng):
        """Per-row stream tags: each block of rows draws exactly what an
        independent simulator over those rows and that tag draws."""
        packed = BatchIntervalSimulator(
            spec, DBDPPolicy(), SEEDS * 2, rng=rng,
            stream_tag=["a"] * len(SEEDS) + ["b"] * len(SEEDS),
        ).run(90)
        for i, tag in enumerate("ab"):
            alone = BatchIntervalSimulator(
                spec, DBDPPolicy(), SEEDS, rng=rng, stream_tag=tag
            ).run(90)
            rows = slice(i * len(SEEDS), (i + 1) * len(SEEDS))
            for field in ("arrivals", "deliveries", "attempts"):
                np.testing.assert_array_equal(
                    getattr(packed, field)[:, rows], getattr(alone, field)
                )

    @pytest.mark.parametrize(
        "rows",
        [
            ("mmpp:0.7:0.1:0.8:0.85",) * 6,
            ("pareto:0.2:1.5:32",) * 6,
            ("mmpp:0.7:0.1:0.8:0.85", "bursty", "pareto:0.2:1.5:32") * 2,
        ],
        ids=["mmpp", "pareto", "mixed"],
    )
    def test_stateful_arrival_row_blocks_replay_independent_runs(self, rows):
        """Stateful arrivals under per-row stream tags: each block of rows
        evolves its state from its own block's stream, exactly as an
        independent run over those rows does.  (The state draw once put
        rows on axis 2 and raised under row blocks.)"""
        n = 6

        def row_spec(text):
            return NetworkSpec.from_delivery_ratios(
                arrivals=(
                    BurstyVideoArrivals.symmetric(n, 0.5)
                    if text == "bursty"
                    else arrivals_from_spec(text, n)
                ),
                channel=BernoulliChannel.symmetric(n, 0.7),
                timing=idealized_timing(n),
                delivery_ratios=0.6,
            )

        specs = [row_spec(text) for text in rows]
        packed = BatchIntervalSimulator(
            specs, DBDPPolicy(), SEEDS * 2, rng="free",
            stream_tag=["a"] * 3 + ["b"] * 3,
        ).run(60)
        for i, tag in enumerate("ab"):
            block = slice(3 * i, 3 * i + 3)
            alone = BatchIntervalSimulator(
                specs[block], DBDPPolicy(), SEEDS, rng="free", stream_tag=tag
            ).run(60)
            for field in ("arrivals", "deliveries", "attempts"):
                np.testing.assert_array_equal(
                    getattr(packed, field)[:, block], getattr(alone, field)
                )

    def test_progress_callback(self, spec):
        seen = []
        sim = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS)
        sim.run(7, progress=seen.append)
        assert seen == list(range(7))


class TestDebtAccounting:
    def test_debts_track_requirement_minus_deliveries(self, spec):
        sim = BatchIntervalSimulator(spec, DBDPPolicy(), SEEDS)
        sim.run(100)
        expected = (
            100 * spec.requirement_vector[None, :]
            - sim.result.deliveries.sum(axis=0)
        )
        np.testing.assert_allclose(sim.debts, expected)


class TestValidation:
    def _cheat(self, sim):
        def run_interval(k, arrivals, debts, rng):
            S, N = arrivals.shape
            return BatchIntervalOutcome(
                deliveries=arrivals + 1,
                attempts=arrivals + 1,
                busy_time_us=np.zeros(S),
                overhead_time_us=np.zeros(S),
                collisions=np.zeros(S, dtype=np.int64),
            )

        sim.kernel.run_interval = run_interval

    def test_overdelivery_caught(self, spec):
        sim = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS)
        self._cheat(sim)
        with pytest.raises(AssertionError, match="delivered more"):
            sim.step()

    def test_validate_false_skips_guard(self, spec):
        sim = BatchIntervalSimulator(spec, LDFPolicy(), SEEDS, validate=False)
        self._cheat(sim)
        sim.step()  # must not raise
        assert sim.interval == 1


class TestResultViews:
    @pytest.fixture(scope="class")
    def result(self):
        spec = video_symmetric_spec(0.6, num_links=5)
        return run_simulation_batch(
            spec, DBDPPolicy(), 80, SEEDS, record_priorities=True
        )

    def test_shapes(self, result):
        K, S, N = 80, len(SEEDS), 5
        assert result.deliveries.shape == (K, S, N)
        assert result.arrivals.shape == (K, S, N)
        assert result.busy_time_us.shape == (K, S)
        assert result.collisions.shape == (K, S)
        assert result.total_deficiency().shape == (S,)
        assert result.per_link_deficiency().shape == (S, N)
        assert result.timely_throughput().shape == (S, N)

    def test_priorities_are_permutations(self, result):
        priorities = result.priorities
        expected = np.arange(1, 6)
        for k in (0, 40, 79):
            for s in range(len(SEEDS)):
                assert sorted(priorities[k, s]) == list(expected)

    def test_trajectory_ends_at_final_deficiency(self, result):
        trajectory = result.deficiency_trajectory()
        assert trajectory.shape == (80, len(SEEDS))
        np.testing.assert_allclose(trajectory[-1], result.total_deficiency())

    def test_seed_result_slices_match(self, result):
        for s, seed in enumerate(SEEDS):
            scalar = result.seed_result(seed)
            np.testing.assert_array_equal(
                scalar.deliveries, result.deliveries[:, s]
            )
            np.testing.assert_array_equal(
                scalar.attempts, result.attempts[:, s]
            )
            assert scalar.total_deficiency() == pytest.approx(
                result.total_deficiency()[s]
            )
            np.testing.assert_allclose(
                scalar.timely_throughput(), result.timely_throughput()[s]
            )

    def test_to_results_ordering(self, result):
        scalars = result.to_results()
        assert len(scalars) == len(SEEDS)
        assert all(r.policy_name == result.policy_name for r in scalars)

    def test_unknown_seed_raises(self, result):
        with pytest.raises(KeyError):
            result.seed_index(999)

"""Tests for heterogeneous spec stacks (the fused engine's row model).

A :class:`SpecStack` lets every batch-engine row carry its own spec as
long as link count, timing and channel family line up.  These tests cover
the validation contract, the per-row parameter matrices, the grouped
arrival sampling, and — the load-bearing claim — that a heterogeneous
stack simulated with ``rng="sync"`` reproduces each row's scalar
simulation bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BernoulliArrivals,
    BernoulliChannel,
    DBDPPolicy,
    GilbertElliottChannel,
    LDFPolicy,
    NetworkSpec,
    idealized_timing,
    run_simulation,
)
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.sim.spec_stack import SpecStack


def bernoulli_spec(p_arrival, num_links=4, budget=8):
    return NetworkSpec.from_delivery_ratios(
        arrivals=BernoulliArrivals.symmetric(num_links, p_arrival),
        channel=BernoulliChannel.symmetric(num_links, 0.7),
        timing=idealized_timing(budget),
        delivery_ratios=0.8,
    )


class TestValidation:
    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SpecStack(())

    def test_link_count_mismatch_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            SpecStack([bernoulli_spec(0.5, num_links=4),
                       bernoulli_spec(0.5, num_links=5)])

    def test_timing_mismatch_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            SpecStack([bernoulli_spec(0.5, budget=8),
                       bernoulli_spec(0.5, budget=9)])

    def test_stateful_channel_rejected(self):
        bad = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(4, 0.5),
            channel=GilbertElliottChannel(4),
            timing=idealized_timing(8),
            delivery_ratios=0.8,
        )
        with pytest.raises(TypeError, match="GilbertElliottChannel"):
            SpecStack([bernoulli_spec(0.5), bad])

    def test_non_spec_row_rejected(self):
        with pytest.raises(TypeError, match="row 1"):
            SpecStack([bernoulli_spec(0.5), "not a spec"])


class TestProperties:
    def test_broadcast_is_homogeneous(self):
        stack = SpecStack.broadcast(bernoulli_spec(0.5), 3)
        assert stack.num_rows == 3
        assert stack.homogeneous

    def test_heterogeneous_matrices_follow_rows(self):
        a, b = video_symmetric_spec(0.45, num_links=4), video_symmetric_spec(
            0.65, num_links=4
        )
        stack = SpecStack([a, b, a])
        assert not stack.homogeneous
        rel = stack.reliability_matrix
        req = stack.requirement_matrix
        assert rel.shape == req.shape == (3, 4)
        np.testing.assert_array_equal(rel[0], a.reliabilities)
        np.testing.assert_array_equal(rel[1], b.reliabilities)
        np.testing.assert_array_equal(req[2], a.requirement_vector)

    def test_max_arrivals_is_stack_wide(self):
        a, b = video_symmetric_spec(0.4, num_links=4), video_symmetric_spec(
            0.7, num_links=4
        )
        stack = SpecStack([a, b])
        assert stack.max_arrivals_per_link == max(
            a.arrivals.max_per_link, b.arrivals.max_per_link
        )


class TestArrivalSampling:
    def test_block_shape_and_range(self):
        stack = SpecStack([video_symmetric_spec(0.5, num_links=4)] * 3)
        block = stack.sample_arrival_block(np.random.default_rng(0), 16)
        assert block.shape == (16, 3, 4)
        assert block.dtype == np.int64
        assert block.min() >= 0
        assert block.max() <= stack.max_arrivals_per_link

    def test_grouped_rows_share_one_draw(self):
        """Rows with identical arrival processes must be filled from one
        flat ``sample_batch`` call, in row order."""
        a = video_symmetric_spec(0.45, num_links=4)
        b = video_symmetric_spec(0.65, num_links=4)
        stack = SpecStack([a, b, a])
        block = stack.sample_arrival_block(np.random.default_rng(7), 5)
        rng = np.random.default_rng(7)
        flat_a = a.arrivals.sample_batch(rng, 10).reshape(5, 2, 4)
        flat_b = b.arrivals.sample_batch(rng, 5).reshape(5, 1, 4)
        np.testing.assert_array_equal(block[:, [0, 2]], flat_a)
        np.testing.assert_array_equal(block[:, [1]], flat_b)

    def test_bad_depth_rejected(self):
        stack = SpecStack.broadcast(bernoulli_spec(0.5), 2)
        with pytest.raises(ValueError, match="depth"):
            stack.sample_arrival_block(np.random.default_rng(0), 0)


class TestHeterogeneousSimulation:
    """The tentpole guarantee: per-row specs, bit-exact per-row physics."""

    @pytest.mark.parametrize("factory", [DBDPPolicy, LDFPolicy])
    def test_sync_rows_match_scalar_per_spec(self, factory):
        alphas = (0.45, 0.60, 0.45, 0.70)
        seeds = (3, 1, 4, 1)
        specs = [video_symmetric_spec(a, num_links=4) for a in alphas]
        sim = BatchIntervalSimulator(
            specs, factory(), seeds, rng="sync",
            row_policies=[factory() for _ in seeds],
        )
        batch = sim.run(200)
        for s, (spec, seed) in enumerate(zip(specs, seeds)):
            scalar = run_simulation(spec, factory(), 200, seed=seed)
            np.testing.assert_array_equal(
                batch.deliveries[:, s], scalar.deliveries
            )
            np.testing.assert_array_equal(batch.arrivals[:, s], scalar.arrivals)
            np.testing.assert_array_equal(batch.attempts[:, s], scalar.attempts)

    def test_row_count_must_match_seed_count(self):
        specs = [video_symmetric_spec(0.5, num_links=4)] * 3
        with pytest.raises(ValueError, match="rows"):
            BatchIntervalSimulator(specs, LDFPolicy(), (0, 1), rng="sync")

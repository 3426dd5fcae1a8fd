"""Tests for the vectorized per-interval batch kernels.

The batch engine's correctness hinges on two closed forms: the staircase
service solver (attempts/deliveries under a non-increasing cap) and the DP
kernel's assume-fit/verify empty-packet coupling.  Both are checked here
against brute-force sequential references on shared inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    BernoulliArrivals,
    BernoulliChannel,
    ConstantArrivals,
    DBDPPolicy,
    DCFPolicy,
    DebtWindowMap,
    ELDFPolicy,
    FCSMAPolicy,
    FrameCSMAPolicy,
    GilbertElliottChannel,
    LDFPolicy,
    NetworkSpec,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    idealized_timing,
)
from repro.experiments.configs import video_symmetric_spec
from repro.phy.timing import IntervalTiming, low_latency_timing
from repro.sim.batch_kernels import (
    DRAW_CHUNK,
    BatchDPKernel,
    _ChunkedChannelDraws,
    _ChunkedUniforms,
    drain_totals,
    has_batch_kernel,
    make_batch_kernel,
    solve_ordered_service,
)
from repro.sim import batch_kernels
from repro.sim.batch_sim import BatchIntervalSimulator
from tests.sim.contention_reference import ReferenceRun
from tests.sim.dp_reference import ReferenceCheck


def naive_ordered_service(order, backlog, needed_cum, caps):
    """Reference: serve links one at a time, exactly like the scalar loop."""
    S, N = order.shape
    delivered = np.zeros((S, N), dtype=np.int64)
    attempts = np.zeros((S, N), dtype=np.int64)
    for s in range(S):
        used = 0
        for j in range(N):
            link = int(order[s, j])
            b = int(backlog[s, link])
            budget = int(caps[s, j]) - used
            if b == 0 or budget <= 0:
                continue
            cum = needed_cum[s, link, :b]
            att = min(int(cum[-1]), budget)
            attempts[s, j] = att
            # Packet t is delivered iff its cumulative need fits the grant.
            delivered[s, j] = int(np.searchsorted(cum, att, side="right"))
            used += att
    return delivered, attempts


class TestSolveOrderedService:
    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_sequential_reference(self, trial, dtype):
        """Link-space outputs match the sequential sweep, for both integer
        and float32 draw blocks (the production pipeline keeps the block
        in float32 holding exact integers)."""
        rng = np.random.default_rng(100 + trial)
        S, N, A = 7, 6, 4
        order = np.array([rng.permutation(N) for _ in range(S)])
        backlog = rng.integers(0, A + 1, size=(S, N))
        needed_cum = np.cumsum(
            rng.geometric(0.6, size=(S, N, A)), axis=2, dtype=np.int64
        )
        # Caps must be non-increasing along the service order; negatives
        # model positions whose backoff already overruns the interval.
        caps = np.sort(rng.integers(-3, 15, size=(S, N)), axis=1)[:, ::-1]
        delivered, attempts, attempts_pos = solve_ordered_service(
            order, backlog, needed_cum.astype(dtype), caps
        )
        ref_delivered_pos, ref_attempts_pos = naive_ordered_service(
            order, backlog, needed_cum, caps
        )
        rows = np.arange(S)[:, None]
        ref_delivered = np.zeros((S, N), dtype=np.int64)
        ref_attempts = np.zeros((S, N), dtype=np.int64)
        ref_delivered[rows, order] = ref_delivered_pos
        ref_attempts[rows, order] = ref_attempts_pos
        np.testing.assert_array_equal(delivered, ref_delivered)
        np.testing.assert_array_equal(attempts, ref_attempts)
        np.testing.assert_array_equal(attempts_pos, ref_attempts_pos)
        assert attempts.dtype == attempts_pos.dtype == np.int64

    def test_empty_backlog_serves_nothing(self):
        order = np.array([[0, 1, 2]])
        backlog = np.zeros((1, 3), dtype=np.int64)
        needed_cum = np.ones((1, 3, 2), dtype=np.int64)
        caps = np.full((1, 3), 10, dtype=np.int64)
        delivered, attempts, _ = solve_ordered_service(
            order, backlog, needed_cum, caps
        )
        assert delivered.sum() == 0 and attempts.sum() == 0

    def test_truncation_starves_later_positions(self):
        """Once the cap truncates a link, everyone behind it gets nothing."""
        order = np.array([[0, 1, 2]])
        backlog = np.array([[2, 2, 2]])
        needed_cum = np.tile(
            np.array([[3, 6]], dtype=np.int64), (1, 3, 1)
        )  # each link needs 6 attempts to drain
        caps = np.array([[8, 8, 8]], dtype=np.int64)
        delivered, attempts, attempts_pos = solve_ordered_service(
            order, backlog, needed_cum, caps
        )
        # Position 0 drains (6 attempts, 2 packets); position 1 gets the
        # remaining 2 attempts (< 3 needed -> 0 delivered); position 2: 0.
        np.testing.assert_array_equal(attempts_pos, [[6, 2, 0]])
        np.testing.assert_array_equal(delivered, [[2, 0, 0]])
        np.testing.assert_array_equal(attempts, [[6, 2, 0]])


class TestChunkedDraws:
    def test_uniforms_match_unchunked_stream(self):
        """Chunking only amortizes Generator calls; the draw sequence per
        interval is the same slicing of the same stream."""
        draws = _ChunkedUniforms(3, 2)
        chunked = [draws.next(np.random.default_rng(9)) for _ in range(2)]
        # A fresh generator's first block, sliced the same way:
        block = np.random.default_rng(9).random((DRAW_CHUNK, 3, 2))
        np.testing.assert_array_equal(chunked[0], block[0])
        np.testing.assert_array_equal(chunked[1], block[1])


class TestChunkedChannelDraws:
    """Chunk-boundary behavior of the channel retry-draw cache.

    The class refills ``depth`` intervals of draws per Generator call;
    these tests pin down that a sequence of intervals spanning one or
    more refills is identical to an unchunked draw of the same stream,
    including the ``a_max`` clamp edge at p = 1.
    """

    S, N, A = 3, 4, 5

    def _unchunked_reference(self, probs, intervals, seed):
        """All ``intervals`` cumulative blocks from one generator call."""
        scale = (-1.0 / np.log1p(-np.asarray(probs, dtype=float)))[
            None, None, :, None
        ]
        raw = np.random.default_rng(seed).standard_exponential(
            (intervals, self.S, self.N, self.A), dtype=np.float32
        )
        draws = np.maximum(np.ceil(raw * scale.astype(np.float32)), 1.0)
        return np.cumsum(draws, axis=3)

    def test_draws_spanning_refill_match_unchunked(self):
        """10 intervals at depth 4 cross two refill boundaries; every
        block equals the unchunked single-call reference because chunks
        are consecutive slices of one generator stream."""
        probs = np.array([0.6, 0.75, 0.9, 0.8])
        draws = _ChunkedChannelDraws(probs, self.S, self.A, depth=4)
        rng = np.random.default_rng(77)
        got = [draws.next(rng).copy() for _ in range(10)]
        # Three refills of depth 4 consume the same stream values as one
        # call of depth 12 (Generator.standard_exponential fills are
        # sequential), so compare against a 12-deep unchunked draw.
        ref = self._unchunked_reference(probs, 12, seed=77)
        for k in range(10):
            np.testing.assert_array_equal(got[k], ref[k])

    def test_totals_gather_matches_drain_totals_across_refills(self):
        probs = np.array([0.6, 0.8, 0.9, 0.7])
        draws = _ChunkedChannelDraws(probs, self.S, self.A, depth=2)
        rng = np.random.default_rng(3)
        back_rng = np.random.default_rng(30)
        for _ in range(5):
            block = draws.next(rng)
            backlog = back_rng.integers(0, self.A + 1, (self.S, self.N))
            got = draws.totals(block, backlog)
            np.testing.assert_array_equal(got, drain_totals(block, backlog))
            # The gather writes a reused buffer; copy-compare twice to
            # catch stale-index bugs across consecutive intervals.
            again = draws.totals(block, backlog)
            np.testing.assert_array_equal(again, drain_totals(block, backlog))

    def test_p_one_clamps_every_draw_to_one(self):
        """p = 1 makes the exponential scale 0, so after the >= 1 clamp a
        cumulative block is exactly 1..a_max — including the last slot of
        the last interval in a chunk (the a_max clamp edge)."""
        probs = np.ones(self.N)
        draws = _ChunkedChannelDraws(probs, self.S, self.A, depth=2)
        rng = np.random.default_rng(11)
        expected = np.broadcast_to(
            np.arange(1, self.A + 1, dtype=np.float32),
            (self.S, self.N, self.A),
        )
        for _ in range(4):  # spans a refill at depth 2
            block = draws.next(rng)
            np.testing.assert_array_equal(block, expected)

    def test_dtype_falls_back_to_float64_for_huge_scales(self):
        """Near-zero success probabilities make worst-case cumulative
        attempt counts overflow float32's exact-integer range; the cache
        must detect that at construction and draw float64."""
        assert (
            _ChunkedChannelDraws(np.full(2, 0.9), 2, 4).dtype == np.float32
        )
        tiny = np.full(2, 1e-9)
        assert _ChunkedChannelDraws(tiny, 2, 4).dtype == np.float64


class TestKernelDispatch:
    def test_known_policies_have_kernels(self):
        assert has_batch_kernel(DBDPPolicy())
        assert has_batch_kernel(LDFPolicy())
        assert has_batch_kernel(RoundRobinPolicy())
        assert has_batch_kernel(FCSMAPolicy())
        assert has_batch_kernel(DCFPolicy())
        assert not has_batch_kernel(FrameCSMAPolicy())

    def test_unsupported_policy_raises(self):
        with pytest.raises(TypeError, match="no batch kernel"):
            make_batch_kernel(FrameCSMAPolicy())

    def test_stochastic_state_rejected_under_lockstep(self):
        """GE under the lockstep disciplines raises a TypeError naming the
        channel, the discipline, and both working fallbacks."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(3, 0.5),
            channel=GilbertElliottChannel(3),
            timing=idealized_timing(6),
            delivery_ratios=0.8,
        )
        seeds = (0, 1, 2, 3)
        with pytest.raises(
            TypeError,
            match=(
                r"GilbertElliottChannel state cannot evolve under the "
                r"lockstep 'batch' draw discipline of the batch engine; "
                r"pass rng='free' \(statistically equivalent\) or use "
                r"engine='scalar'"
            ),
        ):
            BatchIntervalSimulator(spec, LDFPolicy(), seeds)
        # The named fallbacks really do construct.
        BatchIntervalSimulator(spec, LDFPolicy(), seeds, rng="free")
        BatchIntervalSimulator(spec, LDFPolicy(), seeds, rng="sync")

    def test_degenerate_state_rejected_with_fallback(self):
        """A GE link whose BAD state never succeeds cannot be pre-drawn
        geometrically; the rejection names the scalar fallback."""
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(2, 0.5),
            channel=GilbertElliottChannel(2, p_bad=0.0),
            timing=idealized_timing(6),
            delivery_ratios=0.4,
        )
        with pytest.raises(TypeError, match="engine='scalar'"):
            BatchIntervalSimulator(spec, LDFPolicy(), (0, 1), rng="free")


class TestDPSequentialFallbackEquivalence:
    def test_forced_sequential_is_bit_identical(self):
        """Compare every replication of the vectorized closed form with
        the exact sequential sweep (:mod:`tests.sim.dp_reference`) on
        identical draws.  The low-latency interval leaves 80 us of slack,
        less than a claim plus two slots, so claims misfit: this proves
        the closed form exact including the empty-packet coupling it
        approximates."""
        spec = dataclasses.replace(
            video_symmetric_spec(0.6, num_links=6), timing=low_latency_timing()
        )
        sim = BatchIntervalSimulator(
            spec, DBDPPolicy(), (0, 1, 2, 3), record_traces=True
        )
        assert isinstance(sim.kernel, BatchDPKernel)
        check = ReferenceCheck(sim.kernel)
        sim.run(300)
        assert check.intervals == 300
        assert check.misfits > 0


def _contention_spec(rates, timing):
    """Links with deterministic arrivals (rate 0 or 1) on lossy channels."""
    n = len(rates)
    return NetworkSpec.from_delivery_ratios(
        arrivals=BernoulliArrivals(rates=tuple(rates)),
        channel=BernoulliChannel.symmetric(n, 0.8),
        timing=timing,
        delivery_ratios=0.5,
    )


class TestContentionKernel:
    """The FCSMA/DCF contention-round kernel on outcomes that do not
    depend on the draws, so they are exact in every draw discipline."""

    @pytest.mark.parametrize("rng", ["batch", "free"])
    @pytest.mark.parametrize(
        "policy",
        [
            lambda: FCSMAPolicy(DebtWindowMap(windows=(1,))),
            lambda: DCFPolicy(cw_min=1, cw_max=1),
        ],
        ids=["FCSMA", "DCF"],
    )
    @pytest.mark.parametrize(
        "timing", [idealized_timing(6), video_symmetric_spec(0.5).timing],
        ids=["idealized", "video"],
    )
    def test_single_slot_window_collides_every_round(self, policy, rng, timing):
        spec = _contention_spec((1.0, 1.0, 0.0, 1.0), timing)
        budget = timing.max_transmissions
        sim = BatchIntervalSimulator(spec, policy(), (0, 1, 2), rng=rng)
        result = sim.run(12)
        np.testing.assert_array_equal(result.collisions, budget)
        np.testing.assert_array_equal(result.deliveries, 0)
        np.testing.assert_array_equal(
            result.attempts, np.array([budget, budget, 0, budget])[None, None]
            * np.ones_like(result.attempts)
        )
        np.testing.assert_array_equal(
            result.busy_time_us, budget * timing.data_airtime_us
        )
        np.testing.assert_array_equal(
            result.overhead_time_us, budget * timing.data_airtime_us
        )

    @pytest.mark.parametrize("rng", ["batch", "free"])
    @pytest.mark.parametrize("policy", [FCSMAPolicy, DCFPolicy])
    def test_one_backlogged_link_never_collides(self, policy, rng):
        spec = _contention_spec((0.0, 1.0, 0.0), idealized_timing(6))
        result = BatchIntervalSimulator(
            spec, policy(), (0, 1, 2), rng=rng
        ).run(40)
        np.testing.assert_array_equal(result.collisions, 0)
        np.testing.assert_array_equal(result.attempts[:, :, [0, 2]], 0)
        # One packet per interval, six tries at p = 0.8: the link's
        # attempts stop at its first success.
        delivered = result.deliveries[:, :, 1]
        assert delivered.mean() > 0.9
        tries = result.attempts[:, :, 1]
        assert np.all((tries >= 1) & (tries <= 6))
        assert np.all((delivered == 0) == (tries == 6))
        np.testing.assert_array_equal(result.busy_time_us, tries)


def _reference_kernel(policy, timing, n, S, A, p):
    """A kernel bound to ``S`` rows of ``n`` links (at most ``A`` packets
    each, channel ``p``), and its reference run."""
    spec = NetworkSpec.from_delivery_ratios(
        arrivals=ConstantArrivals.symmetric(n, A),  # sets A_max
        channel=BernoulliChannel.symmetric(n, p),
        timing=timing,
        delivery_ratios=0.5,
    )
    kernel = make_batch_kernel(policy)
    kernel.bind(spec, S, rng="free")
    return kernel, ReferenceRun(kernel, S)


def _random_intervals(run, rng, K, A, p, arrivals=None):
    """Drive ``K`` intervals of random draws; returns the summed
    collisions and deliveries."""
    S, n = run.kernel.num_seeds, run.kernel.spec.num_links
    M = run.timing.max_transmissions
    collisions = deliveries = 0
    for k in range(K):
        arr = (
            rng.integers(0, A + 1, size=(S, n)) if arrivals is None
            else np.full((S, n), arrivals)
        )
        debts = rng.uniform(0.0, 6.0, size=(S, n))
        needed = np.cumsum(
            rng.geometric(p, size=(S, n, A)), axis=2
        ).astype(np.float32)
        got = run.interval(k, arr, debts, needed, rng.random((M, S, n)))
        collisions += got.collisions.sum()
        deliveries += got.deliveries.sum()
    return collisions, deliveries


class TestContentionKernelAgainstReference:
    """On shared draws, the block solve equals the scalar round loop."""

    @pytest.mark.parametrize(
        "policy",
        [FCSMAPolicy, lambda: DCFPolicy(cw_min=4, cw_max=32)],
        ids=["FCSMA", "DCF"],
    )
    @pytest.mark.parametrize(
        "timing", [idealized_timing(9), video_symmetric_spec(0.5).timing],
        ids=["idealized", "video"],
    )
    def test_outcomes_match_scalar_round_loop(self, policy, timing):
        kernel, run = _reference_kernel(policy(), timing, 7, 5, 4, 0.6)
        collisions, deliveries = _random_intervals(
            run, np.random.default_rng(11), 12, 4, 0.6
        )
        assert collisions > 0 and deliveries > 0  # not a vacuous match

    @pytest.mark.parametrize(
        "timing", [idealized_timing(60), video_symmetric_spec(0.5).timing],
        ids=["idealized", "video"],
    )
    def test_drain_cascade(self, timing):
        # One packet per link on perfect channels: every solo win drains
        # its link, so each drain changes the guess for the rounds after
        # it and the interval's block needs a sweep per drain.
        kernel, run = _reference_kernel(FCSMAPolicy(), timing, 40, 3, 1, 1.0)
        assert len(kernel._ws.blocks) == 1
        _, deliveries = _random_intervals(
            run, np.random.default_rng(5), 3, 1, 1.0, arrivals=1
        )
        assert deliveries >= 3 * 3 * 20

    @pytest.mark.parametrize("n, S", [(300, 2), (20, 30)], ids=["links", "rows"])
    def test_stack_wider_than_one_block(self, n, S):
        # Several blocks per interval, in both array layouts; with 300
        # links the per-round transmitter count needs more than a byte.
        kernel, run = _reference_kernel(
            FCSMAPolicy(), video_symmetric_spec(0.5).timing, n, S, 2, 0.7
        )
        assert len(kernel._ws.blocks) > 1
        assert kernel._ws.link_major == (n < S * kernel._ws.blocks[0].rounds)
        if n >= 256:
            assert kernel._ws.blocks[0].cnt.dtype != np.uint8
        collisions, deliveries = _random_intervals(
            run, np.random.default_rng(3), 3, 2, 0.7
        )
        assert collisions > 0 and deliveries > 0

    @pytest.mark.parametrize(
        "policy", [FCSMAPolicy, DCFPolicy], ids=["FCSMA", "DCF"]
    )
    def test_idealized_rows_drain_before_the_budget(self, policy):
        # Free backoff slots put no bound on the idle-slot sum, so a row
        # whose links have all drained must not "fit" the rounds left
        # (no phantom transmissions or collisions).
        timing = idealized_timing(30)
        kernel, run = _reference_kernel(policy(), timing, 3, 4, 1, 1.0)
        rng = np.random.default_rng(8)
        for k in range(10):
            got = run.interval(
                k, np.ones((4, 3), dtype=np.int64), rng.uniform(0, 6, (4, 3)),
                np.ones((4, 3, 1), dtype=np.float32), rng.random((30, 4, 3)),
            )
            np.testing.assert_array_equal(got.deliveries, 1)
            assert np.all(got.busy_time_us < timing.max_transmissions)

    @pytest.mark.parametrize(
        "policy",
        [
            lambda: FCSMAPolicy(DebtWindowMap(windows=(300, 200))),
            lambda: FCSMAPolicy(DebtWindowMap(windows=(40000,))),
            lambda: DCFPolicy(cw_min=100, cw_max=40000),
        ],
        ids=["FCSMA-300", "FCSMA-40000", "DCF-40000"],
    )
    def test_windows_above_a_byte(self, policy):
        # Backoff keys widen with the largest window (the drained mask
        # is the key's top bit), and the idle-slot sums with them.
        kernel, run = _reference_kernel(
            policy(), video_symmetric_spec(0.5).timing, 6, 3, 3, 0.7
        )
        assert kernel._ws.high > 128
        _, deliveries = _random_intervals(
            run, np.random.default_rng(4), 6, 3, 0.7
        )
        assert deliveries > 0

    @pytest.mark.parametrize("elements", [1, 40, 200])
    @pytest.mark.parametrize("n, S", [(3, 5), (9, 2)])
    def test_block_lengths_and_layouts(self, monkeypatch, elements, n, S):
        # Small element budgets force one-round and short blocks in
        # both layouts on shapes the reference can afford.
        monkeypatch.setattr(batch_kernels, "_CONTENTION_BLOCK_ELEMENTS", elements)
        kernel, run = _reference_kernel(
            FCSMAPolicy(), idealized_timing(12), n, S, 3, 0.7
        )
        blocks = kernel._ws.blocks
        assert [b.lo for b in blocks[1:]] == [b.hi for b in blocks[:-1]]
        assert blocks[0].lo == 0 and blocks[-1].hi == 12
        assert max(b.rounds for b in blocks) <= max(1, elements // (n * S))
        _, deliveries = _random_intervals(
            run, np.random.default_rng(6), 5, 3, 0.7
        )
        assert deliveries > 0


class TestOrderedServeBusyTime:
    """Busy time is attempts times the data airtime, taken in float64.

    On ``IntervalTiming(1.2, 0.4, 0.05, 0.0)`` a float32 product reads
    two 0.4 us attempts as 0.800000011920929 us."""

    @pytest.mark.parametrize(
        "policy",
        [ELDFPolicy, LDFPolicy, RoundRobinPolicy, StaticPriorityPolicy],
    )
    @pytest.mark.parametrize("rng", ["batch", "free"])
    def test_busy_is_a_float64_product(self, policy, rng):
        spec = NetworkSpec.from_delivery_ratios(
            arrivals=BernoulliArrivals.symmetric(8, 0.15),
            channel=BernoulliChannel.symmetric(8, 0.7),
            timing=IntervalTiming(1.2, 0.4, 0.05, 0.0),
            delivery_ratios=0.6,
        )
        sim = BatchIntervalSimulator(
            spec, policy(), (0, 1, 2), rng=rng, record_traces=True
        )
        result = sim.run(200)
        attempts = result.attempts.sum(axis=-1)
        np.testing.assert_array_equal(result.busy_time_us, attempts * 0.4)
        assert set(np.unique(result.busy_time_us)) == {0.0, 0.4, 0.8}

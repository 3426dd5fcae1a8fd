"""Tests for reproducible random-stream management."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BatchRngBundle, RngBundle


class TestRngBundle:
    def test_same_seed_same_streams(self):
        a, b = RngBundle(42), RngBundle(42)
        assert a.channel.random(5).tolist() == b.channel.random(5).tolist()
        assert a.arrivals.random(5).tolist() == b.arrivals.random(5).tolist()

    def test_different_seeds_differ(self):
        a, b = RngBundle(1), RngBundle(2)
        assert a.channel.random(5).tolist() != b.channel.random(5).tolist()

    def test_streams_are_independent_by_name(self):
        bundle = RngBundle(0)
        assert bundle.channel.random(5).tolist() != bundle.policy.random(5).tolist()

    def test_stream_creation_order_irrelevant(self):
        """The 'channel' stream is identical whether or not other streams
        were touched first — critical for cross-run comparability."""
        a = RngBundle(7)
        _ = a.arrivals.random(100)  # consume another stream first
        first = a.channel.random(3).tolist()
        b = RngBundle(7)
        second = b.channel.random(3).tolist()
        assert first == second

    def test_stream_is_cached(self):
        bundle = RngBundle(0)
        assert bundle.stream("x") is bundle.stream("x")

    def test_shared_stream_models_common_seed(self):
        """Two 'devices' with the same master seed derive the same C(k)
        sequence from the shared stream (Step 1 of Algorithm 2)."""
        device_a = RngBundle(99).shared
        device_b = RngBundle(99).shared
        draws_a = [int(device_a.integers(1, 20)) for _ in range(50)]
        draws_b = [int(device_b.integers(1, 20)) for _ in range(50)]
        assert draws_a == draws_b


class TestBatchRngBundle:
    def test_per_seed_streams_are_scalar_identical(self):
        """Seed s of a batch bundle draws the very same sequences as the
        scalar engine's RngBundle(s) — the foundation of sync-mode
        cross-validation."""
        batch = BatchRngBundle((4, 9, 17))
        for seed, bundle in zip(batch.seeds, batch.bundles):
            scalar = RngBundle(seed)
            for name in ("arrivals", "channel", "policy", "shared"):
                np.testing.assert_array_equal(
                    bundle.stream(name).random(20),
                    scalar.stream(name).random(20),
                )

    def test_per_seed_accessor_order(self):
        batch = BatchRngBundle((2, 7))
        streams = batch.per_seed("channel")
        assert len(streams) == 2
        np.testing.assert_array_equal(
            streams[1].random(5), RngBundle(7).channel.random(5)
        )

    def test_batch_streams_reproducible_from_seed_tuple(self):
        a = BatchRngBundle((0, 1, 2)).batch_stream("channel").random(10)
        b = BatchRngBundle((0, 1, 2)).batch_stream("channel").random(10)
        np.testing.assert_array_equal(a, b)

    def test_batch_streams_depend_on_all_seeds(self):
        """Changing any seed (or the order) reseeds every batch stream:
        the stack is one joint random experiment."""
        base = BatchRngBundle((0, 1, 2)).batch_stream("channel").random(10)
        changed = BatchRngBundle((0, 1, 3)).batch_stream("channel").random(10)
        reordered = BatchRngBundle((2, 1, 0)).batch_stream("channel").random(10)
        assert not np.array_equal(base, changed)
        assert not np.array_equal(base, reordered)

    def test_batch_streams_independent_by_name(self):
        batch = BatchRngBundle((0, 1))
        assert not np.array_equal(
            batch.batch_stream("channel").random(10),
            batch.batch_stream("policy").random(10),
        )

    def test_batch_namespace_never_collides_with_per_seed(self):
        """batch_stream('channel') must not alias any scalar stream, even
        for a single-seed batch whose entropy equals the scalar seed."""
        batch = BatchRngBundle((5,))
        scalar = RngBundle(5)
        assert not np.array_equal(
            batch.batch_stream("channel").random(10),
            scalar.stream("channel").random(10),
        )

    def test_batch_stream_is_cached(self):
        batch = BatchRngBundle((0,))
        assert batch.batch_stream("x") is batch.batch_stream("x")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            BatchRngBundle(())


class TestRowBlocks:
    SEEDS = (3, 4, 3, 4)
    TAGS = ("a", "a", "b", "b")

    def test_blocks_draw_their_independent_streams(self):
        """Rows tagged per block fill each block exactly as a bundle over
        that block's seeds and tag alone would draw it."""
        blocked = BatchRngBundle(self.SEEDS, stream_tag=self.TAGS)
        assert blocked.num_blocks == 2
        for kind in ("batch_stream", "free_stream"):
            got = getattr(blocked, kind)("x")
            refs = [
                getattr(BatchRngBundle(self.SEEDS[:2], tag), kind)("x")
                for tag in ("a", "b")
            ]

            def stacked(draw):
                return np.concatenate([draw(g) for g in refs], axis=1)

            np.testing.assert_array_equal(
                got.random((5, 4, 3)), stacked(lambda g: g.random((5, 2, 3)))
            )
            np.testing.assert_array_equal(
                got.standard_exponential((5, 4, 3), dtype=np.float32),
                stacked(
                    lambda g: g.standard_exponential((5, 2, 3), dtype=np.float32)
                ),
            )
            np.testing.assert_array_equal(
                got.integers(1, 9, size=(5, 4)),
                stacked(lambda g: g.integers(1, 9, size=(5, 2))),
            )

    def test_one_tag_per_row_matches_a_single_tag(self):
        same = BatchRngBundle((0, 1), stream_tag=("t", "t"))
        assert same.num_blocks == 1 and same.stream_tag == "t"
        np.testing.assert_array_equal(
            same.batch_stream("x").random(4),
            BatchRngBundle((0, 1), stream_tag="t").batch_stream("x").random(4),
        )

    def test_rows_must_sit_on_axis_one(self):
        stream = BatchRngBundle(self.SEEDS, self.TAGS).batch_stream("x")
        with pytest.raises(ValueError, match="row-block streams fill"):
            stream.random((4 * 5, 3))

    def test_tag_count_must_match_seeds(self):
        with pytest.raises(ValueError, match="3 row stream tags for 4 seeds"):
            BatchRngBundle(self.SEEDS, stream_tag=("a", "a", "b"))



class TestStreamDerivation:
    """Streams are seeded from one uint32 entropy array; the pool must be
    the one ``SeedSequence(entropy=seeds, spawn_key=code points)`` builds,
    so every stream keeps the values it had."""

    @staticmethod
    def _expected(seeds, key):
        return np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    entropy=list(seeds), spawn_key=[ord(c) for c in key]
                )
            )
        )

    @pytest.mark.parametrize(
        "seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 7, 2**70 + 3]
    )
    def test_scalar_streams(self, seed):
        bundle = RngBundle(seed)
        for name in ("arrivals", "channel", "policy", "shared", "x"):
            np.testing.assert_array_equal(
                bundle.stream(name).random(8),
                self._expected((seed,), name).random(8),
            )

    @pytest.mark.parametrize(
        "seeds",
        [(5,), (0,), tuple(range(8)), (3, 2**33 + 1), (0, 0, 0, 0, 0)],
        ids=["one", "zero", "eight", "wide", "five-zeros"],
    )
    @pytest.mark.parametrize("tag", [None, "fused"])
    def test_vector_streams(self, seeds, tag):
        bundle = BatchRngBundle(seeds, stream_tag=tag)
        prefix = "" if tag is None else f"[{tag}]"
        for kind in ("batch", "free"):
            for name in ("arrivals", "channel"):
                stream = getattr(bundle, f"{kind}_stream")(name)
                want = self._expected(seeds, f"{kind}{prefix}:{name}")
                np.testing.assert_array_equal(stream.random(8), want.random(8))

    def test_per_row_tagged_blocks(self):
        bundle = BatchRngBundle((1, 2, 3), stream_tag=["a", "a", "cell:7"])
        stream = bundle.batch_stream("arrivals")
        for (lo, hi), gen in zip(stream.bounds, stream.generators):
            tag = "a" if lo == 0 else "cell:7"
            want = self._expected((1, 2, 3)[lo:hi], f"batch[{tag}]:arrivals")
            np.testing.assert_array_equal(gen.random(8), want.random(8))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            RngBundle(-1).stream("arrivals")
        with pytest.raises(ValueError):
            BatchRngBundle((1, -2)).batch_stream("arrivals")

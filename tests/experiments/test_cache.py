"""Tests for the content-addressed on-disk sweep cache."""

from __future__ import annotations

import math

import pytest

from repro import DBDPPolicy, FCSMAPolicy, LDFPolicy
from repro.experiments.cache import (
    SweepCache,
    engine_version,
    fingerprint,
    policy_fingerprint,
    resolve_cache,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import SweepPoint


def spec():
    return video_symmetric_spec(0.5, num_links=4)


def make_point(value=1.25):
    return SweepPoint(
        parameter=float("nan"),
        policy="LDF",
        total_deficiency=value,
        deficiency_std=0.125,
        group_deficiency=(0.75, 0.5),
        collisions=3.0,
        mean_overhead_us=12.5,
    )


class TestKeys:
    def test_key_is_stable(self, tmp_path):
        cache = SweepCache(tmp_path)
        kw = dict(
            spec=spec(), policy=LDFPolicy(), seeds=(0, 1),
            num_intervals=100,
        )
        assert cache.cell_key(**kw) == cache.cell_key(**kw)

    @pytest.mark.parametrize(
        "change",
        [
            dict(spec=video_symmetric_spec(0.6, num_links=4)),
            dict(policy=DBDPPolicy()),
            dict(seeds=(0, 2)),
            dict(num_intervals=101),
            dict(groups=(0, 0, 1, 1)),
            dict(rng="sync"),
        ],
    )
    def test_any_input_change_changes_key(self, tmp_path, change):
        cache = SweepCache(tmp_path)
        base = dict(
            spec=spec(), policy=LDFPolicy(), seeds=(0, 1),
            num_intervals=100, groups=None, rng=None,
        )
        assert cache.cell_key(**base) != cache.cell_key(**{**base, **change})

    def test_policy_config_changes_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = dict(spec=spec(), seeds=(0,), num_intervals=50)
        a = cache.cell_key(policy=FCSMAPolicy(), **base)
        b = cache.cell_key(policy=FCSMAPolicy(window_map=(4, 8, 16)), **base)
        assert a is not None and b is not None and a != b

    def test_unknown_policy_is_uncacheable(self, tmp_path):
        class Mystery:
            name = "mystery"

        cache = SweepCache(tmp_path)
        assert (
            cache.cell_key(
                spec=spec(), policy=Mystery(), seeds=(0,), num_intervals=10
            )
            is None
        )

    def test_engine_version_covers_sources(self):
        v = engine_version()
        assert isinstance(v, str) and len(v) == 16
        assert v == engine_version()  # memoized, stable in-process
        # Every registered policy family's source is hashed, so editing
        # any policy invalidates its cached cells.
        import inspect
        from pathlib import Path

        import repro
        from repro.core import registry
        from repro.experiments import cache as cache_mod

        root = Path(repro.__file__).resolve().parent
        hashed = set(cache_mod._ENGINE_SOURCES)
        for name in registry.available():
            source = Path(inspect.getfile(registry.get(name).policy_class))
            rel = source.resolve().relative_to(root).as_posix()
            assert rel in hashed, f"{name}: {rel} is not hashed"
        assert list(cache_mod._ENGINE_SOURCES) == sorted(hashed)


class TestRoundTrip:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cache.cell_key(
            spec=spec(), policy=LDFPolicy(), seeds=(0,), num_intervals=10
        )
        assert cache.get(key) is None and cache.misses == 1
        point = make_point(value=0.1 + 0.2)  # a float that doesn't round-trip via str()
        cache.put(key, point)
        got = cache.get(key)
        assert cache.hits == 1 and cache.stores == 1
        assert got.total_deficiency == point.total_deficiency
        assert got.deficiency_std == point.deficiency_std
        assert got.group_deficiency == point.group_deficiency
        assert got.collisions == point.collisions
        assert got.mean_overhead_us == point.mean_overhead_us
        assert math.isnan(got.parameter)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cache.cell_key(
            spec=spec(), policy=LDFPolicy(), seeds=(0,), num_intervals=10
        )
        cache.put(key, make_point())
        path = cache._path(key)
        path.write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.get(key) is None


class TestCorruption:
    """A bad byte on disk must never kill a sweep: corrupt entries are
    quarantined with one warning and count as a miss (regression for the
    crash on truncated/hand-edited cache files)."""

    def entry(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cache.cell_key(
            spec=spec(), policy=LDFPolicy(), seeds=(0,), num_intervals=10
        )
        cache.put(key, make_point())
        return cache, key, cache._path(key)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda text: text[: len(text) // 2],  # truncated write
            lambda text: "[]",  # not an object
            lambda text: text.replace('"policy"', '"nope"'),  # missing field
            lambda text: text.replace('"LDF"', "42"),  # ill-typed field
            lambda text: text.replace(
                '"total_deficiency":', '"total_deficiency":"NaN-ish",'
                '"x":'
            ),  # non-numeric measurement
        ],
    )
    def test_bad_payload_is_quarantined_miss(self, tmp_path, mutate):
        cache, key, path = self.entry(tmp_path)
        path.write_text(mutate(path.read_text()))
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.misses == 1 and cache.quarantined == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_second_get_is_a_plain_miss(self, tmp_path):
        """After quarantine the entry is gone: the next read misses
        silently (no second warning for the same bad file)."""
        cache, key, path = self.entry(tmp_path)
        path.write_text("{truncated")
        with pytest.warns(UserWarning):
            cache.get(key)
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert cache.get(key) is None
        assert cache.misses == 2 and cache.quarantined == 1

    def test_recompute_and_restore_after_quarantine(self, tmp_path):
        """The quarantined cell can be re-stored and then hits again."""
        cache, key, path = self.entry(tmp_path)
        path.write_text("junk")
        with pytest.warns(UserWarning):
            assert cache.get(key) is None
        cache.put(key, make_point(value=2.5))
        got = cache.get(key)
        assert got is not None and got.total_deficiency == 2.5

    def test_schema_mismatch_is_a_silent_miss(self, tmp_path):
        """A different schema number is an old/new writer, not
        corruption: miss without quarantine or warning."""
        cache, key, path = self.entry(tmp_path)
        path.write_text(path.read_text().replace('"schema":1', '"schema":99'))
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert cache.get(key) is None
        assert cache.quarantined == 0
        assert path.exists()  # left in place for the newer writer


class TestResolve:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_passthrough_and_path(self, tmp_path):
        store = SweepCache(tmp_path)
        assert resolve_cache(store) is store
        opened = resolve_cache(tmp_path / "sub")
        assert isinstance(opened, SweepCache)

    def test_env_var_off_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert resolve_cache(True) is None
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env"))
        store = resolve_cache(True)
        assert store is not None and store.root == tmp_path / "env"


class TestFingerprint:
    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_known_policies_fingerprint(self):
        for policy in (LDFPolicy(), DBDPPolicy(), FCSMAPolicy()):
            fp = policy_fingerprint(policy)
            assert fp is not None and fp["class"] == type(policy).__qualname__


class TestSweepIntegration:
    def test_warm_rerun_is_bit_identical(self, tmp_path):
        cache = SweepCache(tmp_path)
        kw = dict(
            parameter_name="alpha",
            values=[0.45, 0.6],
            spec_builder=lambda a: video_symmetric_spec(a, num_links=4),
            policies={"LDF": LDFPolicy, "DB-DP": DBDPPolicy},
            num_intervals=80,
            seeds=(0, 1, 2),
        )
        cold = run_sweep_fused(**kw, cache=cache)
        assert cache.stores == 4 and cache.hits == 0
        warm = run_sweep_fused(**kw, cache=cache)
        assert cache.hits == 4 and cache.stores == 4
        assert warm.points == cold.points

    def test_seed_change_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        kw = dict(
            parameter_name="alpha",
            values=[0.5],
            spec_builder=lambda a: video_symmetric_spec(a, num_links=4),
            policies={"LDF": LDFPolicy},
            num_intervals=40,
        )
        run_sweep_fused(**kw, seeds=(0,), cache=cache)
        run_sweep_fused(**kw, seeds=(1,), cache=cache)
        assert cache.stores == 2 and cache.hits == 0


class TestGoldenKeys:
    """Cache keys must not drift for already-registered policies.

    Keys embed :func:`engine_version` (a hash of the engine sources), so
    the durable contract is the key computed *with that hash pinned*:
    these golden values were recorded on main before the registry
    refactor with ``_engine_version_cache = "0" * 16``.  A mismatch
    means the spec/policy fingerprint encoding changed — which silently
    invalidates (or worse, aliases) every previously stored cell.
    """

    GOLDEN = {
        "dbdp": "cf231f718dce4f3dc5742da1c98de4f6ee964d0551fd077ea58059faaffe8986",
        "ldf": "44a78c5ce657f8a655642c1a34fd8eda549ae913a2210dd3e8a66964f2fe5937",
        "eldf": "9a6a497f8695959faa1e220ca16cb9d288ce1658a296dd2b66c1df58ad3dd228",
        "fcsma": "83bc7d967a5b8997d453603edd4bbd566928167786031e30d1800f35ffc82b87",
        "dcf": "0755447a7d5b0544ce5965705a093c20c027bfc96c8cabff5907a1cb6124e038",
        "frame": "d530907ec759518c887ce58e1b1d38e20a08183184753977113bb483ce53a20d",
        "rr": "6752ad12605bd706b5cb6a69755227e1396d572419c8de2bc819fcb0978a49e1",
        "sp": "8866bf8e298337e43b90eb35ba9130a3c6f944afb45c44ce5cd2b7c7fc8a01ce",
        "sp-rev": "3f82b11b58eb0021fcbc02d427b4d1fb33c2f18c98fcb5398e1ae872b482fae6",
        "dp-const": "a4c5c74a1929a1b0063c9b05ef5d52af31c99352b34965f077f50625baeedd6b",
        "dbdp-r5-p2": "b6a10efe6bf4b949aa8a9e1c2925ec89af4c7897f69b89cdbbbd0c6034a0b6d6",
        "est": "5544d1d7f7184d97fe238cfe2151e21f161ee16b444990460882bc9b7ecb39bc",
        # Channel fingerprints ride in the spec encoding: recorded when
        # the batchable channel layer landed, so key drift here means the
        # channel codec changed shape.
        "dbdp-ge": "5097b706a54f1b184d494f6259ec3baa0a4dd19729a226311ece348731f88551",
        "ldf-tv": "14faee2ebcd736480c717a2b6c6a032a4d01a57dae273ccc0b9a1e401655beb4",
        # Arrival fingerprints ride in the spec encoding the same way:
        # recorded when the batchable arrival-state layer landed, so key
        # drift here means the arrivals codec changed shape.
        "dbdp-mmpp": "07531ae8c9c8338fd73a9befe5279126366e08c18c636235854f79a4420e2601",
        "ldf-pareto": "36a426a9ebf0a3625687559ddc060d1634e9e953041b6df92c15d1bb7b363829",
    }

    @staticmethod
    def _policies():
        from repro import (
            DCFPolicy,
            DPProtocol,
            ConstantSwapBias,
            ELDFPolicy,
            EstimatedDBDPPolicy,
            FrameCSMAPolicy,
            RoundRobinPolicy,
            StaticPriorityPolicy,
        )
        import dataclasses

        from repro import GilbertElliottChannel, NetworkSpec
        from repro.experiments.configs import low_latency_spec
        from repro.phy.channel import TimeVaryingReliability
        from repro.traffic.arrivals import (
            MarkovModulatedArrivals,
            ParetoBurstArrivals,
        )

        video = video_symmetric_spec(0.55, delivery_ratio=0.9)
        ge_video = dataclasses.replace(
            video, channel=GilbertElliottChannel(video.num_links)
        )
        tv_video = dataclasses.replace(
            video,
            channel=TimeVaryingReliability.symmetric(
                video.num_links, 0.8, profile="ramp", period=50, amplitude=0.1
            ),
        )
        mmpp_video = NetworkSpec.from_delivery_ratios(
            arrivals=MarkovModulatedArrivals(
                video.num_links, 0.7, 0.1, 0.8, 0.85, "stationary"
            ),
            channel=video.channel,
            timing=video.timing,
            delivery_ratios=0.9,
        )
        pareto_video = NetworkSpec.from_delivery_ratios(
            arrivals=ParetoBurstArrivals(
                video.num_links, start_prob=0.2, tail=1.5, dur_max=32
            ),
            channel=video.channel,
            timing=video.timing,
            delivery_ratios=0.9,
        )
        return {
            "dbdp": (DBDPPolicy(), video),
            "ldf": (LDFPolicy(), video),
            "eldf": (ELDFPolicy(), video),
            "fcsma": (FCSMAPolicy(), video),
            "dcf": (DCFPolicy(), video),
            "frame": (FrameCSMAPolicy(), video),
            "rr": (RoundRobinPolicy(), video),
            "sp": (StaticPriorityPolicy(), video),
            "sp-rev": (StaticPriorityPolicy(list(range(1, 21))[::-1]), video),
            "dp-const": (DPProtocol(bias=ConstantSwapBias(0.5)), video),
            "dbdp-r5-p2": (
                DBDPPolicy(glauber_r=5.0, num_pairs=2),
                low_latency_spec(0.78),
            ),
            "est": (EstimatedDBDPPolicy(), video),
            "dbdp-ge": (DBDPPolicy(), ge_video),
            "ldf-tv": (LDFPolicy(), tv_video),
            "dbdp-mmpp": (DBDPPolicy(), mmpp_video),
            "ldf-pareto": (LDFPolicy(), pareto_video),
        }

    def test_keys_match_pre_registry_golden_values(self, tmp_path, monkeypatch):
        import repro.experiments.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_engine_version_cache", "0" * 16)
        cache = SweepCache(tmp_path)
        mismatches = {}
        for label, (policy, cell_spec) in self._policies().items():
            key = cache.cell_key(
                spec=cell_spec,
                policy=policy,
                seeds=(0, 1, 2),
                num_intervals=250,
                groups=None,
                rng="sync",
            )
            if key != self.GOLDEN[label]:
                mismatches[label] = key
        assert not mismatches

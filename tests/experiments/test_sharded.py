"""Sharded fused sweeps: determinism, fault recovery, cache resume.

The sharding contract: results are a pure function of (sweep definition,
seeds, shard count).  Shard membership is a contiguous split of the full
cell list and each shard draws from its own ``fused/shard{i}of{K}``
stream namespace, so

* the same shard count is bit-identical across reruns, worker kills,
  cache resumes, and pooled-vs-in-process execution;
* different shard counts are independent samples of the same estimator
  (statistically equivalent, asserted with the joint confidence bound of
  ``test_fused_statistical.py``);
* ``rng="sync"`` ignores stream tags entirely, so sharded sync runs
  are bit-identical to unsharded ones.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.cache import SweepCache
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.faults import ENV_FAULT_INJECT, FaultPolicy, SweepCellError
from repro.experiments.grid import run_sweep_fused
from repro.experiments.parallel import _Orchestrator
from repro.experiments.runner import run_sweep
from repro.topology import grid_cells

VALUES = (0.5, 0.55, 0.6, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
SEEDS = (0, 1)
INTERVALS = 100


def _totals(result):
    return [p.total_deficiency for p in result.points]


def _two_cells(spec):
    return grid_cells(spec.num_links, 2, 0.2)


def _sweep(**overrides):
    kw = dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=video_symmetric_spec,
        policies=POLICIES,
        num_intervals=INTERVALS,
        seeds=SEEDS,
    )
    kw.update(overrides)
    return run_sweep_fused(**kw)


class TestShardDeterminism:
    def test_same_shard_count_is_bit_identical(self):
        assert _sweep(shards=2).points == _sweep(shards=2).points

    def test_different_shard_counts_differ(self):
        # Different splits draw from different stream namespaces; both
        # are valid samples but they are not the same sample.
        assert _totals(_sweep(shards=2)) != _totals(_sweep(shards=3))

    def test_shards_one_equals_unsharded(self):
        assert _sweep(shards=1).points == _sweep().points

    def test_sync_rng_sharding_is_bit_identical_to_unsharded(self):
        assert (
            _sweep(shards=2, rng="sync").points
            == _sweep(rng="sync").points
        )

    def test_in_process_fallback_matches_pooled(self):
        # A lambda builder cannot be pickled into pool workers; the
        # sharded path must warn and fall back to in-process execution
        # with identical results (draws depend only on the shard count).
        pooled = _sweep(shards=2)
        with pytest.warns(UserWarning, match="not picklable"):
            local = _sweep(
                shards=2,
                spec_builder=lambda a: video_symmetric_spec(a),
            )
        assert local.points == pooled.points

    def test_shards_require_fused_engine(self):
        with pytest.raises(ValueError, match="requires engine='fused'"):
            run_sweep(
                "alpha", VALUES, video_symmetric_spec, POLICIES, INTERVALS,
                SEEDS, engine="batch", shards=2,
            )

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            _sweep(shards=0)


class TestShardStatisticalEquivalence:
    """Shard-count invariance of the estimator, CI-bounded per cell."""

    SEEDS = tuple(range(24))
    VALUES = (0.5, 0.65)

    @pytest.fixture(scope="class")
    def sweeps(self):
        kw = dict(
            parameter_name="alpha",
            values=self.VALUES,
            spec_builder=video_symmetric_spec,
            policies=POLICIES,
            num_intervals=400,
            seeds=self.SEEDS,
        )
        return run_sweep_fused(**kw), run_sweep_fused(**kw, shards=3)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("value", (0.5, 0.65))
    def test_means_within_joint_confidence_bound(self, sweeps, policy, value):
        unsharded, sharded = sweeps
        (u,) = [
            p for p in unsharded.points
            if p.policy == policy and p.parameter == value
        ]
        (s,) = [
            p for p in sharded.points
            if p.policy == policy and p.parameter == value
        ]
        n = len(self.SEEDS)
        se = math.sqrt(
            (u.deficiency_std**2 + s.deficiency_std**2) / max(n - 1, 1)
        )
        tol = 3.0 * se + 0.02
        assert abs(u.total_deficiency - s.total_deficiency) <= tol, (
            f"{policy}@{u.parameter}: unsharded {u.total_deficiency:.4f} "
            f"vs 3-sharded {s.total_deficiency:.4f} (tol {tol:.4f})"
        )


class TestShardFaultRecovery:
    def test_worker_kill_retries_and_recovers(self, monkeypatch):
        # Kill the worker running DB-DP@0.65 on its first attempt only;
        # the orchestrator observes the broken pool, respawns it, and the
        # retry produces a result identical to a fault-free run.
        reference = _sweep(shards=2)
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:1")
        recovered = _sweep(
            shards=2, faults=FaultPolicy(retries=1, backoff_base=0.0)
        )
        assert recovered.points == reference.points

    def test_topology_worker_kill_retries_and_recovers(self, monkeypatch):
        # Topology cells draw from per-cell streams, so the recovered
        # 2-shard sweep equals the unsharded one.
        reference = _sweep(topology=_two_cells)
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:1")
        recovered = _sweep(
            topology=_two_cells, shards=2,
            faults=FaultPolicy(retries=1, backoff_base=0.0),
        )
        assert recovered.points == reference.points

    def test_permanent_kill_is_strict_by_default(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:*")
        with pytest.raises(SweepCellError, match="shard"):
            _sweep(shards=2, faults=FaultPolicy(retries=1, backoff_base=0.0))

    def test_permanent_failure_best_effort_nans_whole_shard(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_INJECT, "raise:DB-DP:0.65:*")
        result = _sweep(
            shards=2,
            faults=FaultPolicy(retries=0, backoff_base=0.0,
                               mode="best_effort"),
        )
        # The failing cell's whole shard is NaN-filled and every member
        # is named in the failure report.
        assert result.failures is not None
        failed = {(f.value, f.policy) for f in result.failures.failures}
        assert (0.65, "DB-DP") in failed
        nan_cells = [
            (p.parameter, p.policy)
            for p in result.points
            if math.isnan(p.total_deficiency)
        ]
        assert set(nan_cells) == failed
        # Cells of the healthy shard are real measurements.
        healthy = [
            p for p in result.points
            if (p.parameter, p.policy) not in failed
        ]
        assert healthy and all(
            not math.isnan(p.total_deficiency) for p in healthy
        )

    def test_kill_mid_sweep_resumes_through_cache(self, monkeypatch, tmp_path):
        reference = _sweep(shards=2)
        cache_dir = str(tmp_path / "cache")
        # Run 1: the second shard's worker dies on every attempt; the
        # first shard's cells are checkpointed before the sweep aborts.
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:*")
        with pytest.raises(SweepCellError):
            _sweep(
                shards=2, cache=cache_dir,
                faults=FaultPolicy(retries=0, backoff_base=0.0),
            )
        checkpointed = len(os.listdir(cache_dir))
        assert checkpointed == len(VALUES) * len(POLICIES) // 2
        # Run 2: the fault directive no longer fires; only the cold
        # shard is recomputed (same stream tag), and the assembled sweep
        # is bit-identical to an uninterrupted fault-free run.
        monkeypatch.delenv(ENV_FAULT_INJECT)
        resumed = _sweep(shards=2, cache=cache_dir)
        assert resumed.points == reference.points

    def test_warm_cache_skips_all_shards(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = _sweep(shards=2, cache=cache_dir)
        again = _sweep(shards=2, cache=cache_dir)
        assert again.points == first.points


class TestPoolBreakAttribution:
    """A killed worker breaks the whole pool and fails every shard in it;
    only the shard that breaks a pool while running alone is charged."""

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    def test_innocent_shards_checkpoint_and_culprit_is_named(
        self, monkeypatch, tmp_path, max_workers, shards
    ):
        monkeypatch.setattr(
            _Orchestrator,
            "_new_pool",
            lambda self: ProcessPoolExecutor(max_workers=max_workers),
        )
        # DB-DP@0.65 is the 7th of 8 cells: always in the last shard.
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:*")
        cache = SweepCache(tmp_path)
        with pytest.raises(SweepCellError) as err:
            _sweep(
                shards=shards, cache=cache,
                faults=FaultPolicy(retries=0, backoff_base=0.0),
            )
        num_cells = len(VALUES) * len(POLICIES)
        last = num_cells // shards
        assert err.value.policy == f"shard {shards}/{shards} ({last} cells)"
        assert err.value.attempts == 1
        assert cache.stores == num_cells - last

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_topology_sweep_culprit_is_named_and_innocents_checkpoint(
        self, monkeypatch, tmp_path, max_workers, shards
    ):
        monkeypatch.setattr(
            _Orchestrator,
            "_new_pool",
            lambda self: ProcessPoolExecutor(max_workers=max_workers),
        )
        monkeypatch.setenv(ENV_FAULT_INJECT, "kill:DB-DP:0.65:*")
        cache = SweepCache(tmp_path)
        with pytest.raises(SweepCellError) as err:
            _sweep(
                topology=_two_cells, shards=shards, cache=cache,
                faults=FaultPolicy(retries=0, backoff_base=0.0),
            )
        num_cells = len(VALUES) * len(POLICIES)
        last = num_cells // shards
        assert err.value.policy == f"shard {shards}/{shards} ({last} cells)"
        assert err.value.attempts == 1
        assert cache.stores == num_cells - last
        monkeypatch.delenv(ENV_FAULT_INJECT)
        resumed = _sweep(topology=_two_cells, shards=shards, cache=cache)
        assert cache.hits == num_cells - last
        assert resumed.points == _sweep(topology=_two_cells).points

"""Bit-identity and knob tests for ``dp_state="incremental"``.

The incremental sparse priority-state engine keeps the DP kernel's
inverse permutation and serve-order tables alive in the workspace across
intervals, applies accepted adjacent swaps in O(commits), and solves the
interval timeline on the at-most ``max_transmissions + 1`` backlogged
serve-set links instead of all N.  The contract is *bit-identity* with
the dense recompute under the same RNG bundle: every derived quantity is
a small exact integer carried in float, so the two state-maintenance
strategies must agree on every interval of every replication — asserted
here per interval, across draw disciplines, and at the large N the
engine exists for.

The knob itself resolves in three tiers: ``None`` defers to the
``REPRO_DP_STATE`` environment variable and then to the policy family's
``incremental_dp`` registry field; explicit requests are
strict, environment requests degrade silently (see
:func:`repro.sim.batch_kernels.resolve_dp_state`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBDPPolicy, ELDFPolicy
from repro.core.permutations import (
    apply_adjacent_swap,
    apply_swap_to_order,
    link_order_to_priorities,
    priority_to_link_order,
)
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_kernels import DP_STATE_MODES, resolve_dp_state
from repro.sim.batch_sim import BatchIntervalSimulator


def _run(
    n,
    dp_state,
    num_intervals,
    *,
    alpha=0.55,
    rng=None,
    seeds=(0, 1, 2),
    force_sequential=False,
):
    sim = BatchIntervalSimulator(
        video_symmetric_spec(alpha, num_links=n),
        DBDPPolicy(),
        seeds=seeds,
        record_traces=True,
        record_priorities=True,
        validate=False,
        rng=rng,
        dp_state=dp_state,
    )
    if force_sequential:
        sim.kernel._force_sequential = True
    return sim, sim.run(num_intervals)


def _assert_runs_identical(a, b, context=""):
    """Per-interval, per-replication, per-link equality of every trace."""
    assert np.array_equal(a.deliveries, b.deliveries), context
    assert np.array_equal(a.attempts, b.attempts), context
    assert np.array_equal(a.priorities, b.priorities), context
    assert np.array_equal(a.overhead_time_us, b.overhead_time_us), context
    assert np.array_equal(a.busy_time_us, b.busy_time_us), context
    assert np.array_equal(a.collisions, b.collisions), context


class TestDenseIncrementalBitIdentity:
    """dense and incremental must agree on every interval at every N."""

    @pytest.mark.parametrize(
        "n,num_intervals",
        [(2, 300), (3, 300), (20, 200), (200, 60)],
    )
    def test_every_interval_identical(self, n, num_intervals):
        _, dense = _run(n, "dense", num_intervals)
        sim, inc = _run(n, "incremental", num_intervals)
        assert sim.dp_state == "incremental"
        _assert_runs_identical(dense, inc, f"N={n}")

    def test_congested_stack_identical(self):
        # High alpha keeps everyone backlogged, so commits and
        # misfitting empty claims fire constantly.
        _, dense = _run(20, "dense", 250, alpha=0.95)
        _, inc = _run(20, "incremental", 250, alpha=0.95)
        _assert_runs_identical(dense, inc, "congested")

    def test_forced_sequential_rows_match_vectorized(self):
        # The per-row Python resolver is the vectorized block solve's
        # fallback; forcing it on every row must change nothing.
        _, vec = _run(20, "incremental", 150)
        _, seq = _run(20, "incremental", 150, force_sequential=True)
        _assert_runs_identical(vec, seq, "force_sequential")

    def test_free_rng_discipline_identical_across_dp_state(self):
        # free mode draws different values than batch mode, but dense
        # and incremental under the *same* discipline must still agree.
        _, dense = _run(20, "dense", 200, rng="free")
        _, inc = _run(20, "incremental", 200, rng="free")
        _assert_runs_identical(dense, inc, "rng=free")


class TestCrossBackendIdentity:
    """The dense and incremental priority-state paths consume the same
    draws and must agree bit for bit at large N (the N=200 outputs are
    also pinned in ``tests/integration/test_kernel_backends.py``)."""

    def test_n2000_dense_vs_incremental(self):
        # The scale the engine exists for; few intervals keep it cheap.
        _, dense = _run(2000, "dense", 6, seeds=(0, 1))
        _, inc = _run(2000, "incremental", 6, seeds=(0, 1))
        _assert_runs_identical(dense, inc, "N=2000")


class TestDpStateResolution:
    """Capability default, strict explicit requests, soft environment
    requests."""

    def test_modes_tuple(self):
        assert DP_STATE_MODES == ("dense", "incremental")

    def test_default_is_incremental_for_capable_workspace(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_STATE", raising=False)
        assert (
            resolve_dp_state(None, supports_incremental=True) == "incremental"
        )

    def test_default_is_dense_when_not_capable(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_STATE", raising=False)
        assert resolve_dp_state(None, supports_incremental=False) == "dense"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown dp_state"):
            resolve_dp_state("sparse", supports_incremental=True)

    def test_explicit_incremental_without_capability_raises(self):
        with pytest.raises(ValueError, match="incremental DP priority state"):
            resolve_dp_state("incremental", supports_incremental=False)

    def test_env_request_degrades_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_STATE", "incremental")
        assert (
            resolve_dp_state(None, supports_incremental=False) == "dense"
        )
        assert (
            resolve_dp_state(None, supports_incremental=True) == "incremental"
        )

    def test_env_unknown_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_STATE", "bogus")
        with pytest.raises(ValueError, match="unknown dp_state"):
            resolve_dp_state(None, supports_incremental=True)

    def test_simulator_reports_resolved_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_STATE", raising=False)
        # Sparse serve set (N > max_transmissions + 1 = 61 on the video
        # timing): the capability default picks the incremental path.
        big = video_symmetric_spec(0.6, num_links=80)
        sim = BatchIntervalSimulator(
            big, DBDPPolicy(), seeds=(0,), validate=False
        )
        assert sim.dp_state == "incremental"

    def test_default_declines_incremental_on_dense_serve_set(
        self, monkeypatch
    ):
        # Paper-scale N (20 links, budget 60): every link fits in the
        # budget, there is no sparsity to exploit, and the silent
        # default keeps the dense path — an explicit request (or the
        # environment) still gets the bit-identical incremental path.
        monkeypatch.delenv("REPRO_DP_STATE", raising=False)
        spec = video_symmetric_spec(0.6, num_links=20)
        auto = BatchIntervalSimulator(
            spec, DBDPPolicy(), seeds=(0,), validate=False
        )
        assert auto.dp_state == "dense"
        explicit = BatchIntervalSimulator(
            spec,
            DBDPPolicy(),
            seeds=(0,),
            validate=False,
            dp_state="incremental",
        )
        assert explicit.dp_state == "incremental"
        monkeypatch.setenv("REPRO_DP_STATE", "incremental")
        env = BatchIntervalSimulator(
            spec, DBDPPolicy(), seeds=(0,), validate=False
        )
        assert env.dp_state == "incremental"

    def test_non_dp_family_rejects_explicit_incremental(self):
        with pytest.raises(ValueError, match="incremental DP priority state"):
            BatchIntervalSimulator(
                video_symmetric_spec(0.6, num_links=6),
                ELDFPolicy(),
                seeds=(0,),
                validate=False,
                dp_state="incremental",
            )

    def test_multipair_degrades_with_warning_and_stays_identical(self):
        # Remark-6 multi-pair stacks keep the dense recompute; an
        # explicit request degrades loudly, then runs bit-identically.
        spec = video_symmetric_spec(0.6, num_links=8)
        with pytest.warns(RuntimeWarning, match="single-pair"):
            sim = BatchIntervalSimulator(
                spec,
                DBDPPolicy(num_pairs=2),
                seeds=(0, 1),
                record_priorities=True,
                validate=False,
                dp_state="incremental",
            )
        assert sim.dp_state == "dense"
        inc_req = sim.run(120)
        dense = BatchIntervalSimulator(
            spec,
            DBDPPolicy(num_pairs=2),
            seeds=(0, 1),
            record_priorities=True,
            validate=False,
            dp_state="dense",
        ).run(120)
        _assert_runs_identical(dense, inc_req, "multi-pair degrade")


class TestOrderMaintenancePrimitive:
    """``apply_swap_to_order`` is the O(1) scalar counterpart of the
    kernel's swap application; it must commute with the sigma-space
    swap through the order/priority bijection."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_order_swap_matches_sigma_swap(self, n):
        rng = np.random.default_rng(41)
        for _ in range(30):
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            c = int(rng.integers(1, n))
            expected = priority_to_link_order(apply_adjacent_swap(sigma, c))
            order = list(priority_to_link_order(sigma))
            down, up = apply_swap_to_order(order, c)
            assert tuple(order) == expected
            # The returned pair is the pre-swap occupants of (c, c+1).
            assert sigma[down] == c and sigma[up] == c + 1
            # Round-trip: the mutated order maps back to the swapped sigma.
            assert link_order_to_priorities(order) == apply_adjacent_swap(
                sigma, c
            )

    def test_out_of_range_candidate_raises(self):
        with pytest.raises(ValueError):
            apply_swap_to_order([0, 1, 2], 0)
        with pytest.raises(ValueError):
            apply_swap_to_order([0, 1, 2], 3)


class TestSweepLevelDpState:
    """A sweep-level ``dp_state`` request addresses the DP-family cells
    only; families without ``incremental_dp`` (ELDF/LDF) must
    run exactly as they would with ``dp_state=None`` — neither raising
    the kernel's strict ``ValueError`` nor silently demoting their fused
    group to the per-cell fallback (whose different stream tags would
    change the draws)."""

    POLICIES = {"DBDP": DBDPPolicy, "LDF": ELDFPolicy}

    @staticmethod
    def _points(sweep):
        return [
            (p.policy, p.parameter, p.total_deficiency, p.collisions)
            for p in sweep.points
        ]

    def test_fused_sweep_is_invariant_to_dp_state(self):
        from repro.experiments.grid import run_sweep_fused

        kw = dict(num_intervals=40, seeds=(0, 1))
        base = run_sweep_fused(
            "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES, **kw
        )
        for mode in ("dense", "incremental"):
            got = run_sweep_fused(
                "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES,
                dp_state=mode, **kw
            )
            assert self._points(got) == self._points(base), mode

    def test_batch_sweep_is_invariant_to_dp_state(self):
        from repro.experiments.runner import run_sweep

        kw = dict(seeds=(0, 1), engine="batch")
        base = run_sweep(
            "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES, 40,
            **kw
        )
        got = run_sweep(
            "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES, 40,
            dp_state="incremental", **kw
        )
        assert self._points(got) == self._points(base)

    def test_run_single_degrades_for_non_dp_family(self):
        from repro.experiments.runner import run_single

        spec = video_symmetric_spec(0.6)
        base = run_single(spec, ELDFPolicy, 40, seeds=(0, 1), engine="batch")
        got = run_single(
            spec, ELDFPolicy, 40, seeds=(0, 1), engine="batch",
            dp_state="incremental",
        )
        assert got.total_deficiency == base.total_deficiency
        assert got.collisions == base.collisions

    @pytest.mark.parametrize("entry", ["run_single", "run_sweep_fused"])
    def test_unknown_dp_state_rejected_before_degrade(self, entry):
        from repro.experiments.grid import run_sweep_fused
        from repro.experiments.runner import run_single

        spec = video_symmetric_spec(0.6)
        with pytest.raises(ValueError, match="dp_state"):
            if entry == "run_single":
                run_single(
                    spec, ELDFPolicy, 20, seeds=(0,), engine="batch",
                    dp_state="bogus",
                )
            else:
                run_sweep_fused(
                    "alpha", [0.6], video_symmetric_spec, self.POLICIES,
                    num_intervals=20, seeds=(0,), dp_state="bogus",
                )

"""Bit-identity of the DP kernel's two priority-state paths, and the
rule that picks one.

The incremental sparse priority-state engine keeps the DP kernel's
inverse permutation and serve-order tables alive in the workspace across
intervals, applies accepted adjacent swaps in O(commits), and solves the
interval timeline on the at-most ``max_transmissions + 1`` backlogged
serve-set links instead of all N.  The contract is *bit-identity* with
the dense recompute under the same RNG bundle: every derived quantity is
a small exact integer carried in float, so the two state-maintenance
strategies must agree on every interval of every replication — asserted
here per interval, across draw disciplines, and at the large N the
engine exists for.  The tests pick the path through the kernel's
private ``_force_dp_state`` hook (:mod:`tests.sim.dp_paths`).

No option picks the path: ``BatchDPKernel`` binds the incremental one
exactly when the stack has one swap pair, a static channel, a non-sync
draw discipline and more links than ``max_transmissions + 1``, and every
other kernel family reports ``"dense"``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    ConstantSwapBias,
    DBDPPolicy,
    DCFPolicy,
    DPProtocol,
    ELDFPolicy,
    EstimatedDBDPPolicy,
    FCSMAPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
)
from repro.core.permutations import (
    apply_adjacent_swap,
    apply_swap_to_order,
    link_order_to_priorities,
    priority_to_link_order,
)
from repro.experiments.configs import video_symmetric_spec
from repro.phy.channel import channel_from_spec
from repro.sim.batch_sim import BatchIntervalSimulator, batch_refusal
from repro.topology import TopologySimulator, partition_cells
from tests.sim.dp_paths import dp_path
from tests.sim.dp_reference import ReferenceCheck

#: The video timing's transmission budget: at most 61 links transmit.
BUDGET = video_symmetric_spec(0.6, num_links=2).timing.max_transmissions


def _run(
    n,
    dp_state,
    num_intervals,
    *,
    alpha=0.55,
    rng=None,
    seeds=(0, 1, 2),
    check=False,
):
    """Run DB-DP on the video network; ``check=True`` compares every
    interval with the exact sequential reference (:class:`ReferenceCheck`,
    returned as ``sim.check``)."""
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            video_symmetric_spec(alpha, num_links=n),
            DBDPPolicy(),
            seeds=seeds,
            record_traces=True,
            record_priorities=True,
            validate=False,
            rng=rng,
        )
    if check:
        sim.check = ReferenceCheck(sim.kernel)
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
        # Every row of the serve-set block solve must equal the exact
        # sequential sweep on the same draws, misfitting claims included.
        sim, _ = _run(20, "incremental", 150, alpha=0.95, check=True)
        assert sim.check.intervals == 150
        assert sim.check.misfits > 0

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
    """The kernel picks its path from the network it binds; no request,
    environment variable or registry field reaches it."""

    def test_default_is_incremental_for_capable_workspace(self):
        # The path follows the kernel, not a registry entry: a subclass
        # served by the DP kernel (EstimatedDBDPPolicy rides on DB-DP)
        # takes the incremental state on the workspace path, and its
        # sync clones never do.
        spec = video_symmetric_spec(0.6, num_links=BUDGET + 2)
        for rng, expected in (
            ("batch", "incremental"),
            ("free", "incremental"),
            ("sync", "dense"),
        ):
            sim = BatchIntervalSimulator(
                spec, EstimatedDBDPPolicy(), seeds=(0,), validate=False,
                rng=rng,
            )
            assert sim.dp_state == expected, rng

    def test_default_is_dense_when_not_capable(self):
        # Only the DP kernel has an incremental path; the hook is the
        # DP kernel's and reaches no other family.
        spec = video_symmetric_spec(0.6, num_links=BUDGET + 2)
        with dp_path("incremental"):
            for policy in NON_DP_POLICIES:
                sim = BatchIntervalSimulator(
                    spec, policy(), seeds=(0,), validate=False
                )
                assert sim.dp_state == "dense", policy
                assert sim.kernel.dp_state == "dense", policy

    def test_env_request_degrades_silently(self, monkeypatch, recwarn):
        # No environment variable steers the path, whatever it asks for.
        monkeypatch.setenv("REPRO_DP_STATE", "incremental")
        small = BatchIntervalSimulator(
            video_symmetric_spec(0.6, num_links=20), DBDPPolicy(),
            seeds=(0,), validate=False,
        )
        assert small.dp_state == "dense"
        monkeypatch.setenv("REPRO_DP_STATE", "dense")
        big = BatchIntervalSimulator(
            video_symmetric_spec(0.6, num_links=BUDGET + 2), DBDPPolicy(),
            seeds=(0,), validate=False,
        )
        assert big.dp_state == "incremental"
        assert not recwarn.list

    def test_simulator_reports_resolved_mode(self):
        # Sparse serve set (N > max_transmissions + 1 = 61 on the video
        # timing): the kernel picks the incremental path, and the
        # simulator reports the kernel's choice.
        big = video_symmetric_spec(0.6, num_links=80)
        sim = BatchIntervalSimulator(
            big, DBDPPolicy(), seeds=(0,), validate=False
        )
        assert sim.dp_state == sim.kernel.dp_state == "incremental"
        with pytest.raises(AttributeError):
            sim.dp_state = "dense"

    def test_default_declines_incremental_on_dense_serve_set(self):
        # The whole rule, pinned as a table: every (family, pairs, N,
        # channel, rng) combination binds dense except these four.
        incremental = {
            ("DP", 1, BUDGET + 2, "static", "batch"),
            ("DP", 1, BUDGET + 2, "static", "free"),
            ("DB-DP", 1, BUDGET + 2, "static", "batch"),
            ("DB-DP", 1, BUDGET + 2, "static", "free"),
        }
        families = {
            "DP": lambda pairs: DPProtocol(
                ConstantSwapBias(0.5), num_pairs=pairs
            ),
            "DB-DP": lambda pairs: DBDPPolicy(num_pairs=pairs),
        }
        seen = set()
        for family, make in families.items():
            for pairs in (1, 2):
                for n in (1, 2, BUDGET + 1, BUDGET + 2):
                    if pairs == 2 and n == 2:
                        continue  # two pairs need n >= 5
                    for channel, spec in _channel_specs(n).items():
                        for rng in ("sync", "batch", "free"):
                            policy = make(pairs)
                            if batch_refusal(spec, policy, rng) is not None:
                                assert (channel, rng) == ("ge", "batch")
                                continue
                            sim = BatchIntervalSimulator(
                                spec, policy, seeds=(0,), validate=False,
                                rng=rng,
                            )
                            case = (family, pairs, n, channel, rng)
                            expected = (
                                "incremental" if case in incremental
                                else "dense"
                            )
                            assert sim.dp_state == expected, case
                            seen.add(case)
        assert incremental <= seen
        assert len(seen) == 2 * 7 * (3 * 3 - 1)
        # Topologies bind one stack of equal-width cells: narrower than
        # the budget stays dense, wider goes incremental.
        for cells, expected in ((4, "dense"), (2, "incremental")):
            topo = partition_cells(128, cells)
            sim = TopologySimulator(
                video_symmetric_spec(0.6, num_links=128), DBDPPolicy(),
                (0,), topo,
            )
            assert sim.sim.dp_state == expected, cells

    def test_multipair_stays_dense_and_identical(self):
        # Remark-6 multi-pair stacks keep the dense recompute even
        # when the hook asks for the incremental path.
        spec = video_symmetric_spec(0.6, num_links=8)
        runs = {}
        for path in ("incremental", "dense"):
            with dp_path(path):
                sim = BatchIntervalSimulator(
                    spec,
                    DBDPPolicy(num_pairs=2),
                    seeds=(0, 1),
                    record_priorities=True,
                    validate=False,
                )
            assert sim.dp_state == "dense"
            runs[path] = sim.run(120)
        _assert_runs_identical(runs["dense"], runs["incremental"], "multi-pair")

    def test_non_dp_family_rejects_explicit_incremental(self):
        # No entry point takes a path request: ``dp_state=`` is an
        # unexpected keyword everywhere, before any family is looked at.
        from repro import run_simulation_batch
        from repro.experiments import figures
        from repro.experiments.grid import run_sweep_fused
        from repro.experiments.runner import run_single, run_sweep
        from repro.topology import run_topology_batch

        spec = video_symmetric_spec(0.6, num_links=6)
        calls = {
            "BatchIntervalSimulator": lambda: BatchIntervalSimulator(
                spec, ELDFPolicy(), seeds=(0,), dp_state="incremental"
            ),
            "run_simulation_batch": lambda: run_simulation_batch(
                spec, ELDFPolicy(), 5, (0,), dp_state="incremental"
            ),
            "run_single": lambda: run_single(
                spec, ELDFPolicy, 5, (0,), engine="batch",
                dp_state="incremental",
            ),
            "run_sweep": lambda: run_sweep(
                "alpha", [0.6], video_symmetric_spec, ["LDF"], 5,
                dp_state="incremental",
            ),
            "run_sweep_fused": lambda: run_sweep_fused(
                "alpha", [0.6], video_symmetric_spec, ["LDF"], 5,
                dp_state="incremental",
            ),
            "run_topology_batch": lambda: run_topology_batch(
                spec, ELDFPolicy(), (0,), partition_cells(6, 2), 5,
                dp_state="incremental",
            ),
            "fig3": lambda: figures.fig3(
                num_intervals=5, policies=["LDF"], dp_state="incremental"
            ),
        }
        for entry, call in calls.items():
            with pytest.raises(TypeError, match="dp_state"):
                call()


NON_DP_POLICIES = (
    ELDFPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    FCSMAPolicy,
    DCFPolicy,
)


def _channel_specs(n):
    """The video spec on ``n`` links under each channel kind."""
    spec = video_symmetric_spec(0.6, num_links=n)
    return {
        "static": spec,
        "ge": dataclasses.replace(
            spec, channel=channel_from_spec("ge:0.1:0.3", n)
        ),
        "tv": dataclasses.replace(
            spec, channel=channel_from_spec("tv:drift:50:0.2", n)
        ),
    }


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
    """The sweep engines run DP cells on whatever path the kernel picks;
    forcing either path through the hook changes no sweep output, and
    leaves families without an incremental path (ELDF/LDF) alone."""

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
            with dp_path(mode):
                got = run_sweep_fused(
                    "alpha", [0.55, 0.65], video_symmetric_spec,
                    self.POLICIES, **kw
                )
            assert self._points(got) == self._points(base), mode

    def test_batch_sweep_is_invariant_to_dp_state(self):
        from tests.experiments.per_cell import per_cell_sweep

        kw = dict(seeds=(0, 1))
        base = per_cell_sweep(
            "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES, 40,
            **kw
        )
        with dp_path("incremental"):
            got = per_cell_sweep(
                "alpha", [0.55, 0.65], video_symmetric_spec, self.POLICIES,
                40, **kw
            )
        assert self._points(got) == self._points(base)

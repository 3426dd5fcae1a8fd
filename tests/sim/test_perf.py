"""Tests for the per-stage perf-counter layer (:mod:`repro.sim.perf`).

The acceptance constraint is that disabled counters stay out of the hot
path: every instrumented site guards on ``counters.enabled`` before
touching the clock, so a disabled run pays one attribute check per site.
That property is asserted *structurally* here — a counting clock proves
the hot loop never reads the time when disabled — because a wall-clock
"< 2 %" comparison of two runs cannot be measured reliably on a shared
CI core, while zero clock reads bounds the overhead far below it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim import perf
from repro.sim.perf import PerfCounters


@pytest.fixture(autouse=True)
def _clean_registry():
    """Leave the process-global registry the way each test found it."""
    was_enabled = perf.counters.enabled
    snapshot_before = dict(perf.counters.stages)
    perf.counters.enabled = False
    perf.counters.reset()
    yield
    perf.counters.enabled = was_enabled
    perf.counters.reset()
    perf.counters.stages.update(snapshot_before)


class TestPerfCountersApi:
    def test_add_accumulates_seconds_calls_allocs(self):
        c = PerfCounters(enabled=True)
        c.add("kernel.x", 0.5)
        c.add("kernel.x", 0.25, allocs=3)
        stat = c.stages["kernel.x"]
        assert stat.seconds == 0.75
        assert stat.calls == 2
        assert stat.allocs == 3

    def test_alloc_records_without_a_call(self):
        c = PerfCounters(enabled=True)
        c.alloc("bind", 7)
        stat = c.stages["bind"]
        assert stat.allocs == 7 and stat.calls == 0 and stat.seconds == 0.0

    def test_snapshot_sorted_by_descending_seconds(self):
        c = PerfCounters(enabled=True)
        c.add("small", 0.1)
        c.add("large", 0.9)
        snap = c.snapshot()
        assert list(snap) == ["large", "small"]
        assert snap["large"] == {"seconds": 0.9, "calls": 1, "allocs": 0}

    def test_seconds_of_unknown_stage_is_zero(self):
        assert PerfCounters().seconds("nope") == 0.0

    def test_reset_clears_stages_not_enabled_flag(self):
        c = PerfCounters(enabled=True)
        c.add("x", 1.0)
        c.reset()
        assert not c.stages and c.enabled

    def test_summary_renders_table(self):
        c = PerfCounters(enabled=True)
        assert c.summary() == "(no perf stages recorded)"
        c.add("stage.a", 0.125, allocs=2)
        text = c.summary()
        assert "stage.a" in text and "0.1250" in text

    def test_stage_context_manager_respects_enabled(self):
        perf.counters.enabled = False
        with perf.stage("cold"):
            pass
        assert "cold" not in perf.counters.stages
        perf.counters.enabled = True
        with perf.stage("cold", allocs=1):
            pass
        stat = perf.counters.stages["cold"]
        assert stat.calls == 1 and stat.allocs == 1


def _reported_stage_labels():
    """Every literal label a ``counters.add(...)`` call in ``repro.sim``
    passes, with the file it appears in."""
    labels = []
    for path in sorted(Path(perf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and ast.unparse(node.func.value).split(".")[-1] == "counters"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            labels.append((node.args[0].value, path.name))
    return labels


class TestKnownStages:
    def test_scan_finds_the_kernel_stages(self):
        found = {label for label, _ in _reported_stage_labels()}
        assert {"kernel.dp.setup", "kernel.contention.interval"} <= found

    def test_every_reported_literal_stage_is_known(self):
        unknown = [
            (label, where)
            for label, where in _reported_stage_labels()
            if label not in perf.KNOWN_STAGES
        ]
        assert unknown == []


class TestHotPathOverhead:
    """The fused hot loop must never touch the clock while disabled."""

    ALPHAS = (0.5, 0.6)
    SEEDS = (0, 1)

    def _run(self):
        return run_sweep_fused(
            "alpha",
            self.ALPHAS,
            lambda a: video_symmetric_spec(a, delivery_ratio=0.9),
            {"DB-DP": DBDPPolicy, "LDF": LDFPolicy},
            40,
            self.SEEDS,
            validate=False,
        )

    def test_disabled_counters_never_read_the_clock(self, monkeypatch):
        calls = []
        real_clock = perf.clock
        monkeypatch.setattr(
            perf, "clock", lambda: calls.append(None) or real_clock()
        )
        perf.counters.enabled = False
        self._run()
        assert not calls
        assert not perf.counters.stages

    def test_enabled_counters_record_kernel_and_draw_stages(self):
        perf.counters.enabled = True
        self._run()
        stages = perf.counters.stages
        assert "kernel.dp.setup" in stages
        assert "kernel.dp.timeline" in stages
        assert "kernel.serve.interval" in stages
        assert "draws.channel_refill" in stages
        assert "fused.run" in stages
        assert stages["kernel.dp.setup"].calls == 40
        # Workspace mode: buffer allocations happen at bind, not per
        # interval — the bind stage carries allocs but zero timed calls.
        bind = stages["kernel.dp.bind_workspace"]
        assert bind.allocs > 0 and bind.calls == 0

    def test_enabled_run_is_bit_identical_to_disabled(self):
        perf.counters.enabled = False
        cold = self._run()
        perf.counters.enabled = True
        hot = self._run()
        assert cold.points == hot.points


class TestDrawBufferAllocRegression:
    """Steady-state refills must reuse persistent buffers, not allocate.

    Refill buffers are allocated once per chunked-draw stream on its
    first chunk; every later refill writes into the cached buffer with
    ``Generator.random(out=...)``.  A regression to per-refill
    allocation shows up as allocs growing with the interval count.
    """

    def _allocs(self, num_intervals, stage):
        from repro import run_simulation_batch

        perf.counters.reset()
        perf.counters.enabled = True
        run_simulation_batch(
            video_symmetric_spec(0.6, num_links=6),
            DBDPPolicy(),
            num_intervals,
            (0, 1, 2),
        )
        stat = perf.counters.stages[stage]
        return stat.allocs, stat.calls

    @pytest.mark.parametrize(
        "stage", ["draws.uniform_refill", "draws.channel_refill"]
    )
    def test_refill_allocs_do_not_grow_with_intervals(self, stage):
        # 80 intervals -> a couple of 64-deep chunks; 400 -> several
        # more.  Calls must grow with the chunk count, allocations must
        # not (first-chunk buffer allocation only).
        short_allocs, short_calls = self._allocs(80, stage)
        long_allocs, long_calls = self._allocs(400, stage)
        assert long_calls > short_calls
        assert long_allocs == short_allocs

    def test_free_mode_refills_are_alloc_steady_too(self):
        from repro import run_simulation_batch

        perf.counters.reset()
        perf.counters.enabled = True
        run_simulation_batch(
            video_symmetric_spec(0.6, num_links=6),
            DBDPPolicy(),
            600,
            (0, 1, 2),
            rng="free",
        )
        stat = perf.counters.stages["draws.uniform_refill"]
        # Free mode draws the single-pair DP candidate as one integer
        # block per chunk: one allocation per refill call at most, plus
        # the persistent buffers' first-chunk allocations.
        assert stat.allocs <= stat.calls + 4


class TestEldfWeightBufferReuse:
    """ELDF's ``f(d+) * p`` weight plane must live in the workspace.

    The serve-order stage evaluates the influence function into a
    persistent ``(S, N)`` buffer allocated at bind (influence functions
    accept ``out=``), so steady-state intervals allocate nothing for the
    weight plane.  A regression to per-interval allocation shows up here
    as ``value_array`` ignoring ``out=`` or ``_service_orders`` no
    longer routing through the workspace buffer.
    """

    def _sim(self, influence=None):
        from repro import ELDFPolicy
        from repro.sim.batch_sim import BatchIntervalSimulator

        kwargs = {} if influence is None else {"influence": influence}
        return BatchIntervalSimulator(
            video_symmetric_spec(0.6, num_links=8),
            ELDFPolicy(**kwargs),
            seeds=(0, 1, 2),
            validate=False,
        )

    def test_workspace_owns_a_persistent_weight_plane(self):
        sim = self._sim()
        w = sim.kernel._ws
        assert w.eldf_w.shape == (3, 8)
        assert w.eldf_w.dtype == np.float64

    def test_influence_out_param_writes_in_place(self):
        from repro.core.influence import (
            LinearInfluence,
            LogInfluence,
            PaperLogInfluence,
            PowerInfluence,
            ScaledInfluence,
        )

        debts = np.abs(np.random.default_rng(7).normal(size=(3, 8)))
        buf = np.empty_like(debts)
        for inf in (
            LinearInfluence(2.0),
            PowerInfluence(1.5),
            LogInfluence(10.0, 2.0),
            PaperLogInfluence(),
            ScaledInfluence(PaperLogInfluence(), 3.0),
        ):
            expected = inf.value_array(debts)
            got = inf.value_array(debts, out=buf)
            assert got is buf, inf
            np.testing.assert_array_equal(got, expected)

    def test_service_orders_route_through_the_workspace_buffer(self):
        sim = self._sim()
        kern = sim.kernel
        w = kern._ws
        debts = np.abs(np.random.default_rng(3).normal(size=(3, 8)))
        order = kern._service_orders(0, debts)
        expected_w = kern.influence.value_array(debts) * kern._reliabilities
        # The radix-sort trick negates the persistent buffer's int64 view
        # in place, so after the call the workspace plane holds exactly
        # the negated bit patterns of the expected weights — proof the
        # evaluation landed in the buffer and not a fresh temporary.
        after = w.eldf_w.view(np.int64).copy()
        np.negative(after, out=after)
        np.testing.assert_array_equal(after.view(np.float64), expected_w)
        np.testing.assert_array_equal(
            order, np.argsort(-expected_w, axis=1, kind="stable")
        )

"""Tests of the benchmark harness itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END, Ledger
from spans import SpanRecorder, root_table
from stats import MIN_BEYOND, TAIL_PERCENTILES, tail_percentile, seed_list
from workloads import WORKLOADS, CliFig3, TaskOutput


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- percentile rule ----------------------------------------------------
def test_no_percentile_without_ten_samples_beyond_the_median():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(20)) == (50.0, 9)


@pytest.mark.parametrize("n", [20, 39, 40, 99, 100, 199, 200, 1000, 9999, 10000])
def test_reported_percentile_is_the_highest_with_ten_beyond(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    p, value = tail_percentile(samples)
    ordered = sorted(samples)
    beyond = sum(1 for v in ordered if v > value)
    assert beyond >= MIN_BEYOND
    higher = [q for q in TAIL_PERCENTILES if q > p]
    for q in higher:
        assert n - math.ceil(q / 100 * n) < MIN_BEYOND


def test_percentile_values():
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)


# -- span self times ----------------------------------------------------
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root = rec.open("task")
    clock.advance(1.0)
    outer = rec.open("outer")
    clock.advance(2.0)
    inner = rec.open("inner")
    clock.advance(3.0)
    rec.close(inner)
    clock.advance(4.0)
    rec.close(outer)
    clock.advance(5.0)
    rec.close(root)
    assert rec.duration(root) == 15.0
    assert rec.self_time(inner) == 3.0
    assert rec.self_time(outer) == 6.0
    table = root_table(rec, root)
    assert table == {"outer": 6.0, "inner": 3.0, "unattributed": 6.0}
    assert sum(table.values()) == rec.duration(root)


def test_retroactive_span_adopts_the_spans_it_covered():
    # A program stage reported after the fact (start = end - seconds)
    # becomes the parent of the spans that ran inside it, not of those
    # that ran before it.
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root = rec.open("task")
    before = rec.open("before")
    clock.advance(1.0)
    rec.close(before)
    stage_start = clock.now
    clock.advance(0.5)
    inside = rec.open("inside")
    clock.advance(2.0)
    rec.close(inside)
    clock.advance(0.5)
    stage = rec.closed("stage", clock.now - stage_start)
    rec.close(root)
    assert rec.parents[inside] == stage
    assert rec.parents[before] == root
    assert rec.self_time(stage) == pytest.approx(1.0)
    table = root_table(rec, root)
    assert table["unattributed"] == pytest.approx(0.0)
    assert sum(table.values()) == pytest.approx(rec.duration(root))


def test_recursive_spans_count_once_in_inclusive_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    outer = rec.open("f")
    clock.advance(1.0)
    inner = rec.open("f")
    clock.advance(2.0)
    rec.close(inner)
    rec.close(outer)
    row = rec.layer_table()["f"]
    assert row == {"self_s": 3.0, "s": 3.0, "calls": 2}


def test_wrap_names_spans_from_arguments():
    rec = SpanRecorder()
    traced = rec.wrap(lambda x: x * 2, lambda x: f"call{x}")
    assert traced(3) == 6
    assert rec.names == ["call3"]


# -- seeds ---------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_argument_changes_the_seed_list_only(name):
    workload = WORKLOADS[name]
    a = seed_list(name, 1, workload.num_seeds)
    b = seed_list(name, 2, workload.num_seeds)
    assert a != b
    assert a == seed_list(name, 1, workload.num_seeds)
    assert len(set(a)) == len(a) == workload.num_seeds
    if isinstance(workload, CliFig3):
        argv_a, argv_b = workload.argv(a), workload.argv(b)
        assert len(argv_a) == len(argv_b)
        differing = [i for i, (x, y) in enumerate(zip(argv_a, argv_b)) if x != y]
        start = argv_a.index("--seeds") + 1
        assert set(differing) <= set(range(start, start + len(a)))


# -- failure accounting -------------------------------------------------
class FakeWorkload:
    """Two sweep cells per task; each call plays the next listed outcome."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def num_cells(self):
        return 2

    def problems(self, out):
        return []

    def run(self, seeds):
        outcome = self.outcomes.pop(0)
        if outcome == "raise":
            raise RuntimeError("forced failure")
        values = [1.0, math.nan] if outcome == "nan" else [1.0, 2.0]
        digest = "other" if outcome == "differs" else "d"
        return TaskOutput(x=[0.4, 0.5], series={"P": values}, digest=digest)


def _ledger(outcomes, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    ledger = Ledger(FakeWorkload(outcomes), 0, (1,))
    for _ in outcomes:
        ledger.task(tmp_path)
    return ledger


def test_failed_frac_counts_a_raised_task(tmp_path, monkeypatch):
    ledger = _ledger(["ok", "raise", "ok", "ok"], tmp_path, monkeypatch)
    assert (ledger.attempted, ledger.failed) == (8, 2)
    assert ledger.failed_frac == 0.25
    assert not ledger.correct


def test_failed_frac_counts_a_nan_cell(tmp_path, monkeypatch):
    ledger = _ledger(["ok", "nan"], tmp_path, monkeypatch)
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert not ledger.correct


def test_failed_frac_counts_output_that_differs_at_the_same_seeds(
    tmp_path, monkeypatch
):
    ledger = _ledger(["ok", "differs", "ok"], tmp_path, monkeypatch)
    assert (ledger.attempted, ledger.failed) == (6, 2)
    assert not ledger.correct


def test_clean_runs_are_correct(tmp_path, monkeypatch):
    ledger = _ledger(["ok", "ok"], tmp_path, monkeypatch)
    assert (ledger.attempted, ledger.failed, ledger.failed_frac) == (4, 0, 0.0)
    assert ledger.correct


# -- the wrappers leave the program as they found it --------------------
def test_traced_task_matches_untraced_and_restores_the_program(monkeypatch, tmp_path):
    from layers import install, per_layer_metrics
    from repro.experiments import cli, runner
    from repro.sim import perf
    from repro.sim.batch_sim import BatchIntervalSimulator

    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "untraced"))
    workload = CliFig3(
        name="tiny", num_seeds=2, num_intervals=20, num_links=20,
        resume=True,
    )
    originals = (cli.main, runner.run_single, BatchIntervalSimulator.step,
                 perf.PerfCounters.add)
    untraced = workload.run([1, 2])
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "traced"))
    rec = SpanRecorder()
    restore = install(rec)
    try:
        root = rec.open("task")
        traced = workload.run([1, 2])
        rec.close(root)
    finally:
        restore()
    assert traced.digest == untraced.digest
    assert (cli.main, runner.run_single, BatchIntervalSimulator.step,
            perf.PerfCounters.add) == originals
    assert not perf.counters.enabled
    table = root_table(rec, root)
    assert sum(table.values()) == pytest.approx(rec.duration(root), abs=1e-9)
    metrics = per_layer_metrics(rec, root, perf.counters.snapshot(), 0.0, 0.0)
    perf.reset()
    assert metrics["grid.fallback_cells"] == 7  # FCSMA, one per load point
    assert metrics["core.policy.run_interval.s"] > 0
    assert metrics["cache.put.calls"] == 21


def test_benchmark_json_lists_what_the_harness_measures():
    config = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(PER_LAYER)

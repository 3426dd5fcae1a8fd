"""The DP kernels' empty-claim repair, and the bind-time gate that skips it.

``BatchDPKernel`` solves each interval assuming every wanted empty claim
fits, then re-runs the rows where one does not through an exact
per-row sweep (``_resolve_row_sequential`` on the dense path,
``_resolve_row_inc`` on the incremental one).  With exact integer
timings and ``empty_air <= data_air + slot`` that repair provably
changes no output (see ``BatchDPKernel._repair_needed``), so the kernel
skips it.  These tests pin, on both DP paths:

* per timing, the gate's verdict, and bit-identity with the
  ``_force_sequential`` oracle (every row through the exact sweep);
* that the matrix is not vacuous: each case has misfitting claims;
* that under a timing outside the condition the repair is kept, is
  reached, and matters;
* that congested paper-timing runs (N=2000 incremental, a multi-cell
  topology) have misfitting claims but never reach either repair.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import BernoulliChannel, DBDPPolicy, NetworkSpec, idealized_timing
from repro.experiments.configs import video_symmetric_spec
from repro.phy.timing import IntervalTiming, low_latency_timing, video_timing
from repro.sim.batch_kernels import BatchDPKernel
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import grid_cells, run_topology_batch
from repro.traffic.arrivals import BurstyVideoArrivals
from tests.sim.dp_paths import dp_path

N = 12
ALPHA = 0.7
SEEDS = (0, 1, 2)
INTERVALS = 300

# (name, timing, whether the gate keeps the repair on)
TIMINGS = [
    ("video", video_timing(), False),
    ("low-latency", low_latency_timing(), False),
    ("idealized", idealized_timing(8), False),
    # empty_air == data_air + slot: the lemma's boundary.
    ("boundary", IntervalTiming(1000.0, 30.0, 35.0, 5.0), False),
    # empty_air > data_air + slot: a misfitting claim can leave room
    # for a later data packet, so the repair matters.
    ("long-claims", IntervalTiming(1000.0, 30.0, 120.0, 5.0), True),
    # Non-integer timings: the lemma's exact arithmetic does not hold.
    ("fractional", IntervalTiming(1000.0, 30.5, 20.0, 4.5), True),
]


@pytest.fixture
def repair_calls(monkeypatch):
    """Counts calls of each repair function, by name."""
    calls: Counter = Counter()
    for name in ("_resolve_row_sequential", "_resolve_row_inc"):
        original = getattr(BatchDPKernel, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BatchDPKernel, name, counted)
    return calls


def _spec(timing: IntervalTiming) -> NetworkSpec:
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(N, ALPHA),
        channel=BernoulliChannel.symmetric(N, 0.7),
        timing=timing,
        delivery_ratios=0.6,
    )


def _sim(spec, dp_state, *, seeds=SEEDS, repair=None, oracle=False):
    """A traced DB-DP simulator; ``repair`` overrides the gate's verdict,
    ``oracle`` routes every row through the exact sweep."""
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            spec,
            DBDPPolicy(),
            seeds,
            record_traces=True,
            record_priorities=True,
            validate=False,
        )
    assert sim.dp_state == dp_state
    if repair is not None:
        sim.kernel._repair_needed = repair
    sim.kernel._force_sequential = oracle
    return sim


def _traces(sim, num_intervals):
    result = sim.run(num_intervals)
    return [
        result.deliveries,
        result.attempts,
        result.priorities,
        result.busy_time_us,
        result.overhead_time_us,
        result.collisions,
        sim.debts,
    ]


def _assert_identical(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
@pytest.mark.parametrize(
    "name,timing,needed", TIMINGS, ids=[t[0] for t in TIMINGS]
)
def test_gate_matches_the_exact_sweep(name, timing, needed, dp_state, repair_calls):
    spec = _spec(timing)
    gated = _sim(spec, dp_state)
    assert gated.kernel._repair_needed is needed
    fast = _traces(gated, INTERVALS)
    resolver = (
        "_resolve_row_inc" if dp_state == "incremental"
        else "_resolve_row_sequential"
    )
    reached = repair_calls[resolver]
    assert (reached > 0) is needed
    # With the repair forced on, claims misfit on this workload: the
    # comparison below is not vacuous.
    repaired = _traces(_sim(spec, dp_state, repair=True), INTERVALS)
    assert repair_calls[resolver] > reached
    _assert_identical(fast, repaired)
    _assert_identical(fast, _traces(_sim(spec, dp_state, oracle=True), INTERVALS))


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
def test_repair_matters_outside_the_condition(dp_state):
    """Where the gate keeps the repair, skipping it changes attempts."""
    spec = _spec(IntervalTiming(1000.0, 30.0, 120.0, 5.0))
    exact = _traces(_sim(spec, dp_state), INTERVALS)
    skipped = _traces(_sim(spec, dp_state, repair=False), INTERVALS)
    assert not np.array_equal(exact[1], skipped[1])


def test_congested_large_n_never_repairs(repair_calls):
    """N=2000 near overload on the incremental path: claims misfit on
    many rows, and the gate still reaches no repair."""
    spec = video_symmetric_spec(0.7, num_links=2000)
    gated = _sim(spec, "incremental", seeds=(0, 1))
    assert not gated.kernel._repair_needed
    fast = _traces(gated, 12)
    assert not repair_calls
    repaired = _traces(_sim(spec, "incremental", seeds=(0, 1), repair=True), 12)
    assert repair_calls["_resolve_row_inc"] > 0
    _assert_identical(fast, repaired)


def test_topology_never_repairs(repair_calls, monkeypatch):
    """A ``grid_cells`` topology with the paper's video timing: the
    dense cell stack has misfitting claims, and reaches no repair."""
    spec = video_symmetric_spec(0.55, delivery_ratio=0.9, num_links=250)
    topology = grid_cells(250, 10, 0.04)
    seeds = (0, 1, 2, 3)
    fast = run_topology_batch(spec, DBDPPolicy(), seeds, topology, 20)
    assert not repair_calls
    on_bind = BatchDPKernel._on_bind

    def forced(self):
        on_bind(self)
        assert not self._repair_needed
        self._repair_needed = True

    monkeypatch.setattr(BatchDPKernel, "_on_bind", forced)
    repaired = run_topology_batch(spec, DBDPPolicy(), seeds, topology, 20)
    assert repair_calls["_resolve_row_sequential"] > 0
    np.testing.assert_array_equal(fast.delivery_sums, repaired.delivery_sums)
    np.testing.assert_array_equal(
        fast.total_deficiency(), repaired.total_deficiency()
    )

"""The DP kernels' empty claims, and the timings the batch engine refuses.

``BatchDPKernel`` solves each interval in integer time units, counting
every wanted empty claim as aired.  With integer units and
``empty_air <= data_air + slot`` a claim that does not fit leaves no
room for any later transmission, so that changes no output (the lemma
of ``BatchDPKernel.timing_refusal``); every other timing is refused
outside ``rng="sync"``.  These tests pin, on both DP paths:

* per timing, the refusal's verdict, and bit-identity with the exact
  sequential reference of :mod:`tests.sim.dp_reference` on the kernel's
  own draws;
* that the matrix is not vacuous: each accepted case has misfitting
  claims;
* that under the refused timing the closed-form assumption matters (at
  reference level, and on each DP path forced past the refusal), and
  where the refusal surfaces: the batch engine,
  ``rng="sync"``, a fused sweep, a topology sweep;
* that congested paper-timing runs (N=2000 incremental, a multi-cell
  topology) have misfitting claims and match the reference.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from repro import (
    BernoulliChannel,
    ConstantSwapBias,
    DBDPPolicy,
    DPProtocol,
    LDFPolicy,
    NetworkSpec,
    idealized_timing,
    run_simulation,
    run_simulation_batch,
)
from repro.experiments.cache import SweepCache
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.runner import run_sweep
from repro.phy.timing import (
    Dot11aPhy,
    IntervalTiming,
    low_latency_timing,
    video_timing,
)
from repro.sim.batch_kernels import BatchDPKernel
from repro.sim.batch_sim import BatchIntervalSimulator, batch_refusal
from repro.topology import TopologySimulator, grid_cells
from repro.traffic.arrivals import BurstyVideoArrivals
from tests.sim.dp_paths import dp_path
from tests.sim.dp_reference import ReferenceCheck, exact_timing, reference_interval

N = 12
ALPHA = 0.7
SEEDS = (0, 1, 2)
INTERVALS = 300

#: empty_air > data_air + slot: a misfitting claim can leave room for a
#: later data packet, so the closed form would be wrong.
LONG_CLAIMS = IntervalTiming(1000.0, 30.0, 120.0, 5.0)

# (name, timing, whether the batch engine refuses it)
TIMINGS = [
    ("video", video_timing(), False),
    ("low-latency", low_latency_timing(), False),
    ("idealized", idealized_timing(8), False),
    # empty_air == data_air + slot: the lemma's boundary.
    ("boundary", IntervalTiming(1000.0, 30.0, 35.0, 5.0), False),
    ("long-claims", LONG_CLAIMS, True),
    # Decimal timings run in units of 0.1 us.
    ("fractional", IntervalTiming(1000.0, 30.5, 20.0, 4.5), False),
]


def refusal_message(timing: IntervalTiming) -> str:
    return (
        f"{timing} is outside the batch DP timeline, which needs "
        "empty_airtime_us <= data_airtime_us + backoff_slot_us and an "
        "interval under 2**24 decimal time units; use rng='sync' or "
        "engine='scalar'"
    )


def _spec(timing: IntervalTiming, n: int = N, alpha: float = ALPHA) -> NetworkSpec:
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(n, alpha),
        channel=BernoulliChannel.symmetric(n, 0.7),
        timing=timing,
        delivery_ratios=0.6,
    )


def _sim(spec, dp_state, *, seeds=SEEDS, rng=None):
    """A traced DB-DP simulator on the given priority-state path."""
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            spec,
            DBDPPolicy(),
            seeds,
            record_traces=True,
            record_priorities=True,
            validate=False,
            rng=rng,
        )
    assert sim.dp_state == dp_state
    return sim


def _checked_run(sim, num_intervals) -> ReferenceCheck:
    check = ReferenceCheck(sim.kernel)
    sim.run(num_intervals)
    assert check.intervals == num_intervals
    return check


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
@pytest.mark.parametrize(
    "name,timing,refused", TIMINGS, ids=[t[0] for t in TIMINGS]
)
def test_gate_matches_the_exact_sweep(name, timing, refused, dp_state):
    spec = _spec(timing)
    for rng in ("batch", "free"):
        reason = batch_refusal(spec, DBDPPolicy(), rng)
        assert reason == (refusal_message(timing) if refused else None)
    if refused:
        with pytest.raises(TypeError, match=re.escape(refusal_message(timing))):
            _sim(spec, dp_state)
        return
    # Claims misfit on this workload: the comparison is not vacuous.
    assert _checked_run(_sim(spec, dp_state), INTERVALS).misfits > 0


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
@pytest.mark.parametrize("rng", ["batch", "free"])
def test_slot_ablation_matches_the_exact_sweep(dp_state, rng):
    """The 0.8 us slot runs in units of 0.1 us.  At N=250 the video
    interval's 200 us of slack no longer covers a claim plus N slots,
    so claims misfit."""
    spec = _spec(video_timing().with_slot_time(0.8), n=250)
    check = _checked_run(_sim(spec, dp_state, seeds=(0, 1), rng=rng), 40)
    assert check.misfits > 0


@pytest.mark.parametrize("name", ["low-latency", "fractional"])
def test_multi_pair_matches_the_exact_sweep(name):
    """Remark 6's multi-pair swaps run on the dense path only."""
    timing = dict((t[0], t[1]) for t in TIMINGS)[name]
    sim = BatchIntervalSimulator(
        _spec(timing), DPProtocol(ConstantSwapBias(0.5), num_pairs=3),
        SEEDS, record_traces=True, record_priorities=True,
    )
    assert sim.dp_state == "dense"
    assert _checked_run(sim, INTERVALS).misfits > 0


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
def test_budget_counts_in_time_units(dp_state):
    """``1.2 // 0.4`` floors to 2.0 in float; the interval holds three
    attempts.  The incremental serve set is sized from the budget, so a
    float budget would drop a link that can transmit."""
    timing = IntervalTiming(1.2, 0.4, 0.05, 0.0)
    assert timing.max_transmissions == 3
    sim = _sim(_spec(timing, n=8), dp_state)
    assert sim.kernel._budget == 3
    assert _checked_run(sim, INTERVALS).misfits > 0


def _random_rows(num_rows, n, seed=0):
    """Interval inputs drawn at random: sigma, one candidate pair, its
    coins, bursty backlogs and cumulative retry counts, heavy enough to
    fill every timing's interval."""
    rng = np.random.default_rng(seed)
    for _ in range(num_rows):
        sigma = (rng.permutation(n) + 1).tolist()
        c = int(rng.integers(1, n))
        order = np.argsort(sigma)
        xi = {int(order[c - 1]): int(rng.choice((-1, 1))),
              int(order[c]): int(rng.choice((-1, 1)))}
        arrivals = np.where(rng.random(n) < 0.7, rng.integers(1, 7, n), 0)
        cum = np.cumsum(rng.geometric(0.3, (n, 6)), axis=1).astype(np.float32)
        yield sigma, (c,), xi, arrivals, cum


ACCEPTED = [t[:2] for t in TIMINGS if not t[2]]


@pytest.mark.parametrize("name,timing", ACCEPTED, ids=[t[0] for t in ACCEPTED])
def test_closed_form_assumption_is_exact_where_accepted(name, timing):
    """The lemma at reference level: on every accepted timing, counting
    misfitting claims as aired changes no output."""
    exact = exact_timing(timing)
    misfits = 0
    for row in _random_rows(400, N):
        want = reference_interval(*row, exact)
        assumed = reference_interval(*row, exact, claims_fit=True)
        misfits += want.misfits
        np.testing.assert_array_equal(want.attempts, assumed.attempts)
        np.testing.assert_array_equal(want.deliveries, assumed.deliveries)
        assert (want.sigma, want.busy, want.overhead) == (
            assumed.sigma, assumed.busy, assumed.overhead
        )
    assert misfits > 0


def test_closed_form_assumption_is_wrong_where_refused():
    """Under the refused timing, counting a misfitting claim as aired
    changes attempts: the refusal guards a real case."""
    exact = exact_timing(LONG_CLAIMS)
    changed = sum(
        not np.array_equal(
            reference_interval(*row, exact).attempts,
            reference_interval(*row, exact, claims_fit=True).attempts,
        )
        for row in _random_rows(400, N)
    )
    assert changed > 0


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
def test_repair_matters_outside_the_condition(dp_state, monkeypatch):
    """Forced past the refusal, the closed form departs from the exact
    sequential reference on each DP path: refusing is what keeps it
    exact."""
    monkeypatch.setattr(
        BatchDPKernel, "timing_refusal", classmethod(lambda cls, timing: None)
    )
    sim = _sim(_spec(LONG_CLAIMS), dp_state)
    check = ReferenceCheck(sim.kernel, strict=False)
    sim.run(INTERVALS)
    assert check.intervals == INTERVALS
    assert check.departures > 0


@pytest.mark.parametrize(
    "timing",
    [
        IntervalTiming(float(2**24 - 1), 30.0, 20.0, 9.0),
        IntervalTiming(1677721.5, 30.0, 20.0, 9.0),
        IntervalTiming(1000.0, 30.0, 35.0, 5.0),
    ],
    ids=["2**24-1-units", "2**24-1-tenths", "boundary"],
)
def test_timing_refusal_edges_accept(timing):
    assert BatchDPKernel.timing_refusal(timing) is None


@pytest.mark.parametrize(
    "timing",
    [
        IntervalTiming(float(2**24), 30.0, 20.0, 9.0),
        IntervalTiming(1677721.6, 30.0, 20.0, 9.0),
        IntervalTiming(1000.0, 30.0, 35.5, 5.0),
        IntervalTiming(1.0 / 3.0, 0.1, 0.0, 0.0),
    ],
    ids=["2**24-units", "2**24-tenths", "long-by-half", "non-decimal"],
)
def test_timing_refusal_edges_refuse(timing):
    assert BatchDPKernel.timing_refusal(timing) == refusal_message(timing)


def test_time_units_scale_by_the_least_power_of_ten():
    def units(timing):
        return timing.time_units

    assert units(video_timing()) == (20000, 330, 66, 9)
    assert units(video_timing().with_slot_time(0.8)) == (200000, 3300, 660, 8)
    assert units(IntervalTiming(1000.0, 30.5, 20.0, 4.5)) == (10000, 305, 200, 45)
    assert units(IntervalTiming(1.2, 0.4, 0.05, 0.0)) == (120, 40, 5, 0)
    assert units(idealized_timing(8)) == (8, 1, 0, 0)


@pytest.mark.parametrize("payload", [0, 100, 500, 1500, 2304])
@pytest.mark.parametrize("slot", [0.8, 9.0, 20.0])
@pytest.mark.parametrize("deadline", [1_000.0, 2_000.0, 20_000.0])
def test_no_dot11a_timing_is_refused(payload, slot, deadline):
    """A header-only claim plus DIFS is shorter than any data exchange."""
    phy = Dot11aPhy(slot_time_us=slot)
    timing = IntervalTiming(
        interval_us=deadline,
        data_airtime_us=phy.exchange_airtime_us(payload),
        empty_airtime_us=phy.empty_packet_airtime_us(),
        backoff_slot_us=slot,
    )
    assert BatchDPKernel.timing_refusal(timing) is None


class TestRefusedTiming:
    """``IntervalTiming(1000, 30, 120, 5)`` wherever the refusal surfaces."""

    spec = _spec(LONG_CLAIMS, n=6)

    @pytest.mark.parametrize("rng", [None, "batch", "free"])
    def test_batch_engine_raises_the_pinned_message(self, rng):
        with pytest.raises(TypeError) as err:
            BatchIntervalSimulator(self.spec, DBDPPolicy(), (0, 1), rng=rng)
        assert str(err.value) == refusal_message(LONG_CLAIMS)

    def test_sync_runs_and_equals_the_scalar_engine(self):
        seeds = (0, 1, 2)
        batch = run_simulation_batch(
            self.spec, DBDPPolicy(), 150, seeds, rng="sync",
            record_priorities=True,
        )
        for s, seed in enumerate(seeds):
            scalar = run_simulation(
                self.spec, DBDPPolicy(), 150, seed=seed, record_priorities=True
            )
            for field in (
                "deliveries", "attempts", "busy_time_us", "overhead_time_us",
            ):
                np.testing.assert_array_equal(
                    getattr(batch, field)[:, s], getattr(scalar, field), field
                )
            np.testing.assert_array_equal(
                batch.priorities[:, s], np.asarray(scalar.priorities)
            )

    def test_fused_cell_falls_back_with_one_advisory(self):
        def build(alpha):
            return _spec(LONG_CLAIMS, n=6, alpha=alpha)

        kwargs = dict(
            parameter_name="alpha", values=(0.3, 0.5), spec_builder=build,
            policies=["DB-DP", "LDF"], num_intervals=30, seeds=(0, 1),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fused = run_sweep(engine="fused", **kwargs)
        messages = [str(w.message) for w in caught]
        assert messages == [
            "the batch kernel cannot solve this interval timing; these "
            "cells fall back to the scalar engine: DB-DP.  Pass rng='sync' "
            "to keep them on the batch engine (bit-identical to scalar)"
        ]
        scalar = run_sweep(engine="scalar", **kwargs)
        assert [p for p in fused.points if p.policy == "DB-DP"] == [
            p for p in scalar.points if p.policy == "DB-DP"
        ]

    def test_topology_sweep_is_refused_while_planning(self, tmp_path):
        cache = SweepCache(tmp_path)
        ran = []

        def build(alpha):
            ran.append(alpha)
            return _spec(LONG_CLAIMS, n=24, alpha=alpha)

        with pytest.raises(TypeError) as err:
            run_sweep(
                "alpha", (0.3, 0.5), build, ["LDF", "DB-DP"], 20,
                engine="fused", topology=grid_cells(24, 3, 0.1), cache=cache,
            )
        assert str(err.value) == refusal_message(LONG_CLAIMS)
        assert cache.stores == 0
        with pytest.raises(TypeError, match=re.escape(refusal_message(LONG_CLAIMS))):
            TopologySimulator(
                build(0.4), DBDPPolicy(), (0,), grid_cells(24, 3, 0.1)
            )
        # Under sync the topology engine runs it.
        TopologySimulator(
            build(0.4), DBDPPolicy(), (0,), grid_cells(24, 3, 0.1), rng="sync"
        ).run(5)
        # LDF's kernel has no timeline lemma to honour.
        assert batch_refusal(build(0.4), LDFPolicy(), "batch") is None


def test_congested_large_n_never_repairs():
    """N=2000 near overload on the incremental path: claims misfit on
    many rows, and the closed form with no repair matches the exact
    sequential reference."""
    spec = video_symmetric_spec(0.7, num_links=2000)
    check = _checked_run(_sim(spec, "incremental", seeds=(0, 1)), 12)
    assert check.misfits > 0


def test_topology_never_repairs():
    """A ``grid_cells`` topology with the paper's video timing: the
    packed cell stack has misfitting claims, and matches the exact
    sequential reference."""
    spec = video_symmetric_spec(0.55, delivery_ratio=0.9, num_links=250)
    sim = TopologySimulator(spec, DBDPPolicy(), (0, 1, 2, 3), grid_cells(250, 10, 0.04))
    check = ReferenceCheck(sim.sim.kernel)
    sim.run(20)
    assert check.intervals == 20
    assert check.misfits > 0

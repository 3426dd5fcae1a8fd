"""Pinned DP-kernel outputs under decimal timings.

``BatchDPKernel`` runs its closed-form timeline in integer time units:
at bind it scales the timing by the least power of ten that makes the
interval, data airtime, empty airtime and slot all integers (a 0.8 us
slot becomes 8 units of 0.1 us).  The digests below were recorded while
the kernel still solved these timings in float64 µs and re-ran every
row with a misfitting empty claim through an exact per-row sweep.  They
pin that quantizing changes no output: deliveries, attempts,
priorities, busy time and overhead, under both vectorized draw
disciplines and on both priority-state paths.

The cases:

* the video timing with a 0.8 us slot (the slot-time ablation); at
  N=20 and N=70 every empty claim fits (the 200 us left after 60
  attempts exceed two claims plus N + 1 slots), at N=250 many do not;
* ``IntervalTiming(1000, 30.5, 20, 4.5)``, where claims misfit at every
  N pinned here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import (
    BernoulliChannel,
    DBDPPolicy,
    FrameCSMAPolicy,
    LDFPolicy,
    NetworkSpec,
)
from repro.experiments.configs import video_symmetric_spec
from repro.phy.timing import IntervalTiming, video_timing
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.sim.interval_sim import run_simulation
from repro.traffic.arrivals import BurstyVideoArrivals
from tests.sim.dp_paths import dp_path

SEEDS = (0, 1, 2)
INTERVALS = 200
ALPHA = 0.7
FIELDS = (
    "deliveries", "attempts", "priorities", "busy_time_us", "overhead_time_us",
)


def _spec(name: str, n: int) -> NetworkSpec:
    if name == "slot-0.8":
        return dataclasses.replace(
            video_symmetric_spec(ALPHA, num_links=n),
            timing=video_timing().with_slot_time(0.8),
        )
    return NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(n, ALPHA),
        channel=BernoulliChannel.symmetric(n, 0.7),
        timing=IntervalTiming(1000.0, 30.5, 20.0, 4.5),
        delivery_ratios=0.6,
    )


def _digest(result) -> str:
    h = hashlib.sha256()
    for field in FIELDS:
        plane = np.ascontiguousarray(getattr(result, field))
        h.update(f"{plane.dtype.str}{plane.shape}".encode())
        h.update(plane.tobytes())
    return h.hexdigest()


# (timing, N, rng) -> digest.  The two priority-state paths are
# bit-identical, so they share one digest where both run.
DIGESTS = {
    ("slot-0.8", 20, "batch"): "e6ab4b7cd4ef75cb54704349eac5f317965dc7e0bddc38e290bcbc9b87c7a0a7",
    ("slot-0.8", 20, "free"): "22e0761bcae31134d5dfa9c8d35b05bf9861ff89553a68ebb2cefeef58cc8512",
    ("slot-0.8", 70, "batch"): "83a802985cde07513b6001604ad062f7414e8d75d422779e3b7de5a8c086cb10",
    ("slot-0.8", 70, "free"): "adde0a21d1a0afcb68d1d611b2892ee4300c424e657818a5bae8b3bf45eb099a",
    ("slot-0.8", 250, "batch"): "148deaa4a2173f645f42ce2f869349d2a5e49f63252256f490b1bd45ea206bab",
    ("slot-0.8", 250, "free"): "1917e8b9b8d074fde37f9ac53e1716c62a33af6eb56e8a51c983857aa958f416",
    ("fractional", 12, "batch"): "5121c042f2b9d6e1667b1bcb1d35a412d652f8fea9d77496c428900d78d01269",
    ("fractional", 12, "free"): "71df5faf4cde17ce4c1ff997f95f1c109b6c58e44b4f9d6ce56bf51e09f94d5f",
    ("fractional", 70, "batch"): "26a28e6c6326fff72eb792be980db0448e7b2205528248b8cb3bcf4f22d6d9f4",
    ("fractional", 70, "free"): "24c1e1b8eb64fd928928d5effee0fb942d941138bcf0ffead456f6e34945959d",
}
# (timing, N, priority-state path): each case's natural path, plus the
# dense path at N=250.
CASES = [
    ("slot-0.8", 20, "dense"),
    ("slot-0.8", 70, "incremental"),
    ("slot-0.8", 250, "incremental"),
    ("slot-0.8", 250, "dense"),
    ("fractional", 12, "dense"),
    ("fractional", 70, "incremental"),
]


@pytest.mark.parametrize("rng", ["batch", "free"])
@pytest.mark.parametrize(
    "name,n,dp_state", CASES, ids=["-".join(map(str, c)) for c in CASES]
)
def test_decimal_timing_outputs_are_pinned(name, n, dp_state, rng):
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            _spec(name, n),
            DBDPPolicy(),
            SEEDS,
            record_traces=True,
            record_priorities=True,
            validate=False,
            rng=rng,
        )
    assert sim.dp_state == dp_state
    assert _digest(sim.run(INTERVALS)) == DIGESTS[name, n, rng]


@pytest.mark.parametrize(
    "engine, policy",
    [
        (engine, policy)
        for engine in ("scalar", "sync", "free")
        for policy in (LDFPolicy, DBDPPolicy)
    ]
    + [("scalar", FrameCSMAPolicy)],
)
def test_decimal_interval_holds_its_attempt_budget(engine, policy):
    """``1.2 // 0.4`` is 2.0 in float, but the interval holds three
    attempts; every engine counts the budget in integer time units."""
    timing = IntervalTiming(1.2, 0.4, 0.05, 0.0)
    assert timing.max_transmissions == 3
    spec = NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(8, ALPHA),
        channel=BernoulliChannel.symmetric(8, 0.7),
        timing=timing,
        delivery_ratios=0.6,
    )
    if engine == "scalar":
        per_interval = np.stack([
            run_simulation(spec, policy(), INTERVALS, seed=s).attempts.sum(axis=1)
            for s in SEEDS
        ])
    else:
        result = BatchIntervalSimulator(
            spec, policy(), SEEDS, rng=engine, record_traces=True
        ).run(INTERVALS)
        per_interval = result.attempts.sum(axis=2)
    assert per_interval.max() == 3


@pytest.mark.parametrize("slot", [0.0, 0.1])
@pytest.mark.parametrize("engine", ["scalar", "sync", "batch", "free"])
@pytest.mark.parametrize("family", ["FCSMA", "DCF"])
def test_contention_stop_rule_counts_time_units(family, engine, slot):
    """Three 0.4 us airtimes fill a 1.2 us interval exactly; in float
    ``0.4 + 0.4 + 0.4 > 1.2``.  With one link and a one-slot window
    every round starts without backoff, so every engine must reach
    three attempts in an interval, and never more."""
    from repro.core.dcf import DCFPolicy
    from repro.core.fcsma import DebtWindowMap, FCSMAPolicy

    timing = IntervalTiming(1.2, 0.4, 0.05, slot)
    assert timing.max_transmissions == 3
    spec = NetworkSpec.from_delivery_ratios(
        arrivals=BurstyVideoArrivals.symmetric(1, 0.9),
        channel=BernoulliChannel.symmetric(1, 0.5),
        timing=timing,
        delivery_ratios=0.5,
    )

    def policy():
        if family == "DCF":
            return DCFPolicy(cw_min=1, cw_max=1)
        return FCSMAPolicy(DebtWindowMap(windows=(1,)))

    if engine == "scalar":
        per_interval = np.concatenate([
            run_simulation(spec, policy(), 300, seed=s).attempts.sum(axis=1)
            for s in SEEDS
        ])
    else:
        result = BatchIntervalSimulator(
            spec, policy(), SEEDS, rng=engine, record_traces=True
        ).run(300)
        per_interval = result.attempts.sum(axis=2).ravel()
    assert per_interval.max() == 3

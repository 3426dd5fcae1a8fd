"""The paper's DP overhead bound on every engine that runs the DP family.

Sec. IV-C bounds the protocol's per-interval overhead at N+1 backoff
slots plus two empty priority-claiming packets, with no collisions
(backoffs are distinct).  ``repro summary`` checks that bound on the
scalar engine; these tests check it interval by interval, row by row,
on the scalar engine, the batch engine (both priority-state paths,
every draw discipline) and the topology engine's packed cells, for
DP and DB-DP under the paper's timings, the idealized timing and two
decimal timings.

Overhead is ``idle * slot + claims * empty_air`` with ``idle <= N + 1``
and ``claims <= 2``, and float rounding is monotone, so the bound is
compared exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    ConstantSwapBias,
    DBDPPolicy,
    DPProtocol,
    idealized_timing,
    run_simulation,
)
from repro.experiments.configs import video_symmetric_spec
from repro.phy.timing import IntervalTiming, low_latency_timing, video_timing
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import TopologySimulator, grid_cells
from tests.sim.dp_paths import dp_path

N = 30
SEEDS = (0, 1)
INTERVALS = 100

TIMINGS = {
    "video": video_timing(),
    "low-latency": low_latency_timing(),
    "idealized": idealized_timing(8),
    "slot-0.8": video_timing().with_slot_time(0.8),
    "fractional": IntervalTiming(1000.0, 30.5, 20.0, 4.5),
}
POLICIES = {
    "DP": lambda: DPProtocol(ConstantSwapBias(0.5)),
    "DB-DP": DBDPPolicy,
}


def _spec(timing, n=N):
    return dataclasses.replace(
        video_symmetric_spec(0.5, num_links=n), timing=timing
    )


def _assert_within_bound(overhead, collisions, timing, n):
    """Every interval's overhead within the bound, no collisions, and
    some overhead spent (the check is not vacuous)."""
    bound = (n + 1) * timing.backoff_slot_us + 2 * timing.empty_airtime_us
    overhead = np.asarray(overhead)
    assert not np.any(np.asarray(collisions))
    assert overhead.max() <= bound, (overhead.max(), bound)
    if bound > 0:
        assert overhead.max() > 0


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("timing", list(TIMINGS))
def test_scalar_engine(timing, policy):
    spec = _spec(TIMINGS[timing])
    run = run_simulation(spec, POLICIES[policy](), INTERVALS, seed=0)
    _assert_within_bound(
        run.overhead_time_us, run.collisions, spec.timing, N
    )


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("timing", list(TIMINGS))
@pytest.mark.parametrize(
    "dp_state,rng",
    [
        ("dense", "batch"),
        ("dense", "free"),
        ("dense", "sync"),
        ("incremental", "batch"),
        ("incremental", "free"),
    ],
)
def test_batch_engine(timing, policy, dp_state, rng):
    spec = _spec(TIMINGS[timing])
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            spec, POLICIES[policy](), SEEDS, rng=rng, validate=False
        )
    assert sim.dp_state == dp_state
    result = sim.run(INTERVALS)
    _assert_within_bound(
        result.overhead_time_us, result.collisions, spec.timing, N
    )


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("timing", list(TIMINGS))
@pytest.mark.parametrize("rng", ["batch", "free", "sync"])
def test_topology_cells(timing, policy, rng):
    """Each packed cell is one collision domain of ``width`` links."""
    topology = grid_cells(60, 3, 0.1)
    spec = _spec(TIMINGS[timing], n=60)
    sim = TopologySimulator(
        spec, POLICIES[policy](), SEEDS, topology, rng=rng,
        validate=False, record_traces=True,
    )
    sim.run(INTERVALS // 2)
    result = sim.sim.result
    _assert_within_bound(
        result.overhead_time_us, result.collisions, spec.timing,
        sim.packing.width,
    )

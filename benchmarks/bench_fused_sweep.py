"""Per-cell batch runs vs the grid-fused engine on a Fig. 3-style grid.

``run_single(engine="batch")`` vectorizes one (parameter value, policy)
cell across seeds but still pays one Python per-interval loop per cell; a
full figure grid is V x P of those.  ``run_sweep_fused`` collapses every
batchable (value, seed) cell of a policy family into one mega-batch, so the
whole sweep costs one interval loop per policy family.  This benchmark
times both on a full Fig. 3-style sweep at 0.02 alpha resolution (16
alpha values x 20 seeds x DB-DP + LDF), then re-runs the fused sweep
against a warm on-disk cache and asserts the replay is bit-identical.
Results land in ``BENCH_sweep.json`` (path overridable via
``REPRO_BENCH_SWEEP_JSON``).

Timing is manual (``perf_counter``) so the numbers exist even under
``pytest --benchmark-disable``; the committed full-scale measurement is
produced with ``REPRO_BENCH_SCALE=1``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.cache import SweepCache
from repro.experiments.grid import run_sweep_fused
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.runner import run_single

from _bench_utils import bench_intervals

#: The paper's Fig. 3 horizon; scaled by REPRO_BENCH_SCALE.
PAPER_INTERVALS = 5000
NUM_SEEDS = 20
ALPHAS = tuple(round(0.40 + 0.02 * i, 2) for i in range(16))
#: Smoke floor: the full-scale committed measurement shows >=3x; tiny CI
#: scales amortize the fused interval loop less, so assert conservatively.
MIN_SPEEDUP = 2.0

POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}


def _output_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_SWEEP_JSON", "BENCH_sweep.json"))


def _spec_builder(alpha: float):
    return video_symmetric_spec(alpha, delivery_ratio=0.9)


def test_fused_vs_per_cell_sweep(tmp_path):
    intervals = bench_intervals(PAPER_INTERVALS)
    seeds = tuple(range(NUM_SEEDS))
    cells = len(ALPHAS) * len(POLICIES)

    t0 = time.perf_counter()
    per_cell = {
        name: [
            run_single(
                _spec_builder(alpha), factory, intervals, seeds,
                engine="batch",
            ).total_deficiency
            for alpha in ALPHAS
        ]
        for name, factory in POLICIES.items()
    }
    per_cell_s = time.perf_counter() - t0
    gc.collect()

    cache = SweepCache(tmp_path / "sweeps")
    t0 = time.perf_counter()
    fused = run_sweep_fused(
        "alpha*", ALPHAS, _spec_builder, POLICIES, intervals, seeds,
        cache=cache, validate=False,
    )
    fused_s = time.perf_counter() - t0
    gc.collect()

    t0 = time.perf_counter()
    warm = run_sweep_fused(
        "alpha*", ALPHAS, _spec_builder, POLICIES, intervals, seeds,
        cache=cache, validate=False,
    )
    warm_s = time.perf_counter() - t0

    speedup = per_cell_s / fused_s
    report = {
        "workload": {
            "sweep": "video_symmetric_spec(alpha, delivery_ratio=0.9)",
            "values": list(ALPHAS),
            "policies": list(POLICIES),
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "cells": cells,
        },
        "per_cell_batch_seconds": round(per_cell_s, 3),
        "fused_seconds": round(fused_s, 3),
        "warm_cache_seconds": round(warm_s, 4),
        "speedup_fused_vs_per_cell": round(speedup, 2),
        "speedup_warm_vs_per_cell": round(per_cell_s / warm_s, 1),
        "cache": {"hits": cache.hits, "stores": cache.stores},
        "series": {
            name: [round(v, 4) for v in fused.series(name)]
            for name in POLICIES
        },
    }
    path = _output_path()
    path.write_text(json.dumps(report, indent=2) + "\n")

    # The engines must agree on the physics, not just the clock: fused
    # cells are fresh samples of the same estimator, so means stay close.
    for name in POLICIES:
        for a, b in zip(fused.series(name), per_cell[name]):
            assert abs(a - b) < max(0.2, 0.25 * b + 0.05), (name, a, b)

    # Warm cache must replay the cold fused sweep bit-for-bit.
    assert cache.stores == cells and cache.hits == cells
    assert warm.points == fused.points

    assert speedup > MIN_SPEEDUP, (
        f"fused sweep only {speedup:.1f}x faster than per-cell batch "
        f"(per-cell {per_cell_s:.2f}s, fused {fused_s:.2f}s)"
    )

"""MMPP fused-free sweeps vs the scalar engine on the traffic
robustness grid.

Before the batchable arrival-state layer, Markov-modulated specs forced
the scalar engine (or ``rng="sync"``'s scalar-speed clones): every
(burstiness, policy, seed) cell paid a Python per-interval loop.  The
fused engine now evolves the per-(seed, link) modulating chains
vectorized across all rows under ``rng="free"``, so the whole grid
costs one interval loop per policy family (plus one for the Bernoulli
reference group at ``burstiness = 0``).  This benchmark times both on
the ``ext-correlated-traffic`` grid, re-runs the fused sweep against a
warm on-disk cache (cache keys must be stable cold -> warm), and
asserts statistical agreement between the engines.  Results land in
``BENCH_ARRIVALS.json`` (path overridable via
``REPRO_BENCH_ARRIVALS_JSON``).

Timing is manual (``perf_counter``) so the numbers exist even under
``pytest --benchmark-disable``; the committed full-scale measurement is
produced with ``REPRO_BENCH_SCALE=1``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from pathlib import Path

from repro.experiments.cache import SweepCache
from repro.experiments.extensions import MMPP_GRID, _mmpp_spec
from repro.experiments.runner import run_sweep

from _bench_utils import bench_intervals

#: The extension study's horizon (the paper's video horizon); scaled by
#: REPRO_BENCH_SCALE.
PAPER_INTERVALS = 5000
NUM_SEEDS = 16
MEAN_RATE = 0.5
POLICIES = ("DB-DP", "LDF")
#: Smoke floor: the committed full-scale measurement shows >=5x; tiny CI
#: scales amortize the fused interval loop less, so assert conservatively.
MIN_SPEEDUP = 2.5


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_ARRIVALS_JSON", "BENCH_ARRIVALS.json")
    )


def test_mmpp_fused_vs_scalar(tmp_path):
    intervals = bench_intervals(PAPER_INTERVALS)
    seeds = tuple(range(NUM_SEEDS))
    builder = functools.partial(_mmpp_spec, MEAN_RATE)
    cells = len(MMPP_GRID) * len(POLICIES)
    kw = dict(
        parameter_name="burstiness",
        values=MMPP_GRID,
        spec_builder=builder,
        policies=POLICIES,
        num_intervals=intervals,
        seeds=seeds,
    )

    t0 = time.perf_counter()
    scalar = run_sweep(**kw, engine="scalar")
    scalar_s = time.perf_counter() - t0
    gc.collect()

    cache = SweepCache(tmp_path / "sweeps")
    t0 = time.perf_counter()
    fused = run_sweep(**kw, engine="fused", rng="free", cache=cache)
    fused_s = time.perf_counter() - t0
    gc.collect()

    t0 = time.perf_counter()
    warm = run_sweep(**kw, engine="fused", rng="free", cache=cache)
    warm_s = time.perf_counter() - t0

    speedup = scalar_s / fused_s
    report = {
        "workload": {
            "sweep": "ext-correlated-traffic grid: MMPP at fixed mean "
            "load 0.5, burstiness swept (x = 0 is the i.i.d. "
            "Bernoulli reference)",
            "values": list(MMPP_GRID),
            "policies": list(POLICIES),
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "cells": cells,
        },
        "scalar_seconds": round(scalar_s, 3),
        "fused_free_seconds": round(fused_s, 3),
        "warm_cache_seconds": round(warm_s, 4),
        "speedup_fused_vs_scalar": round(speedup, 2),
        "cache": {"hits": cache.hits, "stores": cache.stores},
        "series": {
            name: [round(v, 4) for v in fused.series(name)]
            for name in POLICIES
        },
    }
    path = _output_path()
    path.write_text(json.dumps(report, indent=2) + "\n")

    # Fused free-draw cells are fresh samples of the scalar estimator;
    # the per-cell means must track (loose bound — the CI-tight version
    # lives in tests/integration/test_arrival_state.py).
    for name in POLICIES:
        for a, b in zip(fused.series(name), scalar.series(name)):
            assert abs(a - b) < max(0.3, 0.5 * b + 0.1), (name, a, b)

    # Cold -> warm cache keys must be stable: every cell stored cold is
    # served warm, and the warm replay is bit-identical.
    assert cache.stores == cells and cache.hits == cells
    assert warm.points == fused.points

    assert speedup > MIN_SPEEDUP, (
        f"fused MMPP sweep only {speedup:.1f}x faster than scalar "
        f"(scalar {scalar_s:.2f}s, fused {fused_s:.2f}s)"
    )

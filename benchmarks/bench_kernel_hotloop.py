"""Workspace kernels on the Fig. 3 grid: lockstep vs free draws.

The batch kernels (:mod:`repro.sim.batch_kernels`) resolve each interval
on preallocated buffers with ``out=`` ufunc passes, closed-form
single-pair priority updates and matmul prefix sums.  ``rng="free"``
drops the lockstep draw contract so kernels generate only the randomness
they consume; it is a statistically equivalent fresh sample (asserted
within a CI bound by ``tests/integration/test_free_rng.py``).

This benchmark times both draw disciplines on the paper's Fig. 3 sweep
(16 alpha values x 20 seeds x DB-DP + LDF) and records a perf-counter
decomposition of the lockstep run, so the time is attributable stage by
stage.  Results land in ``BENCH_kernels.json`` (path overridable via
``REPRO_BENCH_KERNELS_JSON``); each run appends its headline numbers to
the report's ``trajectory`` list so the history stays in the artifact.

Timing is manual (``perf_counter``, interleaved best-of-3) so the numbers
exist even under ``pytest --benchmark-disable``; the full-scale
measurement is produced with ``REPRO_BENCH_SCALE=1``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro import DBDPPolicy, LDFPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim import perf

from _bench_utils import bench_intervals

#: The paper's Fig. 3 horizon; scaled by REPRO_BENCH_SCALE.
PAPER_INTERVALS = 5000
NUM_SEEDS = 20
ALPHAS = tuple(round(0.40 + 0.02 * i, 2) for i in range(16))
REPS = 3
#: Loose floor for the free-draw leg vs the lockstep leg: free must
#: never be a catastrophic regression, even on noisy smoke scales where
#: its draw savings are partly warm-up.
MIN_FREE_RATIO = 0.75

POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_KERNELS_JSON", "BENCH_kernels.json")
    )


def _spec_builder(alpha: float):
    return video_symmetric_spec(alpha, delivery_ratio=0.9)


def _run(intervals: int, seeds, rng=None):
    return run_sweep_fused(
        "alpha*", ALPHAS, _spec_builder, POLICIES, intervals, seeds,
        validate=False, rng=rng,
    )


def _prior_trajectory(path: Path):
    """The trajectory recorded by previous runs of this benchmark."""
    try:
        return list(json.loads(path.read_text()).get("trajectory", []))
    except (OSError, ValueError):
        return []


def test_kernel_hotloop():
    intervals = bench_intervals(PAPER_INTERVALS)
    seeds = tuple(range(NUM_SEEDS))

    legs = {"numpy": None, "numpy+free": "free"}
    for rng in legs.values():  # warm every code path before timing
        _run(intervals, seeds, rng=rng)
    best = {}
    for _ in range(REPS):
        for key, rng in legs.items():  # interleaved: noise hits all equally
            gc.collect()
            t0 = time.perf_counter()
            _run(intervals, seeds, rng=rng)
            best[key] = min(
                best.get(key, float("inf")), time.perf_counter() - t0
            )

    # One instrumented lockstep run for the stage decomposition.
    was_enabled = perf.counters.enabled
    perf.reset()
    perf.enable()
    try:
        _run(intervals, seeds)
        stages = perf.counters.snapshot()
    finally:
        perf.counters.enabled = was_enabled
        perf.reset()

    free_ratio = best["numpy"] / best["numpy+free"]
    report = {
        "workload": {
            "sweep": "video_symmetric_spec(alpha, delivery_ratio=0.9)",
            "values": list(ALPHAS),
            "policies": list(POLICIES),
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
        },
        "best_seconds": {k: round(v, 3) for k, v in best.items()},
        "speedup_free_vs_numpy_batch": round(free_ratio, 2),
        "numpy_stage_seconds": {
            name: round(stat["seconds"], 4) for name, stat in stages.items()
        },
        "numpy_stage_allocs": {
            name: int(stat["allocs"])
            for name, stat in stages.items()
            if stat["allocs"]
        },
    }

    path = _output_path()
    trajectory = _prior_trajectory(path)
    trajectory.append(
        {
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "numpy_seconds": round(best["numpy"], 3),
            "free_seconds": round(best["numpy+free"], 3),
        }
    )
    report["trajectory"] = trajectory[-12:]  # bounded history
    path.write_text(json.dumps(report, indent=2) + "\n")

    assert free_ratio > MIN_FREE_RATIO, (
        f"free-draw discipline regressed: {best['numpy+free']:.2f}s vs "
        f"lockstep {best['numpy']:.2f}s"
    )

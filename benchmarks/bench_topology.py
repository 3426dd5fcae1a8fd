"""Multi-cell topology layer throughput: 10k links as cell-parallel rows.

The single-domain DP engine has a structural wall at large N: even on
its incremental priority-state path every interval still scans all N
links, and the committed BENCH_LARGE_N.json baseline manages ~106
intervals/sec at N=10000.  The topology layer (``repro.topology``) removes the wall by
partitioning the 10,000 links into 400 interference cells of 25 links
and simulating each (seed, cell) pair as an independent row — the
compiled cell kernel (``repro.topology.cellsim``) walks those rows at
thousands of intervals/sec on one core.

This benchmark records, in ``BENCH_TOPOLOGY.json``:

* the compiled engine on the disconnected 400x25 topology (the
  acceptance shape; same video workload, seeds and horizon family as
  ``bench_large_n.py``),
* the compiled engine with cross-cell boundary links (every border
  promoted, per-interval owner resolution),
* the numpy topology lowering (same semantics via the batch engine;
  measured at a shorter horizon — it is the portable fallback, not the
  headline),
* a same-box re-measurement of the single-domain incremental baseline,
  alongside the *pinned* committed baseline (106.1 int/s) the >= 10x
  acceptance ratio is defined against.

Intervals/sec counts topology intervals: one interval advances every
(seed, cell) row once, i.e. the whole 10,000-link network by one frame.
The committed artifact is produced with ``REPRO_BENCH_SCALE=1``; the
in-test assertion uses a smoke floor well below the acceptance bar so
noisy CI boxes don't flake.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.topology import grid_cells, run_topology_batch
from repro.topology import cellsim

from _bench_utils import bench_intervals

PAPER_INTERVALS = 600
NUM_SEEDS = 8
NUM_LINKS = 10000
NUM_CELLS = 400
ALPHA = 0.55
REPS = 2
#: Horizon for the numpy lowering leg (context only; ~2 orders of
#: magnitude slower than the compiled kernel at this shape).
NUMPY_INTERVALS = 40
#: The committed single-domain incremental baseline the acceptance
#: criterion pins (BENCH_LARGE_N.json, N=10000, this workload shape).
PINNED_BASELINE_INT_PER_SEC = 106.1
#: Smoke floor for compiled/pinned on scaled-down CI runs; the
#: committed full-scale artifact must show >= 10x.
MIN_COMPILED_RATIO = 3.0


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_TOPOLOGY_JSON", "BENCH_TOPOLOGY.json")
    )


def _time_compiled(topology, spec, intervals: int) -> float:
    best = float("inf")
    for _ in range(REPS):
        gc.collect()
        t0 = time.perf_counter()
        cellsim.run_topology_compiled(
            spec, DBDPPolicy(), range(NUM_SEEDS), topology, intervals
        )
        best = min(best, time.perf_counter() - t0)
    return best


def test_topology_scaling():
    intervals = bench_intervals(PAPER_INTERVALS, minimum=60)
    spec = video_symmetric_spec(ALPHA, num_links=NUM_LINKS)
    flat = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.0)
    crossed = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.04)
    assert len(crossed.boundary_links) == NUM_CELLS

    compiled_ok = cellsim.compiled_available()
    entry: dict = {
        "num_links": NUM_LINKS,
        "num_cells": NUM_CELLS,
        "links_per_cell": NUM_LINKS // NUM_CELLS,
        "num_seeds": NUM_SEEDS,
        "alpha": ALPHA,
        "num_intervals": intervals,
        "compiled_available": compiled_ok,
        "compile_error": cellsim.compile_error(),
    }

    if compiled_ok:
        flat_s = _time_compiled(flat, spec, intervals)
        cross_s = _time_compiled(crossed, spec, intervals)
        entry["compiled_seconds"] = round(flat_s, 3)
        entry["intervals_per_second_compiled"] = round(intervals / flat_s, 1)
        entry["compiled_cross_cell_seconds"] = round(cross_s, 3)
        entry["intervals_per_second_compiled_cross_cell"] = round(
            intervals / cross_s, 1
        )
        entry["num_boundary_links_cross_cell"] = len(crossed.boundary_links)
    else:
        entry["compiled_seconds"] = None
        entry["intervals_per_second_compiled"] = None

    # Numpy lowering, short horizon: the portable path's throughput is
    # context for the compiled speedup, not the acceptance number.
    np_intervals = max(10, bench_intervals(NUMPY_INTERVALS, minimum=10))
    gc.collect()
    t0 = time.perf_counter()
    run_topology_batch(
        spec, DBDPPolicy(), range(NUM_SEEDS), flat, np_intervals, rng="free"
    )
    np_s = time.perf_counter() - t0
    entry["numpy_intervals"] = np_intervals
    entry["numpy_seconds"] = round(np_s, 3)
    entry["intervals_per_second_numpy"] = round(np_intervals / np_s, 2)

    # Same-box single-domain baseline (one rep: context, not the pin).
    sim = BatchIntervalSimulator(
        spec,
        DBDPPolicy(),
        seeds=range(NUM_SEEDS),
        record_traces=False,
        validate=False,
    )
    assert sim.dp_state == "incremental"  # N=10000 > max_transmissions + 1
    gc.collect()
    t0 = time.perf_counter()
    sim.run(intervals)
    base_s = time.perf_counter() - t0
    entry["single_domain_incremental_seconds"] = round(base_s, 3)
    entry["intervals_per_second_single_domain"] = round(
        intervals / base_s, 1
    )

    report = {
        "workload": {
            "spec": f"video_symmetric_spec({ALPHA}, num_links={NUM_LINKS})",
            "policy": "DB-DP",
            "topology": f"grid_cells({NUM_LINKS}, {NUM_CELLS})",
            "num_seeds": NUM_SEEDS,
        },
        "pinned_baseline_intervals_per_second": PINNED_BASELINE_INT_PER_SEC,
        "entry": entry,
    }
    if compiled_ok:
        ratio_pinned = (
            entry["intervals_per_second_compiled"]
            / PINNED_BASELINE_INT_PER_SEC
        )
        report["compiled_speedup_vs_pinned_baseline"] = round(ratio_pinned, 2)
        report["compiled_speedup_vs_same_box_baseline"] = round(
            entry["intervals_per_second_compiled"]
            / entry["intervals_per_second_single_domain"],
            2,
        )
    path = _output_path()
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if compiled_ok:
        assert ratio_pinned >= MIN_COMPILED_RATIO, (
            f"compiled topology engine at {entry['intervals_per_second_compiled']}"
            f" int/s is below the {MIN_COMPILED_RATIO}x smoke floor over the "
            f"pinned {PINNED_BASELINE_INT_PER_SEC} int/s baseline"
        )


if __name__ == "__main__":
    test_topology_scaling()

"""Multi-cell topology layer throughput: 10k links as cell-parallel rows.

The topology layer (``repro.topology``) partitions 10,000 links into 400
interference cells of 25 links and lowers every (seed, cell) pair onto
one row of a single batch simulator (``run_topology_batch``).  This
benchmark records, in ``BENCH_TOPOLOGY.json``:

* that lowering on the disconnected 400x25 topology (the same video
  workload, seeds and horizon family as ``bench_large_n.py``);
* a same-box run of the single-domain incremental DP engine on the same
  10,000 links in one collision domain, as context for the per-interval
  cost of the topology layer.

Intervals/sec counts topology intervals: one interval advances every
(seed, cell) row once, i.e. the whole 10,000-link network by one frame.
The committed artifact is produced with ``REPRO_BENCH_SCALE=1``.
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

from _bench_utils import bench_intervals

PAPER_INTERVALS = 600
NUM_SEEDS = 8
NUM_LINKS = 10000
NUM_CELLS = 400
ALPHA = 0.55


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_TOPOLOGY_JSON", "BENCH_TOPOLOGY.json")
    )


def test_topology_scaling():
    intervals = bench_intervals(PAPER_INTERVALS, minimum=60)
    spec = video_symmetric_spec(ALPHA, num_links=NUM_LINKS)
    topology = grid_cells(NUM_LINKS, NUM_CELLS, cross_cell_fraction=0.0)
    entry: dict = {
        "num_links": NUM_LINKS,
        "num_cells": NUM_CELLS,
        "links_per_cell": NUM_LINKS // NUM_CELLS,
        "num_seeds": NUM_SEEDS,
        "alpha": ALPHA,
        "num_intervals": intervals,
    }

    gc.collect()
    t0 = time.perf_counter()
    run_topology_batch(
        spec, DBDPPolicy(), range(NUM_SEEDS), topology, intervals, rng="free"
    )
    topo_s = time.perf_counter() - t0
    entry["topology_seconds"] = round(topo_s, 3)
    entry["intervals_per_second_topology"] = round(intervals / topo_s, 1)

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
            "topology_rng": "free",
            "num_seeds": NUM_SEEDS,
        },
        "entry": entry,
        "topology_vs_single_domain": round(base_s / topo_s, 2),
    }
    path = _output_path()
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    test_topology_scaling()

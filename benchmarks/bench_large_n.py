"""Large-N scaling of the DP kernel: dense vs incremental priority state.

The dense workspace DP kernel re-derives the full service order and
solves an ``(S, N)``-plane timeline (with ``(N, N)`` exclusion matmuls)
every interval, so its per-interval cost grows as O(S*N^2) even though a
single interval can only change the priority permutation by one adjacent
swap and only ``K = min(N, max_transmissions + 1)`` links can possibly
transmit.  The incremental priority-state path keeps the inverse
permutation and serve-order tables alive in the workspace across
intervals, applies accepted swaps in O(commits), and solves the timeline
on the ``(S, K)`` backlogged serve set only — bit-identical by
construction (asserted here and in ``tests/sim/test_incremental_dp.py``)
and asymptotically flat in N outside the O(S*N) candidate/selection
scans.  The kernel picks that path itself when N > max_transmissions +
1; this benchmark runs both paths at every N through the kernel's
private ``_force_dp_state`` hook.

This benchmark sweeps N over {20, 100, 500, 2000, 10000} on the video
workload, asserts bit-identity per N, times both paths interleaved
(best-of), and records a per-stage ``kernel.dp.*`` decomposition so the
win is attributable.  The dense leg stops at N=2000: its ``(N, N)``
exclusion buffer alone is ~800 MB of int64 at N=10000, which is exactly
the wall the incremental path removes — the N=10000 row therefore
reports the incremental path's absolute throughput with
``dense_seconds: null``.  Results land in ``BENCH_LARGE_N.json`` (path
overridable via ``REPRO_BENCH_LARGE_N_JSON``); the committed full-scale
measurement is produced with ``REPRO_BENCH_SCALE=1``.

Comparing the paths means comparing the *sum* of their ``kernel.dp.*``
stages (the incremental path reports its state upkeep under
``kernel.dp.incremental``, which the dense path does not have); see
``repro.sim.perf.KNOWN_STAGES``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.sim import perf
from repro.sim.batch_kernels import BatchDPKernel
from repro.sim.batch_sim import BatchIntervalSimulator

from _bench_utils import bench_intervals

#: Paper-scale horizon per N (scaled by REPRO_BENCH_SCALE; the committed
#: artifact uses scale 1).  Short relative to the figure benchmarks
#: because each interval is timed N_GRID x 2 paths x REPS times.
PAPER_INTERVALS = 600
NUM_SEEDS = 8
N_GRID = (20, 100, 500, 2000, 10000)
#: Largest N the dense path runs at; beyond this its O(N^2) buffers and
#: matmuls are the point being demonstrated, not a practical baseline.
DENSE_N_MAX = 2000
REPS = 2
ALPHA = 0.55
#: Smoke floor for the combined kernel.dp.* stage ratio at N >= 2000.
#: The committed full-scale run shows ~10x (see BENCH_LARGE_N.json);
#: assert well below that so noisy CI boxes don't flake.  The issue's
#: acceptance bar (>= 5x at N=2000) is checked against the committed
#: artifact by tools/check_incremental_wins.py.
MIN_DP_STAGE_RATIO_2000 = 3.0
#: Identity-check horizon per N (unscaled; cheap and exercised fully).
IDENTITY_INTERVALS = 40


def _output_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_LARGE_N_JSON", "BENCH_LARGE_N.json")
    )


def _build(n: int, path: str) -> BatchIntervalSimulator:
    """A stats-only DB-DP simulator on priority-state ``path``."""
    spec = video_symmetric_spec(ALPHA, num_links=n)
    BatchDPKernel._force_dp_state = path
    try:
        sim = BatchIntervalSimulator(
            spec,
            DBDPPolicy(),
            seeds=range(NUM_SEEDS),
            record_traces=False,  # stats-only: O(S*N) memory at N=10000
            validate=False,
        )
    finally:
        BatchDPKernel._force_dp_state = None
    assert sim.dp_state == path
    return sim


def _assert_identical(n: int) -> None:
    """Dense and incremental must produce bit-identical streaming stats."""
    stats = {}
    for mode in ("dense", "incremental"):
        stats[mode] = _build(n, mode).run(IDENTITY_INTERVALS)
    d, i = stats["dense"], stats["incremental"]
    assert np.array_equal(d.delivery_sums, i.delivery_sums), (
        f"N={n}: delivery sums diverged between dense and incremental"
    )
    assert np.array_equal(d.collision_sums, i.collision_sums)
    assert np.array_equal(
        np.asarray(d._overhead_rows), np.asarray(i._overhead_rows)
    ), f"N={n}: overhead traces diverged between dense and incremental"


def _time_run(n: int, mode: str, intervals: int) -> float:
    sim = _build(n, mode)  # bind (and any warm-compile) outside the timer
    gc.collect()
    t0 = time.perf_counter()
    sim.run(intervals)
    return time.perf_counter() - t0


def _stage_run(n: int, mode: str, intervals: int) -> dict:
    """One instrumented run; returns the perf-stage snapshot."""
    was_enabled = perf.counters.enabled
    sim = _build(n, mode)
    perf.reset()
    perf.enable()
    try:
        sim.run(intervals)
        return perf.counters.snapshot()
    finally:
        perf.counters.enabled = was_enabled
        perf.reset()


def _dp_seconds(stages: dict) -> float:
    return sum(
        stat["seconds"]
        for name, stat in stages.items()
        if name.startswith("kernel.dp.")
    )


def _prior_trajectory(path: Path):
    try:
        return list(json.loads(path.read_text()).get("trajectory", []))
    except (OSError, ValueError):
        return []


def test_large_n_scaling():
    intervals = bench_intervals(PAPER_INTERVALS, minimum=60)
    entries = []
    for n in N_GRID:
        dense_leg = n <= DENSE_N_MAX
        if dense_leg:
            _assert_identical(n)
        best = {"dense": float("inf"), "incremental": float("inf")}
        legs = (
            ("dense", "incremental") if dense_leg else ("incremental",)
        )
        for _ in range(REPS):
            for mode in legs:  # interleaved: noise hits both equally
                best[mode] = min(best[mode], _time_run(n, mode, intervals))

        inc_stages = _stage_run(n, "incremental", intervals)
        inc_dp = _dp_seconds(inc_stages)
        entry = {
            "num_links": n,
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "alpha": ALPHA,
            "incremental_seconds": round(best["incremental"], 3),
            "incremental_dp_stage_seconds": round(inc_dp, 4),
            "incremental_stages": {
                name: round(stat["seconds"], 4)
                for name, stat in inc_stages.items()
                if name.startswith("kernel.dp.")
            },
            "intervals_per_second_incremental": round(
                intervals / best["incremental"], 1
            ),
        }
        if dense_leg:
            dense_stages = _stage_run(n, "dense", intervals)
            dense_dp = _dp_seconds(dense_stages)
            entry.update(
                {
                    "dense_seconds": round(best["dense"], 3),
                    "dense_dp_stage_seconds": round(dense_dp, 4),
                    "dense_stages": {
                        name: round(stat["seconds"], 4)
                        for name, stat in dense_stages.items()
                        if name.startswith("kernel.dp.")
                    },
                    "wall_speedup": round(
                        best["dense"] / best["incremental"], 2
                    ),
                    "dp_stage_speedup": round(dense_dp / inc_dp, 2),
                }
            )
        else:
            entry["dense_seconds"] = None
            # Explicit nulls (not absent keys): consumers iterate the
            # entries list and read the speedup field unconditionally.
            entry["dp_stage_speedup"] = None
            entry["dense_skipped_reason"] = (
                f"dense path needs O(N^2) buffers (~{8 * n * n / 1e9:.1f} "
                "GB of int64 exclusion matrix alone at this N)"
            )
        entries.append(entry)
        print(
            f"N={n}: inc {best['incremental']:.3f}s"
            + (
                f" dense {best['dense']:.3f}s "
                f"(wall x{entry['wall_speedup']}, "
                f"dp-stages x{entry['dp_stage_speedup']})"
                if dense_leg
                else " (dense leg skipped)"
            )
        )

    report = {
        "workload": {
            "spec": f"video_symmetric_spec({ALPHA}, num_links=N)",
            "policy": "DB-DP",
            "num_intervals": intervals,
            "num_seeds": NUM_SEEDS,
            "record_traces": False,
        },
        "n_grid": list(N_GRID),
        "dense_n_max": DENSE_N_MAX,
        "entries": entries,
    }
    path = _output_path()
    trajectory = _prior_trajectory(path)
    by_n = {e["num_links"]: e for e in entries}
    head = by_n.get(2000, entries[-1])
    trajectory.append(
        {
            "num_intervals": intervals,
            "num_links": head["num_links"],
            "dp_stage_speedup": head.get("dp_stage_speedup"),
            "wall_speedup": head.get("wall_speedup"),
            "incremental_seconds": head["incremental_seconds"],
        }
    )
    report["trajectory"] = trajectory[-12:]  # bounded history
    path.write_text(json.dumps(report, indent=2) + "\n")

    big = by_n.get(2000)
    assert big is not None and big["dp_stage_speedup"] >= MIN_DP_STAGE_RATIO_2000, (
        "incremental dp-stage speedup at N=2000 below smoke floor: "
        f"{big and big.get('dp_stage_speedup')} < {MIN_DP_STAGE_RATIO_2000}"
    )
    # Every dense-comparable N must have passed bit-identity above; make
    # the scaling claim explicit too: the incremental path must not get
    # slower per interval as N grows from 500 to 2000 anywhere near the
    # dense path's quadratic blowup.
    if 500 in by_n and 2000 in by_n and by_n[500].get("dense_seconds"):
        inc_growth = (
            by_n[2000]["incremental_seconds"] / by_n[500]["incremental_seconds"]
        )
        dense_growth = (
            by_n[2000]["dense_seconds"] / by_n[500]["dense_seconds"]
        )
        assert inc_growth < dense_growth, (
            f"incremental path scaled worse than dense from N=500 to "
            f"N=2000 ({inc_growth:.2f}x vs {dense_growth:.2f}x)"
        )


if __name__ == "__main__":
    test_large_n_scaling()

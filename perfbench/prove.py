"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (as a share of the median).

Usage, from the root of a checkout::

    python3 perfbench/prove.py --seeds 10 [--workload NAME ...] [--write]

``--write`` stores the medians and spreads in perfbench/baseline.json
(the baseline a later change is compared against), together with the
per-layer metrics of one traced run per workload.  Runs go one at a
time, in workload order, with the ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    """The measuring machine, recorded next to the numbers."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    baseline = {}
    for name in names:
        values = {metric: [] for metric in bounds}
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            result = run_once(name, seed, config["run_seconds"])
            durations.append(time.perf_counter() - started)
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: incorrect output")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        print(f"{name}: {len(durations)} runs, "
              f"{statistics.median(durations):.1f} s each (median)")
        traced = run_once(name, args.first_seed, config["run_seconds"], trace=1)
        if not traced["correct"]:
            raise RuntimeError(f"{name}: incorrect output in the traced run")
        baseline[name] = {"per_layer_traced": {
            metric: entry["value"] for metric, entry in traced["metrics"].items()
        }}
        for metric, vals in values.items():
            spread = quartile_spread(vals)
            flag = "" if spread < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:22s} median {statistics.median(vals):.6g}  "
                  f"spread {spread:.4f} (bound {bounds[metric]}){flag}")
            baseline[name][metric] = {
                "median": statistics.median(vals), "spread": spread,
                "runs": len(vals),
            }
        sys.stdout.flush()
    if args.write:
        baseline["host"] = host()
        path = HERE / "baseline.json"
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

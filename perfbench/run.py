"""One run of the repository's benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop of cold
tasks (one at a time, each with a fresh sweep cache directory) for
``--seconds``, plus fresh-interpreter reruns for set-up and warm times.
``--trace 1`` runs one task with every layer wrapped in spans and prints
the per-layer table, whose self times add up to the traced wall time.
Both check the program's outputs and exit non-zero when a check fails.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (sweep cells) and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
everything the run writes stays under ``.perfbench_tmp/`` (removed at
exit) and ``.perfbench_out/`` (samples, environment and span dumps).
"""

from __future__ import annotations

import os

#: BLAS thread pools are pinned before numpy loads; the value is recorded.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from stats import seed_list, tail_percentile
from workloads import WORKLOADS, BoundaryServeCheck, Topology

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

#: Fresh interpreters per run that stop after the first simulated
#: interval, for setup_s.
SETUP_PROBES = 5
#: Fresh interpreters per run that rerun the whole task, for warm_s on
#: workloads without a sweep cache (--resume workloads instead rerun
#: warm after every timed task).
WARM_RERUNS = 3
#: A closed loop always completes at least this many timed tasks.
MIN_TASKS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("link_intervals_per_s", "1/s"),
    ("setup_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _isolate_environment() -> None:
    """Drop settings that would change what the program runs, and keep
    temporary files inside the checkout."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = str(TMP)
    sys.path.insert(0, str(SRC))


def _import_program() -> float:
    """Import the program from the checkout; return the seconds it took."""
    started = time.perf_counter()
    import repro
    import repro.experiments.cli  # noqa: F401
    import repro.topology  # noqa: F401

    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return elapsed


# ----------------------------------------------------------------------
# Fresh-interpreter reruns
# ----------------------------------------------------------------------
class _FirstInterval(BaseException):
    """Stops a set-up probe once the first interval has been simulated
    (a BaseException, so no fault handler in the program swallows it)."""


def _stop_after_first_interval(record: dict) -> None:
    """Make the first simulated interval note its wall-clock end and
    the simulator's resolved axes in ``record``, then stop the task."""
    from repro.sim.batch_sim import BatchIntervalSimulator
    from repro.sim.interval_sim import IntervalSimulator

    def stopping(original):
        def step(sim):
            original(sim)
            record["first_interval_at"] = time.time()
            record["axes"] = _axes(sim)
            raise _FirstInterval

        return step

    for cls in (BatchIntervalSimulator, IntervalSimulator):
        cls.step = stopping(cls.__dict__["step"])


def _axes(sim) -> dict:
    """What a simulator resolved to run with."""
    axes = {"policy": type(sim.policy).__name__}
    if hasattr(sim, "rng_mode"):
        axes.update(
            engine="batch", rng=sim.rng_mode, backend=sim.backend,
            dp_state=sim.dp_state, rows=sim.num_seeds,
        )
    else:
        axes["engine"] = "scalar"
    return axes


def _child_main(args, workload) -> int:
    record: dict = {}
    if args.probe:
        _stop_after_first_interval(record)
    seeds = [int(s) for s in args.child_seeds.split(",")]
    os.environ["REPRO_SWEEP_CACHE"] = args.child_cache
    try:
        out = workload.run(seeds)
        record["digest"] = out.digest
    except _FirstInterval:
        pass
    print(json.dumps(record))
    return 0


def _rerun(workload, seeds, cache_dir: Path, probe: bool) -> dict:
    """Run one task in a fresh interpreter; return the child's record
    plus ``wall_s`` (spawn to exit).  A ``probe`` stops after the first
    simulated interval and adds ``setup_s`` (spawn to the end of that
    interval) and the resolved ``axes``."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload.name,
        "--child-seeds", ",".join(map(str, seeds)),
        "--child-cache", str(cache_dir),
    ]
    if probe:
        cmd.append("--probe")
    started = time.time()
    proc = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    ended = time.time()
    if proc.returncode != 0:
        raise RuntimeError(
            f"rerun exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = ended - started
    if "first_interval_at" in record:
        record["setup_s"] = record["first_interval_at"] - started
    return record


# ----------------------------------------------------------------------
# Bookkeeping shared by both modes
# ----------------------------------------------------------------------
class Ledger:
    """Counts sweep cells attempted and failed, and why they failed."""

    def __init__(self, workload, seed: int, seeds):
        self.workload = workload
        self.seed = seed
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.events = set()
        self.reference = None

    def task(self, cache_dir: Path):
        """Run one task with ``cache_dir`` as its sweep cache; return
        ``(output or None, seconds)``.  Warnings are collected as
        degrade events."""
        os.environ["REPRO_SWEEP_CACHE"] = str(cache_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.perf_counter()
            try:
                out = self.workload.run(self.seeds)
            except Exception as exc:  # a failed task is counted, not fatal
                out = None
                self.attempted += self.workload.num_cells()
                self.fail(self.workload.num_cells(), f"task raised {exc!r}")
            elapsed = time.perf_counter() - started
        for w in caught:
            self.events.add(f"{w.category.__name__}: {w.message}")
        if out is not None:
            self.score(out)
        return out, elapsed

    def fail(self, cells: int, problem: str) -> None:
        self.failed += cells
        if problem not in self.problems:
            self.problems.append(problem)

    def score(self, out) -> None:
        """Check one task's output; the first output is the reference
        every later one must match bit for bit."""
        cells = self.workload.num_cells()
        self.attempted += cells
        if out.cells != cells:
            self.fail(cells, f"expected {cells} cells, got {out.cells}")
            return
        bad = out.bad_cells()
        if bad:
            self.fail(bad, f"{bad} cells NaN, infinite or negative")
            return
        problems = self.workload.problems(out)
        if problems:
            self.fail(cells, "; ".join(problems))
            return
        if self.reference is None:
            self.reference = out.digest
        elif out.digest != self.reference:
            self.fail(cells, "output differs from the first task's at the same seeds")

    def same_as_reference(self, digest, what: str) -> None:
        cells = self.workload.num_cells()
        self.attempted += cells
        if digest != self.reference:
            self.fail(cells, f"{what} output differs from the cold task's")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


def _environment(workload, ledger) -> dict:
    """What ran: host, toolchain and the program's capability decisions."""
    import numpy

    from repro.core import registry
    from repro.experiments import configs
    from repro.sim import jit_kernels
    from repro.sim.batch_sim import supports_batch_engine

    spec = configs.video_symmetric_spec(0.5, delivery_ratio=0.9)
    for name in workload.policy_names():
        policy = registry.resolve_policies([name])[name]()
        if not supports_batch_engine(spec, policy):
            ledger.events.add(
                f"degrade: {name} has no batch kernel; its cells run on "
                "the scalar engine"
            )
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if jit_kernels.HAS_NUMBA else "absent",
        "c_compiler": shutil.which("cc") or shutil.which("gcc") or "absent",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": repr(workload),
        "seeds": list(ledger.seeds),
    }
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    return env


def _describe(values, unit: str) -> str:
    text = f"median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f" (n={len(values)})"


def _emit(ledger, metrics: dict, units: dict, report: dict, path: Path) -> int:
    report.update(
        attempted=ledger.attempted, failed=ledger.failed,
        failed_frac=ledger.failed_frac, problems=ledger.problems,
        degrade_events=sorted(ledger.events),
    )
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"  failed_frac {ledger.failed_frac:.6g} "
          f"({ledger.failed}/{ledger.attempted} cells)")
    for event in sorted(ledger.events):
        print(f"  event: {event}")
    for problem in ledger.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in metrics
        },
    }))
    return 0 if ledger.correct else 1


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload, ledger, seconds: float, import_s: float, tmp: Path) -> int:
    env = _environment(workload, ledger)
    counter = itertools.count()

    def fresh_cache() -> Path:
        return tmp / f"cache{next(counter)}"

    setup, warm, walls = [], [], []
    for _ in range(SETUP_PROBES):
        rec = _rerun(workload, ledger.seeds, fresh_cache(), True)
        setup.append(rec["setup_s"])
        env["resolved"] = rec["axes"]
    ledger.task(fresh_cache())  # warm-up: lazy set-up, reference output
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(walls) < MIN_TASKS:
        cache = fresh_cache()
        gc.collect()
        out, elapsed = ledger.task(cache)
        walls.append(elapsed)
        if workload.resume and out is not None:
            rec = _rerun(workload, ledger.seeds, cache, False)
            ledger.same_as_reference(rec.get("digest"), "warm --resume rerun")
            warm.append(rec["wall_s"])
    if not workload.resume:
        for _ in range(WARM_RERUNS):
            rec = _rerun(workload, ledger.seeds, fresh_cache(), False)
            ledger.same_as_reference(rec.get("digest"), "fresh-interpreter rerun")
            warm.append(rec["wall_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _verify_topology(workload, ledger, fresh_cache())

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "link_intervals_per_s": workload.work() / wall,
        "setup_s": statistics.median(setup),
        "warm_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    print(f"  import {import_s:.4f} s (this process)")
    print(f"  resolved: {env.get('resolved')}")
    print(f"  wall_s               {_describe(walls, 's')}")
    print(f"  link_intervals_per_s {metrics['link_intervals_per_s']:.6g} 1/s "
          f"({workload.work():.6g} link-intervals per task)")
    print(f"  setup_s              {_describe(setup, 's')}")
    print(f"  warm_s               {_describe(warm, 's')}")
    print(f"  peak_rss_mb          {peak_rss_mb:.6g} MB")
    report = {"environment": env, "metrics": metrics,
              "samples": {"wall_s": walls, "setup_s": setup, "warm_s": warm}}
    return _emit(ledger, metrics, units, report,
                 OUT / f"{workload.name}-seed{ledger.seed}-trace0.json")


def _verify_topology(workload, ledger, cache: Path) -> None:
    """Untimed pass: no boundary link is ever served in two cells."""
    if not isinstance(workload, Topology):
        return
    check = BoundaryServeCheck()
    restore = check.install()
    try:
        out, _ = ledger.task(cache)
    finally:
        restore()
    if check.intervals != workload.num_intervals:
        ledger.fail(0, f"boundary check saw {check.intervals} intervals")
    if check.violations:
        ledger.fail(
            workload.num_cells(),
            f"{check.violations} (interval, seed, boundary link) triples "
            "served in two cells",
        )


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def trace(workload, ledger, import_s: float, tmp: Path) -> int:
    from layers import PER_LAYER, install, per_layer_metrics
    from repro.sim import perf
    from spans import SpanRecorder, root_table

    env = _environment(workload, ledger)
    counter = itertools.count()

    def composite():
        """The traced unit: one cold task, and for --resume workloads
        its warm rerun against the cache it filled (in this process)."""
        cache = tmp / f"cache{next(counter)}"
        started = time.perf_counter()
        out, _ = ledger.task(cache)
        if workload.resume and out is not None:
            ledger.task(cache)
        return out, time.perf_counter() - started

    composite()  # warm-up: lazy set-up, reference output
    gc.collect()
    _, untraced_s = composite()
    rec = SpanRecorder()
    restore = install(rec)
    gc.collect()
    try:
        root = rec.open("task")
        composite()
        rec.close(root)
    finally:
        restore()
    snapshot = perf.counters.snapshot()
    perf.reset()
    traced_s = rec.duration(root)
    _verify_topology(workload, ledger, tmp / "verify")

    metrics = per_layer_metrics(rec, root, snapshot, import_s, traced_s - untraced_s)
    table = root_table(rec, root)
    total = sum(table.values())
    if abs(total - traced_s) > 1e-9 * max(1.0, traced_s):
        ledger.fail(0, f"layer self times add up to {total}, not {traced_s}")
    resolved = [rec.notes[i] for i in sorted(rec.notes) if "rows" in rec.notes[i]]
    env["resolved"] = resolved
    print(f"  traced wall {traced_s:.6f} s, untraced {untraced_s:.6f} s, "
          f"{len(rec)} spans")
    print(f"  {'layer':32s} {'self_s':>12s} {'share':>7s}")
    for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {value:12.6f} {value / traced_s:7.1%}")
    print(f"  {'(sum)':32s} {total:12.6f}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g}")
    for axes in resolved:
        print(f"  resolved: {axes}")
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"{workload.name}-seed{ledger.seed}-spans.json.gz")
    report = {"environment": env, "metrics": metrics, "table": table,
              "traced_s": traced_s, "untraced_s": untraced_s}
    return _emit(ledger, metrics, dict(PER_LAYER), report,
                 OUT / f"{workload.name}-seed{ledger.seed}-trace1.json")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-seeds", help=argparse.SUPPRESS)
    parser.add_argument("--child-cache", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    _isolate_environment()
    import_s = _import_program()
    if args.child:
        return _child_main(args, workload)

    ledger = Ledger(
        workload, args.seed,
        seed_list(workload.name, args.seed, workload.num_seeds),
    )
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP))
    try:
        if args.trace:
            return trace(workload, ledger, import_s, tmp)
        return measure(workload, ledger, args.seconds, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            TMP.rmdir()


if __name__ == "__main__":
    sys.exit(main())

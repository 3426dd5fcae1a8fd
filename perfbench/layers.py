"""Which layers the traced run wraps, and the per-layer metrics it reports.

Every wrapper sits around a public function or method of ``repro``; none
of the program's files is edited.  Functions are replaced in every loaded
``repro`` module that holds them (``from .runner import run_single``
binds a second name), methods on the class that defines them.  The
program's own ``repro.sim.perf`` stage counters become spans through
``PerfCounters.add``, the one method every stage report goes through.
:func:`install` returns the function that puts everything back.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

from spans import SpanRecorder, root_table

#: The per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("runner.run_sweep.self_s", "s"),
    ("runner.run_single.calls", "count"),
    ("runner.run_single.s", "s"),
    ("core.policy.run_interval.s", "s"),
    ("interval_sim.step.self_s", "s"),
    ("grid.run_sweep_fused.self_s", "s"),
    ("grid.fused_rows", "count"),
    ("grid.fallback_cells", "count"),
    ("cache.get.calls", "count"),
    ("cache.get.s", "s"),
    ("cache.put.calls", "count"),
    ("cache.put.s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("batch_sim.init.s", "s"),
    ("batch_sim.step.calls", "count"),
    ("batch_sim.step.self_s", "s"),
    ("kernel.run_interval.s", "s"),
    ("kernel.dp.setup.s", "s"),
    ("kernel.dp.timeline.s", "s"),
    ("kernel.dp.commit.s", "s"),
    ("kernel.dp.incremental.s", "s"),
    ("kernel.serve.interval.s", "s"),
    ("draws.channel_refill.s", "s"),
    ("draws.channel_refill.allocs", "count"),
    ("draws.arrival_refill.s", "s"),
    ("draws.arrival_refill.allocs", "count"),
    ("draws.uniform_refill.s", "s"),
    ("draws.uniform_refill.allocs", "count"),
    ("topology.build.s", "s"),
    ("topology.sim_init.s", "s"),
    ("topology.step.self_s", "s"),
    ("topology.boundary.s", "s"),
    ("topology.aggregate.s", "s"),
    ("import.s", "s"),
    ("unattributed.s", "s"),
    ("trace.overhead_s", "s"),
)


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer; return the undo function."""
    from repro.core.policies import IntervalMac
    from repro.experiments import cli, grid, runner
    from repro.experiments.cache import SweepCache
    from repro.sim import perf
    from repro.sim.batch_kernels import BatchPolicyKernel
    from repro.sim.batch_sim import BatchIntervalSimulator
    from repro.sim.interval_sim import IntervalSimulator
    from repro.topology import (
        BoundaryMasker,
        BoundaryOwnerDraws,
        CellPacking,
        TopologySimulator,
        graph,
    )
    from repro.topology import engine as topo_engine

    undo: List[Tuple[object, str, object]] = []

    def patch_function(fn, name, on_exit=None):
        wrapped = rec.wrap(fn, name, on_exit)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def patch_method(cls, attr, name, on_exit=None):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, rec.wrap(original, name, on_exit))

    def note_cache_hit(rec, idx, result, *args):
        rec.note(idx, hit=result is not None)

    def note_rows(rec, idx, result, sim, *args):
        rec.note(
            idx,
            rows=sim.num_seeds,
            policy=type(sim.policy).__name__,
            rng=sim.rng_mode,
            backend=sim.backend,
            dp_state=sim.dp_state,
        )

    def step_name(sim):
        return "topology.step" if rec.inside("topology.run") else "batch_sim.step"

    patch_function(cli.main, "cli")
    patch_function(runner.run_sweep, "runner.run_sweep")
    patch_function(runner.run_single, "runner.run_single")
    patch_function(grid.run_sweep_fused, "grid.run_sweep_fused")
    patch_function(graph.grid_cells, "topology.build")
    patch_function(topo_engine.run_topology_batch, "topology.run")
    patch_method(SweepCache, "get", "cache.get", note_cache_hit)
    patch_method(SweepCache, "put", "cache.put")
    patch_method(BatchIntervalSimulator, "__init__", "batch_sim.init", note_rows)
    patch_method(BatchIntervalSimulator, "step", step_name)
    patch_method(IntervalSimulator, "__init__", "interval_sim.init")
    patch_method(IntervalSimulator, "step", "interval_sim.step")
    for cls in _subclasses(BatchPolicyKernel):
        if "run_interval" in cls.__dict__:
            patch_method(cls, "run_interval", "kernel.run_interval")
    for cls in _subclasses(IntervalMac):
        if "run_interval" in cls.__dict__:
            patch_method(cls, "run_interval", "core.policy.run_interval")
    patch_method(TopologySimulator, "__init__", "topology.sim_init")
    patch_method(TopologySimulator, "result", "topology.aggregate")
    patch_method(CellPacking, "__init__", "topology.pack")
    patch_method(BoundaryOwnerDraws, "owners_at", "topology.boundary")
    patch_method(BoundaryMasker, "apply", "topology.boundary")

    perf_add = perf.PerfCounters.__dict__["add"]

    def add(counters, name, seconds, allocs=0):
        rec.closed(name, seconds)
        return perf_add(counters, name, seconds, allocs)

    undo.append((perf.PerfCounters, "add", perf_add))
    perf.PerfCounters.add = add
    perf.reset()
    perf.enable()

    def restore():
        perf.disable()
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def per_layer_metrics(
    rec: SpanRecorder,
    root: int,
    perf_snapshot: Dict[str, Dict[str, float]],
    import_s: float,
    overhead_s: float,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced task rooted at ``root``."""
    table = rec.layer_table()

    def row(name, key):
        return table.get(name, {}).get(key, 0.0)

    under = [
        i for i in range(len(rec))
        if i != root and root in rec.ancestors(i)
    ]

    def under_fused(i):
        return (
            rec.has_ancestor(i, "grid.run_sweep_fused")
            and not rec.has_ancestor(i, "runner.run_single")
            and not rec.has_ancestor(i, "topology.run")
        )

    gets = [i for i in under if rec.names[i] == "cache.get"]
    hits = sum(1 for i in gets if rec.notes.get(i, {}).get("hit"))
    values = {
        "cli.self_s": row("cli", "self_s"),
        "runner.run_sweep.self_s": row("runner.run_sweep", "self_s"),
        "runner.run_single.calls": row("runner.run_single", "calls"),
        "runner.run_single.s": row("runner.run_single", "s"),
        "core.policy.run_interval.s": row("core.policy.run_interval", "s"),
        "interval_sim.step.self_s": row("interval_sim.step", "self_s"),
        "grid.run_sweep_fused.self_s": row("grid.run_sweep_fused", "self_s"),
        "grid.fused_rows": sum(
            rec.notes.get(i, {}).get("rows", 0)
            for i in under
            if rec.names[i] == "batch_sim.init" and under_fused(i)
        ),
        "grid.fallback_cells": sum(
            1 for i in under
            if rec.names[i] == "runner.run_single"
            and rec.has_ancestor(i, "grid.run_sweep_fused")
        ),
        "cache.get.calls": len(gets),
        "cache.get.s": row("cache.get", "s"),
        "cache.put.calls": row("cache.put", "calls"),
        "cache.put.s": row("cache.put", "s"),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "batch_sim.init.s": row("batch_sim.init", "s"),
        "batch_sim.step.calls": row("batch_sim.step", "calls"),
        "batch_sim.step.self_s": row("batch_sim.step", "self_s"),
        "kernel.run_interval.s": row("kernel.run_interval", "s"),
        "topology.build.s": row("topology.build", "s"),
        "topology.sim_init.s": row("topology.sim_init", "s"),
        "topology.step.self_s": row("topology.step", "self_s"),
        "topology.boundary.s": row("topology.boundary", "s"),
        "topology.aggregate.s": row("topology.aggregate", "s"),
        "import.s": import_s,
        "unattributed.s": root_table(rec, root)["unattributed"],
        "trace.overhead_s": overhead_s,
    }
    for stage in ("kernel.dp.setup", "kernel.dp.timeline", "kernel.dp.commit",
                  "kernel.dp.incremental", "kernel.serve.interval"):
        values[f"{stage}.s"] = row(stage, "s")
    for kind in ("channel", "arrival", "uniform"):
        stage = f"draws.{kind}_refill"
        values[f"{stage}.s"] = row(stage, "s")
        values[f"{stage}.allocs"] = perf_snapshot.get(stage, {}).get("allocs", 0)
    return {name: float(values[name]) for name, _ in PER_LAYER}

#!/usr/bin/env python
"""CI smoke drill for the multi-cell topology layer.

Runs a small multi-cell grid (12 links, 3 cells, boundary links
promoted) through the fused sweep engine and the on-disk sweep cache:

1. **Cold + warm**: a topology sweep is run cold into an empty cache,
   then re-run warm; every cell must come back as a cache hit and the
   warm result must be **bit-identical** to the cold one.
2. **Checkpoint resume**: a partial sweep (the first parameter value
   only) populates the cache, then the full sweep resumes on top; the
   checkpointed cells are served warm and the result is bit-identical
   to an uncached reference run.
3. **Degrade semantics**: a family without a batch kernel (FrameCSMA) in
   the same sweep must degrade to single-domain with exactly one
   ``UserWarning`` while still producing finite points.
4. **Wide cells**: DB-DP on cells of at least 64 links, wider than the
   interval's transmission budget, so the kernel binds the incremental
   DP state; the sweep runs cold then warm through the cache and the
   warm result must be bit-identical.
5. **Free draws**: the smoke grid under ``rng="free"`` (deeper draw
   chunks, independent substreams) runs cold then warm through the
   cache, bit-identical, and its run split over two shard processes
   equals its run in one.
6. **Kill and resume**: the smoke grid on two shards, with the worker
   running the last value killed on its first attempt
   (``REPRO_FAULT_INJECT=kill:DB-DP:<value>:1``).  Without retries the
   sweep fails naming that shard and the other shard's cells are
   checkpointed; the resumed sweep serves them warm, survives the
   kill with one retry, and equals the one-shard run bit for bit.

Writes ``TOPOLOGY_SMOKE.json`` for CI artifact upload; exits non-zero
on any violated assertion.

Usage::

    PYTHONPATH=src python tools/topology_smoke.py [--intervals N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import DBDPPolicy  # noqa: E402
from repro.experiments.cache import SweepCache  # noqa: E402
from repro.experiments.configs import video_symmetric_spec  # noqa: E402
from repro.experiments.faults import (  # noqa: E402
    ENV_FAULT_INJECT,
    FaultPolicy,
    SweepCellError,
)
from repro.experiments.runner import run_sweep  # noqa: E402
from repro.topology import TopologySimulator, grid_cells  # noqa: E402

VALUES = [0.45, 0.55, 0.65]
NUM_LINKS = 12
NUM_CELLS = 3
CROSS_FRACTION = 0.5
WIDE_LINKS = 192
WIDE_CELLS = 3
WIDE_FRACTION = 0.05


def smoke_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=NUM_LINKS)


def smoke_topology(spec):
    return grid_cells(spec.num_links, NUM_CELLS, CROSS_FRACTION)


def sweep_kwargs(num_intervals: int, policies) -> dict:
    return dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=smoke_builder,
        policies=policies,
        num_intervals=num_intervals,
        seeds=(0, 1),
        engine="fused",
        topology=smoke_topology,
    )


def _points(result):
    return [
        (p.parameter, p.policy, p.total_deficiency, p.mean_overhead_us)
        for p in result.points
    ]


def drill_cold_warm(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP"])
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        print("[topology-smoke] cold multi-cell sweep...")
        cold = run_sweep(cache=cache, **kwargs)
        stored = cache.stores
        assert stored == len(VALUES), (
            f"expected {len(VALUES)} cells checkpointed cold, got {stored}"
        )
        print("[topology-smoke] warm re-run from the cache...")
        warm = run_sweep(cache=cache, **kwargs)
        assert cache.hits == len(VALUES), (
            f"expected all {len(VALUES)} cells served warm, "
            f"got {cache.hits} hits"
        )
        assert _points(cold) == _points(warm), (
            "warm topology sweep is not bit-identical to the cold run"
        )
        print("[topology-smoke] warm result is bit-identical. OK")
        report["cold_warm"] = {
            "values": VALUES,
            "checkpointed_cells": stored,
            "warm_hits": cache.hits,
            "bit_identical": True,
        }


def drill_checkpoint_resume(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP"])
    print("[topology-smoke] reference run (uncached)...")
    reference = run_sweep(**kwargs)
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        partial = dict(kwargs, values=VALUES[:1])
        print("[topology-smoke] partial sweep (first value only)...")
        run_sweep(cache=cache, **partial)
        checkpointed = cache.stores
        assert checkpointed == 1, (
            f"expected 1 checkpointed cell, got {checkpointed}"
        )
        print("[topology-smoke] resuming the full sweep on the cache...")
        resumed = run_sweep(cache=cache, **kwargs)
        assert cache.hits == 1, (
            f"expected the checkpointed cell served warm, got {cache.hits}"
        )
        assert _points(reference) == _points(resumed), (
            "resumed topology sweep is not bit-identical to the reference"
        )
        print("[topology-smoke] resumed result is bit-identical. OK")
        report["checkpoint_resume"] = {
            "checkpointed_cells": checkpointed,
            "warm_hits_on_resume": cache.hits,
            "bit_identical": True,
        }


def drill_degrade_warning(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP", "FrameCSMA"])
    print("[topology-smoke] mixed sweep with a non-capable family...")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sweep(**kwargs)
    topo_warnings = [
        w for w in caught if "topology= is ignored" in str(w.message)
    ]
    assert len(topo_warnings) == 1, (
        f"expected exactly one degrade warning, got {len(topo_warnings)}"
    )
    assert "FrameCSMA" in str(topo_warnings[0].message)
    frame = [p for p in result.points if p.policy == "FrameCSMA"]
    assert frame and all(
        math.isfinite(p.total_deficiency) for p in frame
    ), "degraded FrameCSMA cells did not produce finite points"
    print("[topology-smoke] FrameCSMA degraded with one warning. OK")
    report["degrade"] = {
        "warnings": len(topo_warnings),
        "degraded_family": "FrameCSMA",
        "finite_points": len(frame),
    }


def wide_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=WIDE_LINKS)


def wide_topology(spec):
    return grid_cells(spec.num_links, WIDE_CELLS, WIDE_FRACTION)


def drill_wide_cells(num_intervals: int, report: dict) -> None:
    spec = wide_builder(VALUES[0])
    topology = wide_topology(spec)
    width = topology.max_cell_size
    assert width >= 64, f"wide-cell drill needs cells of 64+ links, got {width}"
    dp_state = TopologySimulator(
        spec, DBDPPolicy(), (0, 1), topology
    ).sim.dp_state
    assert dp_state == "incremental", (
        f"wide cells bound dp_state={dp_state!r}, expected 'incremental'"
    )
    kwargs = dict(
        sweep_kwargs(num_intervals, ["DB-DP"]),
        spec_builder=wide_builder,
        topology=wide_topology,
    )
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        print(f"[topology-smoke] cold wide-cell sweep (width {width})...")
        cold = run_sweep(cache=cache, **kwargs)
        print("[topology-smoke] warm wide-cell re-run from the cache...")
        warm = run_sweep(cache=cache, **kwargs)
        assert cache.hits == len(VALUES), (
            f"expected all {len(VALUES)} wide cells served warm, "
            f"got {cache.hits} hits"
        )
        assert _points(cold) == _points(warm), (
            "warm wide-cell sweep is not bit-identical to the cold run"
        )
        print("[topology-smoke] wide-cell warm result is bit-identical. OK")
        report["wide_cells"] = {
            "topology": (
                f"grid_cells({WIDE_LINKS}, {WIDE_CELLS}, {WIDE_FRACTION})"
            ),
            "width": width,
            "dp_state": dp_state,
            "warm_hits": cache.hits,
            "bit_identical": True,
        }


def drill_free_draws(num_intervals: int, report: dict) -> None:
    kwargs = dict(sweep_kwargs(num_intervals, ["DB-DP"]), rng="free")
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        print("[topology-smoke] cold sweep under rng='free'...")
        cold = run_sweep(cache=cache, **kwargs)
        print("[topology-smoke] warm rng='free' re-run from the cache...")
        warm = run_sweep(cache=cache, **kwargs)
        assert cache.hits == len(VALUES), (
            f"expected all {len(VALUES)} free cells served warm, "
            f"got {cache.hits} hits"
        )
        assert _points(cold) == _points(warm), (
            "warm rng='free' sweep is not bit-identical to the cold run"
        )
    print("[topology-smoke] rng='free' sweep on 1 and 2 shards...")
    one = run_sweep(shards=1, **kwargs)
    two = run_sweep(shards=2, **kwargs)
    assert _points(one) == _points(two), (
        "rng='free' sweep on 2 shards is not bit-identical to 1 shard"
    )
    assert _points(one) == _points(cold), (
        "uncached rng='free' sweep is not bit-identical to the cold run"
    )
    print("[topology-smoke] rng='free' cold/warm and shards agree. OK")
    report["free_draws"] = {
        "rng": "free",
        "warm_hits": cache.hits,
        "cold_warm_bit_identical": True,
        "shards": [1, 2],
        "shards_bit_identical": True,
    }


def drill_kill_and_resume(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals, ["DB-DP"])
    kill_at = VALUES[-1]
    print("[topology-smoke] reference run on one shard...")
    reference = run_sweep(shards=1, **kwargs)
    with tempfile.TemporaryDirectory(prefix="topology_smoke_") as tmp:
        cache = SweepCache(tmp)
        os.environ[ENV_FAULT_INJECT] = f"kill:DB-DP:{kill_at}:1"
        try:
            print(f"[topology-smoke] 2 shards, worker killed at {kill_at}...")
            try:
                run_sweep(
                    shards=2, cache=cache,
                    faults=FaultPolicy(retries=0, backoff_base=0.0),
                    **kwargs,
                )
            except SweepCellError as exc:
                print(f"[topology-smoke] sweep died as scripted: {exc}")
                assert exc.policy == "shard 2/2 (1 cells)", exc
            else:
                raise AssertionError("the injected kill did not abort the sweep")
            checkpointed = cache.stores
            assert checkpointed == len(VALUES) - 1, (
                f"expected the innocent shard's {len(VALUES) - 1} cells "
                f"checkpointed, got {checkpointed}"
            )
            print("[topology-smoke] resuming with one retry...")
            resumed = run_sweep(
                shards=2, cache=cache,
                faults=FaultPolicy(retries=1, backoff_base=0.0),
                **kwargs,
            )
        finally:
            del os.environ[ENV_FAULT_INJECT]
        assert cache.hits == checkpointed, (
            f"expected {checkpointed} checkpointed cells served warm, "
            f"got {cache.hits} hits"
        )
    assert _points(resumed) == _points(reference), (
        "resumed 2-shard sweep is not bit-identical to the 1-shard run"
    )
    print("[topology-smoke] resumed 2-shard sweep is bit-identical. OK")
    report["kill_resume"] = {
        "directive": f"kill:DB-DP:{kill_at}:1",
        "shards": 2,
        "checkpointed_cells": checkpointed,
        "warm_hits_on_resume": cache.hits,
        "bit_identical_to_one_shard": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--intervals",
        type=int,
        default=120,
        help="horizon per cell (default 120: a few seconds total)",
    )
    parser.add_argument(
        "--out",
        default="TOPOLOGY_SMOKE.json",
        help="where to write the drill summary",
    )
    args = parser.parse_args(argv)
    report: dict = {
        "intervals": args.intervals,
        "topology": f"grid_cells({NUM_LINKS}, {NUM_CELLS}, {CROSS_FRACTION})",
    }
    drill_cold_warm(args.intervals, report)
    drill_checkpoint_resume(args.intervals, report)
    drill_degrade_warning(args.intervals, report)
    drill_wide_cells(args.intervals, report)
    drill_free_draws(args.intervals, report)
    drill_kill_and_resume(args.intervals, report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"[topology-smoke] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

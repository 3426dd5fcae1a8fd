#!/usr/bin/env python
"""CI fault-injection drill for the sweep orchestration layer.

Two phases, both scripted through the deterministic ``REPRO_FAULT_INJECT``
hooks (no randomness, no timing races):

1. **Kill-and-resume**: a scalar sweep on a pool of two workers
   (``run_sweep(engine="scalar", shards=2)``) is killed mid-run: the
   worker simulating the grid's last cell ``os._exit``s on every
   attempt.  Whichever cell shares the pool with it when it dies is
   re-run alone before the strict abort, so exactly the other three
   cells are checkpointed in the on-disk sweep cache under any schedule
   of the two workers.  The drill then clears the fault, resumes from
   the cache, and asserts the resumed result is **bit-identical** to an
   uninterrupted in-process run.
2. **Best-effort reporting**: a permanently failing cell under
   ``mode="best_effort"`` must yield a NaN point plus a structured
   ``SweepFailureReport`` naming exactly that (value, policy) cell.

Writes ``FAULT_SMOKE.json`` (drill summary + the failure report payload)
for CI artifact upload; exits non-zero on any violated assertion.

Usage::

    PYTHONPATH=src python tools/fault_smoke.py [--intervals N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import LDFPolicy  # noqa: E402
from repro.experiments.cache import SweepCache  # noqa: E402
from repro.experiments.configs import video_symmetric_spec  # noqa: E402
from repro.experiments.faults import (  # noqa: E402
    ENV_FAULT_INJECT,
    FaultPolicy,
    SweepCellError,
)
from repro.experiments.runner import run_sweep  # noqa: E402

VALUES = [0.4, 0.5, 0.6, 0.7]
KILL_AT = 0.7  # the last cell: the three others are checkpointed


def smoke_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=6)


def sweep_kwargs(num_intervals: int) -> dict:
    return dict(
        parameter_name="alpha",
        values=VALUES,
        spec_builder=smoke_builder,
        policies={"LDF": LDFPolicy},
        num_intervals=num_intervals,
        seeds=(0, 1),
    )


def drill_kill_and_resume(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals)
    print("[fault-smoke] reference run (in-process, uncached)...")
    reference = run_sweep(**kwargs)

    with tempfile.TemporaryDirectory(prefix="fault_smoke_") as tmp:
        cache = SweepCache(tmp)
        print(f"[fault-smoke] killing the worker at LDF alpha={KILL_AT}...")
        os.environ[ENV_FAULT_INJECT] = f"kill:LDF:{KILL_AT}"
        try:
            run_sweep(
                engine="scalar",
                shards=2,
                cache=cache,
                faults=FaultPolicy(retries=0, backoff_base=0.0),
                **kwargs,
            )
        except SweepCellError as exc:
            print(f"[fault-smoke] sweep died as scripted: {exc}")
            assert exc.policy == "LDF", exc
        else:
            raise AssertionError("the injected kill did not abort the sweep")
        finally:
            del os.environ[ENV_FAULT_INJECT]
        checkpointed = cache.stores
        assert checkpointed == 3, (
            f"expected exactly the 3 healthy cells checkpointed, "
            f"got {checkpointed}"
        )

        print("[fault-smoke] resuming from the checkpointed cells...")
        resumed = run_sweep(
            engine="scalar", shards=2, cache=cache, **kwargs
        )
        assert cache.hits == 3, (
            f"expected the 3 checkpointed cells served warm, "
            f"got {cache.hits} hits"
        )
        mismatches = [
            (ref.parameter, ref.policy)
            for ref, res in zip(reference.points, resumed.points)
            if ref != res
        ]
        assert not mismatches, (
            f"resumed sweep is not bit-identical at cells {mismatches}"
        )
        print("[fault-smoke] resumed result is bit-identical. OK")
        report["kill_and_resume"] = {
            "values": VALUES,
            "killed_at": KILL_AT,
            "checkpointed_cells": checkpointed,
            "warm_hits_on_resume": cache.hits,
            "bit_identical": True,
        }


def drill_best_effort_report(num_intervals: int, report: dict) -> None:
    kwargs = sweep_kwargs(num_intervals)
    print("[fault-smoke] best-effort run with a permanently failing cell...")
    os.environ[ENV_FAULT_INJECT] = f"raise:LDF:{KILL_AT}"
    try:
        result = run_sweep(
            engine="scalar",
            shards=2,
            faults=FaultPolicy(
                retries=1, backoff_base=0.0, mode="best_effort"
            ),
            **kwargs,
        )
    finally:
        del os.environ[ENV_FAULT_INJECT]
    series = result.series("LDF")
    nan_values = [v for v, x in zip(VALUES, series) if math.isnan(x)]
    assert nan_values == [KILL_AT], (
        f"expected only the {KILL_AT} cell NaN-filled, got {nan_values}"
    )
    assert result.failures is not None and result.failures.cells == [
        (KILL_AT, "LDF")
    ], f"failure report does not name the cell: {result.failures}"
    print("[fault-smoke] failure report names the lost cell. OK")
    print(result.failures.summary())
    report["best_effort"] = result.failures.to_payload()


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
        default="FAULT_SMOKE.json",
        help="where to write the drill summary (default FAULT_SMOKE.json)",
    )
    args = parser.parse_args(argv)
    report: dict = {"intervals": args.intervals}
    drill_kill_and_resume(args.intervals, report)
    drill_best_effort_report(args.intervals, report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"[fault-smoke] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

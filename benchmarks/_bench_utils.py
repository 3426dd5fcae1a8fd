"""Shared helpers for the benchmark harness (imported by bench files)."""

from __future__ import annotations

import os

#: Engines a figure benchmark can be routed through.
ENGINE_CHOICES = ("scalar", "fused")


def resolve_engine(option: str | None = None) -> str:
    """The simulation engine figure benchmarks should use.

    Priority: explicit ``--engine`` flag (passed in as ``option``), then
    the ``REPRO_BENCH_ENGINE`` environment variable, then ``"fused"`` —
    the fastest engine; cells it cannot fuse (contention policies,
    stateful channels/processes) fall back automatically inside the
    runner, so "fused by default" is always safe.
    """
    value = option or os.environ.get("REPRO_BENCH_ENGINE", "").strip() or "fused"
    if value not in ENGINE_CHOICES:
        raise ValueError(
            f"engine must be one of {ENGINE_CHOICES}, got {value!r}"
        )
    return value


def bench_intervals(paper_default: int, minimum: int = 200) -> int:
    """Paper horizon scaled by REPRO_BENCH_SCALE (default 0.15)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "0.15")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE must be a float, got {raw!r}") from exc
    if scale <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return max(minimum, int(round(paper_default * scale)))


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

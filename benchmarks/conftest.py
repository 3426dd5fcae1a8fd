"""Benchmark-suite fixtures.

Each benchmark regenerates one figure of the paper (or an ablation) and
asserts its qualitative shape.  Horizons default to a reduced,
shape-preserving fraction of the paper's (``REPRO_BENCH_SCALE``, default
0.15); set ``REPRO_BENCH_SCALE=1`` to run the full evaluation.  Results are
printed so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
figure-regeneration harness.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        action="store",
        default=None,
        choices=("scalar", "fused"),
        help=(
            "Simulation engine for figure benchmarks (default: "
            "REPRO_BENCH_ENGINE or 'fused'; unsupported cells fall back "
            "automatically)"
        ),
    )


@pytest.fixture
def engine(request) -> str:
    """Resolved engine for this run: --engine, REPRO_BENCH_ENGINE, 'fused'."""
    from _bench_utils import resolve_engine

    return resolve_engine(request.config.getoption("--engine"))


@pytest.fixture
def report():
    """Print a figure table after the benchmark (visible with -s)."""
    from repro.experiments.reporting import format_figure

    def _print(result):
        print()
        print(format_figure(result))
        return result

    return _print

"""The per-cell batch reference of fused-sweep tests.

:func:`per_cell_sweep` runs every (value, policy) cell of a sweep through
``run_single(engine="batch")`` — the per-cell runner the fused engine
falls back to for cells no mega-batch takes — and assembles the points
exactly like a sweep does.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import registry
from repro.experiments.runner import SweepResult, run_single


def per_cell_sweep(
    parameter_name, values, spec_builder, policies, num_intervals,
    seeds=(0,), groups=None, **options,
) -> SweepResult:
    """``options`` (``rng``, ``topology``) go to every ``run_single``."""
    result = SweepResult(parameter_name=parameter_name, values=list(values))
    for value in values:
        spec = spec_builder(value)
        for label, factory in registry.resolve_policies(policies).items():
            point = run_single(
                spec, factory, num_intervals, seeds, groups, engine="batch",
                **options,
            )
            result.points.append(
                replace(point, parameter=float(value), policy=label)
            )
    return result

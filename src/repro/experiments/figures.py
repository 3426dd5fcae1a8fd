"""One entry point per figure of the paper's evaluation (Figs. 3-10).

Each ``figN()`` regenerates the series the corresponding figure plots and
returns a :class:`FigureResult` (or :class:`SweepResult`-backed result)
that the reporting module renders as a text table.  Interval counts default
to the paper's horizons scaled by ``REPRO_SCALE``.

Expected qualitative shapes (checked by the benchmark suite):

* Figs. 3/4/9/10: DB-DP's deficiency curve hugs LDF's; FCSMA lifts off at a
  markedly smaller load / delivery ratio.
* Fig. 5: DB-DP's lowest-priority link converges to its requirement on a
  timescale comparable to LDF.
* Fig. 6: under a fixed ordering, timely-throughput decreases with priority
  index but stays positive at the bottom (no starvation).
* Figs. 7/8: per-group deficiencies — FCSMA starves the weak group once
  debts saturate its window map; DB-DP and LDF serve both groups.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import registry
from ..core.requirements import NetworkSpec
from ..phy.channel import channel_from_spec
from ..sim.interval_sim import run_simulation
from .configs import (
    ASYMMETRIC_GROUPS,
    LOW_LATENCY_INTERVALS,
    VIDEO_INTERVALS,
    VIDEO_NUM_LINKS,
    PolicyFactory,
    low_latency_spec,
    paper_policies,
    scaled_intervals,
    video_asymmetric_spec,
    video_symmetric_spec,
)
from .faults import SweepFailureReport
from .runner import _ENGINES, SweepResult, run_sweep

#: ``policies`` argument accepted by the sweep figures: a label -> factory
#: mapping, a sequence of registered policy names
#: (``repro.core.registry.available()``), or ``None`` for the paper's
#: default comparison set.
PolicySelection = Optional[Union[Dict[str, PolicyFactory], Sequence[str]]]


def _with_channel(spec_builder, channel, value):
    """Picklable spec-builder wrapper swapping in a non-default channel.

    ``channel`` is a CLI-style spec string (see
    :func:`~repro.phy.channel.channel_from_spec` — ``"ge:0.1:0.3"``,
    ``"tv:drift:100:0.2"``, ``"bernoulli:0.7"``), a
    :class:`~repro.phy.channel.ChannelModel`, or a callable
    ``spec -> channel``.  Module-level (not a closure) so sharded fused
    sweeps can pickle the wrapped builder into worker processes.
    """
    spec = spec_builder(value)
    if isinstance(channel, str):
        channel = channel_from_spec(channel, spec.num_links)
    elif callable(channel):
        channel = channel(spec)
    return dataclasses.replace(spec, channel=channel)


def _maybe_with_channel(builder, channel):
    """The figure's default builder, or its channel-swapped wrap."""
    if channel is None:
        return builder
    return functools.partial(_with_channel, builder, channel)


def _with_arrivals(spec_builder, arrivals, value):
    """Picklable spec-builder wrapper swapping in a non-default arrival
    process.

    ``arrivals`` is a CLI-style spec string (see
    :func:`~repro.traffic.arrivals.arrivals_from_spec` —
    ``"mmpp:0.7:0.1:0.9:0.9"``, ``"pareto:0.2:1.5"``,
    ``"bernoulli:0.6"``), an
    :class:`~repro.traffic.arrivals.ArrivalProcess`, or a callable
    ``spec -> process``.  Requirements are rebuilt from the original
    spec's delivery ratios so ``q_n = rho_n * lambda_n`` stays feasible
    under the new mean rates.  Module-level (not a closure) so sharded
    fused sweeps can pickle the wrapped builder into worker processes.
    """
    from ..traffic.arrivals import arrivals_from_spec

    spec = spec_builder(value)
    if isinstance(arrivals, str):
        arrivals = arrivals_from_spec(arrivals, spec.num_links)
    elif callable(arrivals):
        arrivals = arrivals(spec)
    return NetworkSpec.from_delivery_ratios(
        arrivals=arrivals,
        channel=spec.channel,
        timing=spec.timing,
        delivery_ratios=spec.delivery_ratios,
    )


def _maybe_with_arrivals(builder, arrivals):
    """The builder as-is, or its arrivals-swapped wrap."""
    if arrivals is None:
        return builder
    return functools.partial(_with_arrivals, builder, arrivals)


def _check_engine(engine: str) -> None:
    """Validate an ``engine`` argument on figures that cannot use it."""
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")

__all__ = [
    "FigureResult",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ALL_FIGURES",
    "SWEEP_FIGURES",
    "SweepFigure",
]

#: Default sweep grids, chosen to bracket the paper's plotted ranges.
FIG3_ALPHAS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70)
FIG4_RATIOS = (0.80, 0.84, 0.88, 0.90, 0.93, 0.96, 0.99)
FIG7_ALPHAS = (0.45, 0.55, 0.65, 0.70, 0.75, 0.85)
FIG8_RATIOS = (0.80, 0.84, 0.88, 0.90, 0.93, 0.96, 0.99)
FIG9_LAMBDAS = (0.60, 0.66, 0.72, 0.78, 0.84, 0.90, 0.96)
FIG10_RATIOS = (0.80, 0.84, 0.88, 0.92, 0.96, 0.99)


@dataclass
class FigureResult:
    """Generic container: labelled x-axis plus one series per curve."""

    figure_id: str
    title: str
    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    y_label: str = "total timely-throughput deficiency"
    notes: str = ""
    #: Structured report of permanently failed cells (best-effort fault
    #: mode); ``None`` for a fully successful sweep.
    failures: Optional[SweepFailureReport] = None

    def row(self, x: float) -> Dict[str, float]:
        i = self.x_values.index(x)
        return {label: values[i] for label, values in self.series.items()}


def _sweep_to_figure(
    sweep: SweepResult,
    figure_id: str,
    title: str,
    x_label: str,
    groups: Optional[Sequence[int]] = None,
    notes: str = "",
) -> FigureResult:
    result = FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        x_values=list(sweep.values),
        notes=notes,
        failures=sweep.failures,
    )
    for policy in sweep.policies:
        if groups is None:
            result.series[policy] = sweep.series(policy)
        else:
            for gid in sorted(set(groups)):
                result.series[f"{policy} (group {gid + 1})"] = (
                    sweep.group_series(policy, gid)
                )
    return result


def fig5(
    num_intervals: Optional[int] = None,
    seed: int = 0,
    sample_every: int = 50,
    engine: str = "scalar",
) -> FigureResult:
    """Fig. 5: convergence of the link with the lowest initial priority.

    ``alpha* = 0.55``, 93% delivery ratio; plots the running
    timely-throughput of the link that starts at priority index 20 under
    DB-DP and under LDF, against time (intervals).

    ``engine`` is accepted for harness uniformity (the benchmark suite
    passes one engine to every figure) but single-trace figures always run
    on the scalar engine — there is no seed stack or grid to vectorize.
    """
    _check_engine(engine)
    intervals = num_intervals or scaled_intervals(VIDEO_INTERVALS)
    spec = video_symmetric_spec(0.55, delivery_ratio=0.93)
    watched = VIDEO_NUM_LINKS - 1  # identity initial ordering: last = lowest

    series: Dict[str, List[float]] = {}
    for label in ("DB-DP", "LDF"):
        policy = registry.create(label)
        result = run_simulation(spec, policy, intervals, seed=seed)
        running = result.running_timely_throughput(watched)
        series[label] = [float(v) for v in running[sample_every - 1 :: sample_every]]

    x_values = [float(k) for k in range(sample_every, intervals + 1, sample_every)]
    out = FigureResult(
        figure_id="fig5",
        title=(
            "Convergence of the lowest-initial-priority link "
            "(alpha* = 0.55, 93% delivery ratio)"
        ),
        x_label="interval",
        x_values=x_values,
        y_label="running timely-throughput (packets/interval)",
        notes=f"requirement q = {spec.requirements[watched]:.4f} packets/interval",
    )
    out.series = series
    return out


def fig6(
    num_intervals: Optional[int] = None,
    seed: int = 0,
    engine: str = "scalar",
) -> FigureResult:
    """Fig. 6: average timely-throughput per link under a *fixed* priority
    ordering, ``alpha* = 0.6``.

    Demonstrates the no-starvation property of the priority structure: the
    x-axis is the priority index (1 = highest), and even index 20 receives
    non-zero timely-throughput.  ``engine`` is accepted for harness
    uniformity; single-trace figures always run on the scalar engine.
    """
    _check_engine(engine)
    intervals = num_intervals or scaled_intervals(VIDEO_INTERVALS)
    spec = video_symmetric_spec(0.60, delivery_ratio=0.9)
    # identity ordering: link n has priority n + 1
    policy = registry.create("StaticPriority")
    result = run_simulation(spec, policy, intervals, seed=seed)
    throughput = result.timely_throughput()
    out = FigureResult(
        figure_id="fig6",
        title="Average timely-throughput under a fixed priority ordering (alpha* = 0.6)",
        x_label="priority index",
        x_values=[float(i) for i in range(1, spec.num_links + 1)],
        y_label="timely-throughput (packets/interval)",
        notes=f"common requirement q = {spec.requirements[0]:.4f} packets/interval",
    )
    out.series = {"StaticPriority": [float(v) for v in throughput]}
    return out


@dataclass(frozen=True)
class SweepFigure:
    """One row of the sweep-figure table: everything that tells one
    parameter-sweep figure apart from another.

    ``x_label`` doubles as the sweep's parameter name; ``grid_keyword``
    names the figure's grid argument (``alphas`` / ``ratios`` /
    ``lambdas``) and ``grid`` is its default; ``horizon`` is the paper's
    interval count, scaled by ``REPRO_SCALE`` unless the caller passes
    ``num_intervals``.
    """

    figure_id: str
    title: str
    x_label: str
    spec_builder: Callable[[float], NetworkSpec]
    grid_keyword: str
    grid: Tuple[float, ...]
    horizon: int
    doc: str
    groups: Optional[Tuple[int, ...]] = None
    notes: str = ""


#: Keywords every sweep figure forwards to its sweep, after
#: ``num_intervals``, ``seeds``, the grid and ``engine`` (see
#: :func:`fig3` for their meaning).
_SWEEP_KEYWORDS = (
    "policies",
    "cache",
    "faults",
    "rng",
    "shards",
    "backend",
    "dp_state",
    "topology",
    "channel",
    "arrivals",
)

# The spec builders are functools.partial objects, not lambdas: sharded
# fused sweeps pickle the builder into worker processes.  Fixing the
# load positionally leaves the swept value to land on delivery_ratio.
SWEEP_FIGURES = {
    row.figure_id: row
    for row in (
        SweepFigure(
            "fig3",
            "Symmetric video network under 90% delivery ratio",
            "alpha*",
            functools.partial(video_symmetric_spec, delivery_ratio=0.9),
            "alphas",
            FIG3_ALPHAS,
            VIDEO_INTERVALS,
            doc="""Fig. 3: symmetric video network, deficiency vs arrival parameter.

    20 links, ``p = 0.7``, 90% delivery ratio.  LDF's admissible boundary
    sits near ``alpha* ~ 0.62``; FCSMA supports only ~70% of that.
    ``policies`` overrides the compared set (factories or registered
    names); the default is the paper's comparison.  ``rng`` / ``shards``
    / ``backend`` reach the sweep engines (batch/fused only) — see
    :func:`~repro.experiments.runner.run_sweep`.  ``channel`` replaces
    the spec's default Bernoulli channel: a spec string such as
    ``"ge:0.1:0.3"`` (see :func:`~repro.phy.channel.channel_from_spec`),
    a :class:`~repro.phy.channel.ChannelModel`, or a ``spec -> channel``
    callable; ``arrivals`` likewise replaces the arrival process (e.g.
    ``"mmpp:0.7:0.1"`` — see
    :func:`~repro.traffic.arrivals.arrivals_from_spec`; requirements are
    rebuilt from the spec's delivery ratios).  All sweep figures accept
    the same keywords.
    """,
        ),
        SweepFigure(
            "fig4",
            "Symmetric video network under fixed arrival rate alpha* = 0.55",
            "delivery ratio",
            functools.partial(video_symmetric_spec, 0.55),
            "ratios",
            FIG4_RATIOS,
            VIDEO_INTERVALS,
            doc="""Fig. 4: symmetric video network at ``alpha* = 0.55``, deficiency vs
    required delivery ratio.""",
        ),
        SweepFigure(
            "fig7",
            "Asymmetric network, group-wide deficiency under 90% delivery ratio",
            "alpha*",
            functools.partial(video_asymmetric_spec, delivery_ratio=0.9),
            "alphas",
            FIG7_ALPHAS,
            VIDEO_INTERVALS,
            doc="""Fig. 7: asymmetric network, per-group deficiency vs ``alpha*`` at 90%
    delivery ratio.""",
            groups=ASYMMETRIC_GROUPS,
            notes="group 1: p = 0.5, alpha = 0.5 alpha*; group 2: p = 0.8, alpha = alpha*",
        ),
        SweepFigure(
            "fig8",
            "Asymmetric network, group-wide deficiency under alpha* = 0.7",
            "delivery ratio",
            functools.partial(video_asymmetric_spec, 0.7),
            "ratios",
            FIG8_RATIOS,
            VIDEO_INTERVALS,
            doc="""Fig. 8: asymmetric network, per-group deficiency vs delivery ratio at
    ``alpha* = 0.7``.""",
            groups=ASYMMETRIC_GROUPS,
            notes="group 1: p = 0.5, alpha = 0.35; group 2: p = 0.8, alpha = 0.7",
        ),
        SweepFigure(
            "fig9",
            "Low-latency network under 99% delivery ratio",
            "lambda*",
            functools.partial(low_latency_spec, delivery_ratio=0.99),
            "lambdas",
            FIG9_LAMBDAS,
            LOW_LATENCY_INTERVALS,
            doc="""Fig. 9: ultra-low-latency network, deficiency vs arrival rate at 99%
    delivery ratio (10 links, 2 ms deadline).""",
        ),
        SweepFigure(
            "fig10",
            "Low-latency network under fixed lambda* = 0.78",
            "delivery ratio",
            functools.partial(low_latency_spec, 0.78),
            "ratios",
            FIG10_RATIOS,
            LOW_LATENCY_INTERVALS,
            doc="""Fig. 10: ultra-low-latency network, deficiency vs delivery ratio at
    ``lambda* = 0.78``.""",
        ),
    )
}


def _run_sweep_figure(
    row: SweepFigure,
    values: Sequence[float],
    num_intervals: Optional[int],
    seeds: Sequence[int],
    engine: str,
    policies: PolicySelection,
    channel,
    arrivals,
    **sweep_options,
) -> FigureResult:
    """Run one sweep-figure row over ``values``.

    ``channel`` / ``arrivals`` wrap the row's spec builder; every other
    option goes to :func:`~repro.experiments.runner.run_sweep` as is.
    """
    sweep = run_sweep(
        parameter_name=row.x_label,
        values=values,
        spec_builder=_maybe_with_arrivals(
            _maybe_with_channel(row.spec_builder, channel), arrivals
        ),
        policies=paper_policies() if policies is None else policies,
        num_intervals=num_intervals or scaled_intervals(row.horizon),
        seeds=seeds,
        groups=row.groups,
        engine=engine,
        **sweep_options,
    )
    return _sweep_to_figure(
        sweep, row.figure_id, row.title, row.x_label, row.groups, row.notes
    )


def _figure_function(row: SweepFigure):
    """The public ``figN`` entry point of one table row.

    Its signature is ``figN(num_intervals=None, seeds=(0,), <grid>=<row
    default>, engine="scalar", policies=None, cache=None, ...)``, bound
    like a hand-written one (positionally or by keyword) and visible to
    :func:`inspect.signature` and ``help``.
    """
    param = functools.partial(
        inspect.Parameter, kind=inspect.Parameter.POSITIONAL_OR_KEYWORD
    )
    signature = inspect.Signature(
        [
            param("num_intervals", default=None),
            param("seeds", default=(0,)),
            param(row.grid_keyword, default=row.grid),
            param("engine", default="scalar"),
        ]
        + [param(name, default=None) for name in _SWEEP_KEYWORDS],
        return_annotation=FigureResult,
    )

    def figure(*args, **kwargs) -> FigureResult:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        options = dict(bound.arguments)
        return _run_sweep_figure(row, options.pop(row.grid_keyword), **options)

    figure.__name__ = figure.__qualname__ = row.figure_id
    figure.__doc__ = row.doc
    figure.__signature__ = signature
    return figure


fig3 = _figure_function(SWEEP_FIGURES["fig3"])
fig4 = _figure_function(SWEEP_FIGURES["fig4"])
fig7 = _figure_function(SWEEP_FIGURES["fig7"])
fig8 = _figure_function(SWEEP_FIGURES["fig8"])
fig9 = _figure_function(SWEEP_FIGURES["fig9"])
fig10 = _figure_function(SWEEP_FIGURES["fig10"])


#: Registry used by the CLI and the benchmark harness.
ALL_FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
}

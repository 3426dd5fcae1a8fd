"""Command-line entry point: regenerate any figure of the paper.

Usage::

    repro-experiments fig3 --seeds 0 1 2
    repro-experiments all --intervals 1000
    REPRO_SCALE=0.2 repro-experiments fig9
    repro-experiments fig3 --resume --retries 3 --best-effort

Prints each figure's series as a text table (see
:mod:`repro.experiments.reporting`).

Fault tolerance (sweep figures): ``--resume`` checkpoints finished cells
in the on-disk sweep cache and serves them warm on the next invocation,
so a killed run restarts from where it was; ``--retries`` /
``--cell-timeout`` / ``--best-effort`` configure the
:class:`~repro.experiments.faults.FaultPolicy` applied to failing cells.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import os
import sys
import time
from typing import List, Optional

from ..core import registry
from .faults import CELL_TIMEOUT_REFUSAL, MODE_BEST_EFFORT, FaultPolicy
from .figures import ALL_FIGURES, SWEEP_FIGURES
from .reporting import figure_to_csv, format_figure
from .runner import _SWEEP_ENGINES, _check_engine

#: Extension studies exposed next to the paper figures, as
#: ``"module:function"`` references imported only by the target that
#: runs them (``summary`` and ``--chart`` likewise import their modules
#: in their own branches).
EXTENSIONS = {
    "ext-baselines": "extensions:baseline_panorama",
    "ext-burst-loss": "extensions:burst_loss_robustness",
    "ext-correlated-traffic": "extensions:correlated_traffic_robustness",
    "ext-convergence": "convergence_study:convergence_vs_network_size",
}

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation figures of Hsieh & Hou (ICDCS 2018)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(ALL_FIGURES) + sorted(EXTENSIONS) + ["summary", "all"],
        help="which figure to regenerate ('all' runs every paper figure; "
        "ext-* targets run the extension studies; 'summary' re-measures "
        "the paper's headline claims and prints verdicts)",
    )
    parser.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override the number of intervals (default: paper horizon "
        "scaled by REPRO_SCALE)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        help="random seeds to average over (sweep figures only)",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="NAME",
        choices=registry.available(),
        help="compare these registered policies instead of the paper's "
        f"default set (sweep figures only; available: "
        f"{', '.join(registry.available())})",
    )
    parser.add_argument(
        "--engine",
        default=None,
        metavar="{" + ",".join(_SWEEP_ENGINES) + "}",
        help="simulation engine for sweep figures (default: scalar; "
        "'fused' mega-batches the whole grid and is the fastest)",
    )
    parser.add_argument(
        "--rng",
        choices=["sync", "batch", "free"],
        default=None,
        help="draw discipline for the fused engine: 'sync' is "
        "bit-identical to the scalar engine (slow), 'batch' is the "
        "default lockstep-vectorized discipline, 'free' lets the "
        "kernels draw only what they consume (statistically "
        "equivalent, fastest)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="run the sweep on a pool of K worker processes: one cell per "
        "work unit on --engine scalar, K row-contiguous shards on the "
        "fused engine, with --cells too (implies --engine fused unless "
        "--engine is given; sweep figures only)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=None,
        metavar="C",
        help="simulate each sweep point as a multi-cell interference "
        "topology of C cells (grid_cells over the spec's links) instead "
        "of one collision domain; policy families with a batch kernel "
        "run on the topology engine, one process per topology (spread "
        "sweep points over processes with --shards), others degrade with "
        "a warning (sweep figures only; implies --engine fused unless "
        "--engine is given)",
    )
    parser.add_argument(
        "--cross-cell-fraction",
        type=float,
        default=None,
        metavar="F",
        dest="cross_cell_fraction",
        help="fraction of links promoted to cross-cell boundary links "
        "(contending in two cells, resolved per interval); requires "
        "--cells (default 0: disconnected cells)",
    )
    parser.add_argument(
        "--channel",
        default=None,
        metavar="SPEC",
        help="replace the figures' default i.i.d. Bernoulli channel with "
        "another channel model: 'bernoulli:p', "
        "'ge:p_gb:p_bg[:p_good:p_bad]' (Gilbert-Elliott burst losses), or "
        "'tv:profile:period:amplitude[:base]' with profile one of "
        "drift/ramp/duty (deterministic time-varying reliability); "
        "Gilbert-Elliott state needs --rng free to stay vectorized "
        "(sweep figures only; implies --engine fused unless --engine is "
        "given)",
    )
    parser.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="replace the figures' default arrival process with another "
        "model: 'bernoulli:rate', 'bursty:alpha[:burst_max]', "
        "'constant:count', 'mmpp:on[:off[:p_on[:p_off[:initial]]]]' "
        "(Markov-modulated ON/OFF), or 'pareto:start[:tail[:dur_max"
        "[:peak]]]' (heavy-tailed bursts); requirements are rebuilt from "
        "the figures' delivery ratios, and MMPP/Pareto state needs "
        "--rng free to stay vectorized (sweep figures only; implies "
        "--engine fused unless --engine is given)",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV instead of aligned tables",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII line chart after each table",
    )
    parser.add_argument(
        "--outdir",
        default=None,
        help="also write each figure's CSV into this directory",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint finished sweep cells in the on-disk cache and "
        "resume warm from a previous (possibly killed) run "
        "(REPRO_SWEEP_CACHE overrides the cache location; sweep figures "
        "only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failing sweep cell up to N extra times with "
        "exponential backoff before declaring it permanently failed "
        "(sweep figures only)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for one sweep work unit (a cell, or a "
        "fused shard); a unit running longer counts as failed and its "
        "worker is reclaimed (needs --shards K >= 2: only a worker pool "
        "enforces it; sweep figures only)",
    )
    parser.add_argument(
        "--best-effort",
        action="store_true",
        help="fill permanently failed cells with NaN and report them in "
        "a failure summary instead of aborting the sweep (sweep "
        "figures only)",
    )
    return parser


#: Sweep-engine flags passed through to the sweep figures when given.
#: Any of them (or ``--cells``) on a figure without ``--engine`` lands it
#: on the fused engine instead of erroring on the scalar default.
_SWEEP_ENGINE_FLAGS = (
    "rng", "shards", "channel", "arrivals",
)


def faults_from_args(args: argparse.Namespace):
    """The :class:`FaultPolicy` requested by the CLI flags, or ``None``.

    ``None`` (no fault flag given) keeps the historical fail-fast sweep
    behaviour; any of ``--retries``/``--cell-timeout``/``--best-effort``
    opts into fault-tolerant orchestration.
    """
    if (
        args.retries is None
        and args.cell_timeout is None
        and not args.best_effort
    ):
        return None
    defaults = FaultPolicy()
    return FaultPolicy(
        retries=args.retries if args.retries is not None else defaults.retries,
        cell_timeout=args.cell_timeout,
        mode=MODE_BEST_EFFORT if args.best_effort else defaults.mode,
    )


def _grid_topology(spec, num_cells: int, cross_cell_fraction: float):
    """Picklable per-spec topology builder for ``--cells`` (sharded
    fused sweeps send the builder to worker processes)."""
    from ..topology import grid_cells

    return grid_cells(spec.num_links, num_cells, cross_cell_fraction)


def _run_one(name: str, args: argparse.Namespace) -> str:
    kwargs = {}
    if args.intervals is not None:
        kwargs["num_intervals"] = args.intervals
    if name == "summary":
        from .summary import evaluate_paper_claims, format_verdicts

        verdicts = evaluate_paper_claims(seed=args.seeds[0], **kwargs)
        return format_verdicts(verdicts)
    if name in EXTENSIONS:
        module, attr = EXTENSIONS[name].split(":")
        func = getattr(importlib.import_module(f".{module}", __package__), attr)
        # Extensions have heterogeneous signatures (the burst-loss study
        # is a fused sweep, the others are scalar single-trace studies);
        # thread each flag only where the study accepts it.
        accepted = inspect.signature(func).parameters
        if "seeds" in accepted:
            kwargs["seeds"] = tuple(args.seeds)
        else:
            kwargs["seed"] = args.seeds[0]
        for flag in ("engine", "rng", "shards"):
            value = getattr(args, flag)
            if value is not None and flag in accepted:
                kwargs[flag] = value
        if args.resume and "cache" in accepted:
            kwargs["cache"] = True
    else:
        func = ALL_FIGURES[name]
        if name not in SWEEP_FIGURES:
            # Single-trace figures take a scalar seed.
            kwargs["seed"] = args.seeds[0]
        else:
            kwargs["seeds"] = tuple(args.seeds)
            if args.policies is not None:
                # Registered names; the sweep runner resolves them to
                # default-config factories via the policy registry.
                kwargs["policies"] = tuple(args.policies)
            faults = faults_from_args(args)
            if faults is not None:
                kwargs["faults"] = faults
            if args.resume:
                kwargs["cache"] = True
            for flag in _SWEEP_ENGINE_FLAGS:
                if getattr(args, flag) is not None:
                    kwargs[flag] = getattr(args, flag)
            if args.cells is not None:
                # functools.partial, not a lambda: sharded fused sweeps
                # pickle the builder into worker processes.
                kwargs["topology"] = functools.partial(
                    _grid_topology,
                    num_cells=args.cells,
                    cross_cell_fraction=args.cross_cell_fraction or 0.0,
                )
            if args.engine is not None:
                kwargs["engine"] = args.engine
            elif kwargs.keys() & {*_SWEEP_ENGINE_FLAGS, "topology"}:
                kwargs["engine"] = "fused"
    result = func(**kwargs)
    if args.outdir is not None:
        os.makedirs(args.outdir, exist_ok=True)
        csv_path = os.path.join(args.outdir, f"{name}.csv")
        with open(csv_path, "w") as handle:
            handle.write(figure_to_csv(result))
    if args.csv:
        return figure_to_csv(result)
    text = format_figure(result)
    if args.chart and len(result.x_values) >= 2:
        from .charts import ascii_chart

        text += "\n" + ascii_chart(result)
    failures = getattr(result, "failures", None)
    if failures:
        # Best-effort sweeps report their NaN-filled cells right under
        # the table instead of failing the whole figure.
        text += "\n" + failures.summary() + "\n"
    return text


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cross_cell_fraction is not None and args.cells is None:
        parser.error("--cross-cell-fraction requires --cells")
    if args.engine is not None:
        try:
            _check_engine(args.engine)
        except ValueError as exc:
            parser.error(str(exc))
    if args.cell_timeout is not None and (args.shards or 1) < 2:
        parser.error(CELL_TIMEOUT_REFUSAL)
    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        started = time.time()
        sys.stdout.write(_run_one(name, args))
        sys.stdout.write(f"   [{name} took {time.time() - started:.1f} s]\n\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

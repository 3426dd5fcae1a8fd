"""The workloads: the task each one runs, its size, and its checks.

A task is one call of a public entry point with the seed list the
benchmark drew from ``--seed``; the program sees nothing else of the
benchmark.  Sizes are fixed here so that parent and child commits
measure the same work.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass
class TaskOutput:
    """What one task produced, reduced to what the checks need."""

    x: List[float]
    series: Dict[str, List[float]]
    #: Exact text of the outputs, for bit-identity between runs.
    digest: str

    @property
    def cells(self) -> int:
        return len(self.x) * len(self.series)

    def bad_cells(self) -> int:
        """Cells that came back NaN, infinite or negative."""
        return sum(
            1 for values in self.series.values() for v in values
            if not (math.isfinite(v) and v >= 0.0)
        )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
    return h.hexdigest()


def parse_figure_csv(text: str) -> TaskOutput:
    """Read the ``--csv`` table the CLI prints (header, then one row per
    x value; the trailing ``[fig3 took ...]`` line is ignored)."""
    lines = [
        line for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("[")
    ]
    header = lines[0].split(",")
    labels = header[1:]
    x: List[float] = []
    series: Dict[str, List[float]] = {label: [] for label in labels}
    for line in lines[1:]:
        fields = line.split(",")
        x.append(float(fields[0]))
        for label, value in zip(labels, fields[1:]):
            series[label].append(float(value))
    return TaskOutput(x=x, series=series, digest=_digest("\n".join(lines)))


def _rises(values: Sequence[float]) -> bool:
    """Deficiency does not fall as load rises, read end to end: the
    top-load point is the worst one (short horizons leave warm-up noise
    between neighbouring light-load points, which does not count)."""
    return values[-1] >= max(values[:-1])


def _lift_off(values: Sequence[float], level: float = 1.0) -> int:
    """Index of the first load point whose deficiency exceeds ``level``."""
    return next((i for i, v in enumerate(values) if v > level), len(values))


def fig3_problems(out: TaskOutput) -> List[str]:
    """The paper-shape checks of the Fig. 3 benchmark
    (benchmarks/bench_fig3_video_load_sweep.py), on one figure."""
    problems = []
    ldf, dbdp = out.series.get("LDF"), out.series.get("DB-DP")
    fcsma = out.series.get("FCSMA")
    if ldf is None or dbdp is None:
        return ["fig3 output lacks the DB-DP or LDF series"]
    for label, values in out.series.items():
        if not _rises(values):
            problems.append(f"{label} deficiency falls as load rises: {values}")
    for x, l, d in zip(out.x, ldf, dbdp):
        if d > 2.0 * l + 3.5:
            problems.append(f"DB-DP leaves LDF at alpha*={x}: {d} vs {l}")
    if fcsma is not None:
        for x, l, d, f in zip(out.x, ldf, dbdp, fcsma):
            if f > 2.0 and not (d - l) < 0.5 * (f - l):
                problems.append(
                    f"DB-DP is not closer to LDF than FCSMA at alpha*={x}"
                )
        if not (_lift_off(fcsma) < _lift_off(ldf)
                and _lift_off(fcsma) <= _lift_off(dbdp)):
            problems.append(
                "FCSMA does not lift off before DB-DP and LDF: "
                f"{fcsma} vs {dbdp} / {ldf}"
            )
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    num_seeds: int
    num_intervals: int
    num_links: int

    #: Whether the task checkpoints into the sweep cache (``--resume``),
    #: so that a rerun reads it back warm.
    resume = False

    def run(self, seeds: Sequence[int]) -> TaskOutput:
        raise NotImplementedError

    def problems(self, out: TaskOutput) -> List[str]:
        raise NotImplementedError

    def num_cells(self) -> int:
        """Sweep cells (load point x policy) one task computes."""
        raise NotImplementedError

    def work(self) -> float:
        """Link-intervals one task simulates: seeds x links x intervals
        x sweep cells."""
        return (self.num_seeds * self.num_links * self.num_intervals
                * self.num_cells())

    def policy_names(self) -> Tuple[str, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class CliFig3(Workload):
    """``repro-experiments fig3`` through ``repro.experiments.cli.main``."""

    resume: bool = False

    def argv(self, seeds: Sequence[int]) -> List[str]:
        argv = ["fig3", "--engine", "fused"]
        if self.resume:
            argv.append("--resume")
        argv += ["--seeds", *map(str, seeds)]
        argv += ["--intervals", str(self.num_intervals), "--csv"]
        return argv

    def run(self, seeds: Sequence[int]) -> TaskOutput:
        from repro.experiments import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(self.argv(seeds))
        if status != 0:
            raise RuntimeError(f"cli exited with {status}")
        return parse_figure_csv(buf.getvalue())

    def problems(self, out: TaskOutput) -> List[str]:
        return fig3_problems(out)

    def num_cells(self) -> int:
        from repro.experiments.figures import FIG3_ALPHAS

        return len(FIG3_ALPHAS) * len(self.policy_names())

    def policy_names(self) -> Tuple[str, ...]:
        return ("DB-DP", "LDF", "FCSMA")


@dataclass(frozen=True)
class LargeN(Workload):
    """A fused DB-DP alpha sweep in one collision domain of N links."""

    alphas: Tuple[float, ...] = ()

    def run(self, seeds: Sequence[int]) -> TaskOutput:
        import functools

        from repro.experiments import configs, grid

        sweep = grid.run_sweep_fused(
            "alpha*",
            self.alphas,
            functools.partial(
                configs.video_symmetric_spec,
                delivery_ratio=0.9,
                num_links=self.num_links,
            ),
            ["DB-DP"],
            self.num_intervals,
            seeds,
        )
        series = {"DB-DP": sweep.series("DB-DP")}
        return TaskOutput(
            x=list(self.alphas),
            series=series,
            digest=_digest(repr(series)),
        )

    def problems(self, out: TaskOutput) -> List[str]:
        values = out.series["DB-DP"]
        if not _rises(values):
            return [f"DB-DP deficiency falls as load rises: {values}"]
        return []

    def num_cells(self) -> int:
        return len(self.alphas)

    def policy_names(self) -> Tuple[str, ...]:
        return ("DB-DP",)


@dataclass(frozen=True)
class Topology(Workload):
    """DB-DP on ``grid_cells`` through ``run_topology_batch``."""

    topology_cells: int = 1
    cross_cell_fraction: float = 0.0
    alpha: float = 0.55

    def run(self, seeds: Sequence[int]) -> TaskOutput:
        import repro.topology
        from repro.core import registry
        from repro.experiments import configs

        topology = repro.topology.grid_cells(
            self.num_links, self.topology_cells, self.cross_cell_fraction
        )
        spec = configs.video_symmetric_spec(
            self.alpha, delivery_ratio=0.9, num_links=self.num_links
        )
        policy = registry.resolve_policies(["DB-DP"])["DB-DP"]()
        result = repro.topology.run_topology_batch(
            spec, policy, seeds, topology, self.num_intervals
        )
        per_seed = [float(v) for v in result.total_deficiency()]
        return TaskOutput(
            x=[self.alpha],
            series={"DB-DP": [sum(per_seed) / len(per_seed)]},
            digest=_digest(repr(per_seed), result.delivery_sums.tobytes()),
        )

    def problems(self, out: TaskOutput) -> List[str]:
        return []

    def num_cells(self) -> int:
        return 1

    def policy_names(self) -> Tuple[str, ...]:
        return ("DB-DP",)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        CliFig3(
            name="fig3-paper",
            num_seeds=1,
            num_intervals=600,
            num_links=20,
            resume=True,
        ),
        LargeN(
            name="large-n",
            num_seeds=4,
            num_intervals=150,
            num_links=2000,
            alphas=(0.45, 0.55, 0.65),
        ),
        Topology(
            name="topology-10k",
            num_seeds=8,
            num_intervals=40,
            num_links=10000,
            topology_cells=400,
            cross_cell_fraction=0.04,
        ),
    )
}


class BoundaryServeCheck:
    """Counts (interval, seed, boundary link) triples served in more than
    one cell, from the per-row deliveries of a topology run.

    :meth:`install` hooks the run's ``TopologySimulator`` (to learn the
    packing) and ``BatchSweepStats.update`` (to see each interval's
    deliveries); it returns the undo function.
    """

    def __init__(self):
        self.violations = 0
        self.intervals = 0
        self._sim = None

    def install(self):
        import numpy as np
        from repro.sim.batch_sim import BatchSweepStats
        from repro.topology import TopologySimulator

        init = TopologySimulator.__dict__["__init__"]
        update = BatchSweepStats.__dict__["update"]
        check = self

        def traced_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            check._sim = sim
            matrix = sim.packing.boundary_index_matrix[list(sim.cells)]
            check._cells, check._slots = np.nonzero(matrix >= 0)
            check._links = matrix[check._cells, check._slots]

        def traced_update(stats, outcome):
            sim = check._sim
            if sim is not None and stats is sim.sim.stats:
                check.observe(sim, outcome.deliveries)
            return update(stats, outcome)

        TopologySimulator.__init__ = traced_init
        BatchSweepStats.update = traced_update

        def restore():
            TopologySimulator.__init__ = init
            BatchSweepStats.update = update

        return restore

    def observe(self, sim, deliveries) -> None:
        import numpy as np

        num_seeds = len(sim.seeds)
        rows = deliveries.reshape(len(sim.cells), num_seeds, -1)
        served = rows[self._cells, :, self._slots] > 0  # (memberships, S)
        per_link = np.zeros(
            (len(sim.topology.boundary_links), num_seeds), dtype=np.int64
        )
        np.add.at(per_link, self._links, served)
        self.violations += int((per_link > 1).sum())
        self.intervals += 1

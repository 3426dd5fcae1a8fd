"""What a fresh interpreter imports, and that deferring it changes nothing.

``repro`` and ``repro.topology`` resolve their public names on first
access, and the experiment layer imports the batch engine, the topology
engine and the process pool only where it runs them.  Each check here
starts its own interpreter, since the test process has long imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules a fully cached ``fig3 --resume`` never executes.
NOT_ON_A_CACHED_RUN = (
    "repro.sim.batch_kernels",
    "repro.sim.batch_sim",
    "repro.sim.interval_sim",
    "repro.topology.engine",
    "repro.experiments.summary",
    "repro.analysis.capacity",
    "concurrent.futures.process",
    "repro.experiments.parallel",
    "concurrent.futures",
    "logging",
)


def _run(code: str, env=None) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    full_env = {**os.environ, **(env or {})}
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, full_env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=full_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_repro_loads_no_submodule():
    loaded = _run("""
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
    """)
    assert loaded == []


@pytest.mark.parametrize("package", ["repro", "repro.topology"])
def test_lazy_namespace_resolves_every_public_name(package):
    problems = _run(f"""
        import importlib, json
        package = importlib.import_module({package!r})
        problems = []
        names = set(package.__all__) - {{"__version__"}}
        if names != set(package._SUBMODULE_OF):
            problems.append("__all__ and the submodule table disagree")
        for name in sorted(names):
            submodule = importlib.import_module(
                f"{{package.__name__}}.{{package._SUBMODULE_OF[name]}}"
            )
            expected = getattr(submodule, name, None)
            if expected is None:  # the name is itself a submodule
                expected = importlib.import_module(
                    f"{{submodule.__name__}}.{{name}}"
                )
            if getattr(package, name) is not expected:
                problems.append(f"{{name}} is not its submodule's object")
        missing = set(package.__all__) - set(dir(package))
        if missing:
            problems.append(f"dir() lacks {{sorted(missing)}}")
        try:
            package.no_such_name
            problems.append("an unknown name resolved")
        except AttributeError:
            pass
        print(json.dumps(problems))
    """)
    assert problems == []


_FIG3 = """
    import json, sys
    import repro
    import repro.experiments.cli
    import repro.topology
    status = repro.experiments.cli.main([
        "fig3", "--engine", "fused", "--resume", "--seeds", "0",
        "--intervals", "20", "--csv", "--outdir", {outdir!r},
    ])
    print(json.dumps({{
        "status": status,
        "loaded": [m for m in {modules!r} if m in sys.modules],
    }}))
"""


def test_cached_fig3_rerun_imports_no_engine(tmp_path):
    env = {"REPRO_SWEEP_CACHE": str(tmp_path / "cache")}
    runs = {}
    for run in ("cold", "warm"):
        outdir = tmp_path / run
        runs[run] = _run(
            _FIG3.format(outdir=str(outdir), modules=NOT_ON_A_CACHED_RUN),
            env=env,
        )
        assert runs[run]["status"] == 0
    # The cold run simulates, so the check below cannot pass vacuously.
    assert "repro.sim.batch_sim" in runs["cold"]["loaded"]
    assert runs["warm"]["loaded"] == []
    cold_csv = (tmp_path / "cold" / "fig3.csv").read_bytes()
    assert cold_csv and cold_csv == (tmp_path / "warm" / "fig3.csv").read_bytes()


def test_help_lists_every_target():
    from repro.experiments.cli import EXTENSIONS, build_parser
    from repro.experiments.figures import ALL_FIGURES

    text = build_parser().format_help()
    for target in (*ALL_FIGURES, *EXTENSIONS, "summary", "all"):
        assert target in text, target
    assert set(EXTENSIONS) == {
        "ext-baselines", "ext-burst-loss", "ext-correlated-traffic",
        "ext-convergence",
    }


def test_in_process_scalar_sweep_imports_no_pool():
    """A scalar sweep without ``shards`` runs in this process: it loads
    neither the orchestrator nor the process pool, with or without a
    fault policy."""
    report = _run("""
        import json, sys
        from repro import LDFPolicy
        from repro.experiments.configs import video_symmetric_spec
        from repro.experiments.faults import FaultPolicy
        from repro.experiments.runner import run_sweep

        for faults in (None, FaultPolicy(retries=1)):
            run_sweep(
                "alpha", [0.4, 0.6], video_symmetric_spec, {"LDF": LDFPolicy},
                20, seeds=(0, 1), engine="scalar", faults=faults,
            )
        print(json.dumps([
            m for m in ("repro.experiments.parallel",
                        "concurrent.futures.process")
            if m in sys.modules
        ]))
    """)
    assert report == []


def test_pools_started_before_the_parent_loads_the_engine():
    """Workers forked from a parent that has not imported the batch engine
    (nor started its draw thread) import it themselves and agree with the
    in-process runs."""
    report = _run("""
        import json, sys
        from repro import DBDPPolicy
        from repro.experiments.configs import video_symmetric_spec
        from repro.experiments.runner import run_sweep

        before = "repro.sim.batch_kernels" in sys.modules
        kwargs = dict(
            parameter_name="alpha", values=[0.4, 0.6],
            spec_builder=video_symmetric_spec, policies={"DB-DP": DBDPPolicy},
            num_intervals=40, seeds=(0, 1),
        )
        # rng="sync" makes the pooled fused shards equal the scalar sweep.
        parallel = run_sweep(engine="fused", rng="sync", shards=2, **kwargs)
        after_pool = "repro.sim.batch_kernels" in sys.modules

        import functools
        from repro.experiments.cli import _grid_topology
        from repro.experiments.grid import run_sweep_fused
        topology = dict(
            parameter_name="alpha", values=[0.4, 0.5],
            spec_builder=functools.partial(video_symmetric_spec, num_links=60),
            policies={"DB-DP": DBDPPolicy}, num_intervals=30, seeds=(0, 1),
            topology=functools.partial(
                _grid_topology, num_cells=4, cross_cell_fraction=0.1
            ),
        )
        sharded = run_sweep_fused(shards=2, **topology)
        inline = run_sweep_fused(**topology)
        print(json.dumps({
            "before": before,
            "after_pool": after_pool,
            "sweep_equal": parallel.points == run_sweep(**kwargs).points,
            "topology_equal": sharded.points == inline.points,
        }))
    """)
    assert report == {
        "before": False,
        "after_pool": False,
        "sweep_equal": True,
        "topology_equal": True,
    }

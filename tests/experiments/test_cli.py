"""Tests for the command-line entry point."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig3"])
        assert args.figure == "fig3"
        assert args.seeds == [0]

    def test_rejects_unknown_figure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig9", "--intervals", "123", "--seeds", "1", "2", "--csv"]
        )
        assert args.intervals == 123
        assert args.seeds == [1, 2]
        assert args.csv


class TestMain:
    def test_runs_one_figure(self, capsys):
        exit_code = main(["fig6", "--intervals", "60"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "priority index" in out

    def test_csv_output(self, capsys):
        main(["fig6", "--intervals", "60", "--csv"])
        out = capsys.readouterr().out
        assert "priority index,StaticPriority" in out

    def test_fig5_uses_scalar_seed(self, capsys):
        exit_code = main(["fig5", "--intervals", "100", "--seeds", "3"])
        assert exit_code == 0
        assert "fig5" in capsys.readouterr().out

    def test_outdir_writes_csv(self, tmp_path, capsys):
        outdir = tmp_path / "csv"
        exit_code = main(
            ["fig6", "--intervals", "60", "--outdir", str(outdir)]
        )
        assert exit_code == 0
        content = (outdir / "fig6.csv").read_text()
        assert content.startswith("priority index,StaticPriority")

    def test_chart_flag(self, capsys):
        main(["fig6", "--intervals", "60", "--chart"])
        out = capsys.readouterr().out
        assert "y: timely-throughput" in out
        assert "+---" in out or "|" in out

    def test_summary_target(self, capsys):
        # Tiny horizon: only checks wiring, not the verdicts themselves.
        main(["summary", "--intervals", "200"])
        out = capsys.readouterr().out
        assert "claim" in out and "holds" in out

    def test_extension_target(self, capsys):
        main(["ext-baselines", "--intervals", "60"])
        out = capsys.readouterr().out
        assert "ext-baselines" in out


class TestEngineFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig3", "--engine", "fused", "--rng", "free",
                "--shards", "2",
            ]
        )
        assert args.engine == "fused"
        assert args.rng == "free"
        assert args.shards == 2

    def test_sweep_flags_without_engine_default_to_fused(self, capsys):
        # --rng/--shards are sweep-engine features; without an
        # explicit --engine they must land on the fused engine instead
        # of erroring on the figures' scalar default.
        argv = [
            "fig3", "--intervals", "40", "--policies", "LDF",
            "--rng", "free", "--shards", "2",
        ]
        assert main(argv) == 0
        assert "fig3" in capsys.readouterr().out

    def test_scalar_engine_shards_match_in_process(self, capsys):
        # --shards with --engine scalar runs the cells on a pool (which
        # also enforces --cell-timeout) and prints the in-process table.
        argv = ["fig3", "--intervals", "20", "--policies", "LDF", "--csv"]
        tables = []
        for extra in ([], ["--engine", "scalar", "--shards", "2",
                           "--cell-timeout", "120"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            tables.append(out[:out.index("[fig3 took")])
        assert tables[0] == tables[1]


class TestChannelFlag:
    def test_flag_parses(self):
        args = build_parser().parse_args(["fig3", "--channel", "ge:0.1:0.3"])
        assert args.channel == "ge:0.1:0.3"
        assert build_parser().parse_args(["fig3"]).channel is None

    def test_ge_sweep_runs_fused_free(self, capsys):
        argv = [
            "fig3", "--intervals", "40", "--policies", "LDF",
            "--channel", "ge:0.1:0.3", "--rng", "free",
        ]
        assert main(argv) == 0
        assert "fig3" in capsys.readouterr().out

    def test_bad_spec_names_the_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            main([
                "fig3", "--intervals", "40", "--policies", "LDF",
                "--channel", "rayleigh:0.5",
            ])

    def test_burst_extension_accepts_engine_flags(self, capsys):
        # The inspect-driven kwarg threading: ext-burst-loss is a fused
        # sweep and takes seeds/engine/rng directly from the flags.
        argv = [
            "ext-burst-loss", "--intervals", "60", "--seeds", "0", "1",
            "--rng", "free",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "burstiness" in out


class TestFaultFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig3", "--resume", "--retries", "3",
                "--cell-timeout", "45.5", "--best-effort",
            ]
        )
        assert args.resume
        assert args.retries == 3
        assert args.cell_timeout == 45.5
        assert args.best_effort

    def test_no_flags_keep_fail_fast(self):
        from repro.experiments.cli import faults_from_args

        args = build_parser().parse_args(["fig3"])
        assert faults_from_args(args) is None

    def test_any_flag_opts_into_fault_policy(self):
        from repro.experiments.cli import faults_from_args
        from repro.experiments.faults import FaultPolicy

        args = build_parser().parse_args(["fig3", "--retries", "5"])
        policy = faults_from_args(args)
        assert isinstance(policy, FaultPolicy)
        assert policy.retries == 5
        assert not policy.best_effort

        args = build_parser().parse_args(
            ["fig3", "--best-effort", "--cell-timeout", "10"]
        )
        policy = faults_from_args(args)
        assert policy.best_effort
        assert policy.cell_timeout == 10.0
        assert policy.retries == FaultPolicy().retries  # default kept

    def test_resume_checkpoints_and_serves_warm(
        self, tmp_path, capsys, monkeypatch
    ):
        """End to end: --resume fills the sweep cache on the first run
        and serves it on the second (REPRO_SWEEP_CACHE points the CLI
        at a temp directory)."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps"))
        argv = [
            "fig3", "--intervals", "40", "--policies", "LDF", "--resume",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        entries = list((tmp_path / "sweeps").rglob("*.json"))
        assert len(entries) == 7  # one checkpoint per alpha cell
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # Identical table (timing footer differs), from cache this time.
        assert cold.splitlines()[:-2] == warm.splitlines()[:-2]

    def test_best_effort_reports_failed_cells(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:LDF:0.4")
        assert (
            main(
                [
                    "fig3", "--intervals", "40", "--policies", "LDF",
                    "--best-effort", "--retries", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 sweep cell(s) permanently failed" in out
        assert "'LDF'" in out and "InjectedFault" in out

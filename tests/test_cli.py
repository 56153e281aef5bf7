"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_floorplan_defaults(self):
        args = build_parser().parse_args(["floorplan", "ota1"])
        assert args.method == "sa"
        assert args.seed == 0

    def test_train_options(self):
        args = build_parser().parse_args(
            ["train", "--episodes", "4", "--circuits", "ota_small", "--out", "/tmp/x"])
        assert args.episodes == 4
        assert args.circuits == ["ota_small"]

    @pytest.mark.parametrize("argv", [
        ["--rollout", "0"], ["--envs", "0"], ["--episodes", "0"], ["--episodes", "1"],
    ])
    def test_train_rejects_bad_budgets(self, argv, capsys):
        # Parse only: a zero rollout would otherwise train forever.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["train", *argv])
        assert info.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_table1_engine_flags(self):
        args = build_parser().parse_args(
            ["table1", "--workers", "4", "--backend", "process", "--no-cache"])
        assert args.workers == 4
        assert args.backend == "process"
        assert args.cache is False

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workers", "0"])

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers is None
        assert args.backend == "serial"
        assert args.cache is None  # resolved per-command (sweep defaults on)

    @pytest.mark.parametrize("flag", ["--task-timeout", "--task-retries"])
    def test_serve_rejects_retry_policy_flags(self, flag):
        # serve sets no retry policy, so it must not accept one silently.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", flag, "5"])
        assert info.value.code == 2

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--methods", "sa,ga", "--circuits", "ota1,ota2",
             "--seeds", "5", "--set", "moves_per_temperature=10"])
        assert args.methods == "sa,ga"
        assert args.seeds == 5
        assert args.set == ["moves_per_temperature=10"]

    def test_pipeline_accepts_multiple_circuits(self):
        args = build_parser().parse_args(["pipeline", "ota1", "ota2"])
        assert args.circuits == ["ota1", "ota2"]


class TestCommands:
    def test_circuits_lists_all(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "ota1" in out and "driver" in out

    def test_floorplan_runs(self, capsys):
        assert main(["floorplan", "ota_small", "--method", "sa"]) == 0
        assert "SA on OTA-small" in capsys.readouterr().out

    def test_floorplan_verbose_prints_rects(self, capsys):
        main(["floorplan", "ota_small", "--method", "sa", "--verbose"])
        out = capsys.readouterr().out
        assert "DP" in out

    def test_floorplan_unknown_circuit(self, capsys):
        with pytest.raises(SystemExit):
            main(["floorplan", "nope"])

    def test_pipeline_runs(self, capsys):
        code = main(["pipeline", "ota_small"])
        out = capsys.readouterr().out
        assert "OTA-small" in out
        assert code in (0, 1)  # 1 if signoff not fully clean

    def test_train_and_solve_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "agent")
        assert main(["train", "--episodes", "2", "--rollout", "12",
                     "--circuits", "ota_small", "--out", prefix]) == 0
        assert main(["solve", "ota_small", "--agent", prefix]) == 0
        out = capsys.readouterr().out
        assert "saved to" in out

    def test_sweep_runs_with_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["sweep", "--methods", "sa", "--circuits", "ota_small",
                "--seeds", "2", "--workers", "2", "--backend", "process",
                "--set", "moves_per_temperature=4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ota_small" in out
        assert "sa" in out
        assert "2 cells (0 from cache)" in out
        # Warm re-run: every cell replayed from the artifact cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cells (2 from cache)" in out

    def test_sweep_metrics_flag_feeds_report(self, tmp_path, capsys):
        from repro import obs

        metrics = str(tmp_path / "m.jsonl")
        trace = str(tmp_path / "t.jsonl")
        assert main(["sweep", "--methods", "sa", "--circuits", "ota_small",
                     "--seeds", "2", "--no-cache",
                     "--set", "moves_per_temperature=4",
                     "--metrics", metrics, "--trace", trace]) == 0
        capsys.readouterr()
        # Telemetry is scoped to the instrumented command.
        assert not obs.is_enabled()
        assert main(["report", "--metrics", metrics, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "baseline.runs" in out
        assert "engine.task" in out

    def test_sweep_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--methods", "nope", "--circuits", "ota_small"])

    def test_sweep_unknown_circuit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--methods", "sa", "--circuits", "nope"])

    def test_svg_command_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "fp.svg")
        assert main(["svg", "ota_small", "--out", out, "--route"]) == 0
        content = open(out).read()
        assert content.startswith("<svg")
        assert "<line" in content  # routing segments present

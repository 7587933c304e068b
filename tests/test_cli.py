"""Tests for the top-level CLI (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        import repro

        assert repro.__version__ in capsys.readouterr().out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "v3-app" in out
        assert "tensorflow" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "t430-server" in out
        assert "raspberry-pi3" in out

    def test_survey(self, capsys):
        assert main(["--seed", "1", "survey", "--projects", "300"]) == 0
        out = capsys.readouterr().out
        assert "fig2a-image-shares" in out

    def test_single_experiment(self, capsys):
        assert main(["experiments", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "burst" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiments", "fig99"])


class TestScenarioCommands:
    def test_list_names_bundled_specs(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "day-1m" in out
        assert "fig12-serial" in out

    def test_show_prints_spec_json(self, capsys):
        assert main(["scenarios", "show", "fig12-serial"]) == 0
        out = capsys.readouterr().out
        import json

        document = json.loads(out)
        assert document["name"] == "fig12-serial"
        assert [arm["name"] for arm in document["arms"]] == ["default", "hotc"]

    def test_run_bundled_scenario(self, capsys):
        assert main(["scenarios", "run", "fig12-serial"]) == 0
        out = capsys.readouterr().out
        assert "scenario fig12-serial" in out
        assert "arm hotc" in out

    def test_run_spec_file_with_out_dir(self, capsys, tmp_path):
        from repro.scenarios import bundled_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            bundled_spec("fig12-serial", seed=1).to_json(), encoding="utf-8"
        )
        out_dir = tmp_path / "artifacts"
        assert (
            main(["scenarios", "run", str(spec_path), "--out", str(out_dir)])
            == 0
        )
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.txt").exists()

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "show", "fig99-warp"])

    def test_seed_threads_into_spec(self, capsys):
        assert main(["--seed", "7", "scenarios", "show", "day-smoke"]) == 0
        import json

        assert json.loads(capsys.readouterr().out)["seed"] == 7


class TestReport:
    def test_report_writes_the_run_bundle(self, capsys, tmp_path):
        out = tmp_path / "run-report"
        assert main(["report", str(out), "--rounds", "3"]) == 0
        for name in (
            "metrics.prom",
            "events.jsonl",
            "trace.json",
            "accuracy.txt",
            "summary.json",
        ):
            assert (out / name).stat().st_size > 0, name
        assert "wrote summary.json" in capsys.readouterr().out

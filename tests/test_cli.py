"""Tests for the experiment CLI."""

import io
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, cmd_list, cmd_run


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_names(self):
        args = build_parser().parse_args(["run", "fig3", "table2"])
        assert args.command == "run"
        assert args.names == ["fig3", "table2"]
        assert args.output_dir is None

    def test_run_with_output_dir(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "all", "-o", str(tmp_path)])
        assert args.output_dir == tmp_path


class TestCommands:
    def test_list_prints_every_experiment(self):
        out = io.StringIO()
        assert cmd_list(out=out) == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_run_unknown_name_errors(self):
        assert cmd_run(["not-an-experiment"], None) == 2

    def test_run_single_experiment_prints_table(self):
        out = io.StringIO()
        assert cmd_run(["fig1"], None, out=out) == 0
        assert "Figure 1" in out.getvalue()

    def test_run_persists_tables(self, tmp_path):
        out = io.StringIO()
        assert cmd_run(["fig1", "table2"], tmp_path, out=out) == 0
        assert (tmp_path / "figure_1.txt").exists()
        assert (tmp_path / "table_2.txt").exists()
        assert "Table 2" in (tmp_path / "table_2.txt").read_text()

    def test_json_output(self, tmp_path):
        import json
        out = io.StringIO()
        assert cmd_run(["fig1"], tmp_path, as_json=True, out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["experiment"].startswith("Figure 1")
        assert payload["rows"]
        on_disk = json.loads((tmp_path / "figure_1.json").read_text())
        assert on_disk["headers"] == payload["headers"]

    def test_to_dict_round_trips_through_json(self):
        import json
        from repro.bench.figures import fig1_bandwidth_trends
        result = fig1_bandwidth_trends()
        assert json.loads(json.dumps(result.to_dict()))["rows"]

    def test_run_all_writes_the_golden_names(self):
        """``run all -o DIR`` writes exactly the files under results/ (E7
        has no golden), so CI can compare the two directories by name."""
        written = {f"{stem}.txt" for name, (stem, __, __) in
                   EXPERIMENTS.items() if name != "e7"}
        results = Path(__file__).resolve().parent.parent / "results"
        assert written == {path.name for path in results.iterdir()}

    def test_registry_covers_all_paper_artifacts(self):
        """Every evaluated table/figure of the paper has a CLI entry."""
        for required in ("fig1", "table2", "fig3", "fig5", "fig7",
                         "table3"):
            assert required in EXPERIMENTS

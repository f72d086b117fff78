"""CLI surface tests (argparse wiring + each command end to end)."""

import numpy as np
import pytest

from repro.cli import PASSTHROUGH, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.scale == 1.0

    def test_factor_options(self):
        args = build_parser().parse_args(
            ["factor", "wang3", "--fill-level", "1", "--tau", "0.01", "--modified"]
        )
        assert args.fill_level == 1
        assert args.tau == 0.01
        assert args.modified

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "wang3", "--solver", "magic"])

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    @pytest.mark.parametrize("cmd", sorted(PASSTHROUGH))
    def test_passthrough_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_obs_export_defaults(self):
        args = build_parser().parse_args(["obs", "export", "wang3"])
        assert args.threads == 8
        assert args.out == "trace.json"


class TestCommands:
    def test_factor_runs(self, capsys):
        assert main(["factor", "wang3", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "schedule:" in out and "diagnostics:" in out

    def test_factor_with_tau(self, capsys):
        assert main(["factor", "wang3", "--scale", "0.4", "--tau", "0.05"]) == 0

    def test_simulate_runs(self, capsys):
        assert main(["simulate", "wang3", "--scale", "0.4", "--threads", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "LS_speedup" in out

    def test_simulate_generic_machine(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "wang3",
                    "--scale",
                    "0.4",
                    "--machine",
                    "8",
                    "--threads",
                    "1,8",
                ]
            )
            == 0
        )

    def test_solve_cg(self, capsys):
        assert main(["solve", "ecology2", "--scale", "0.4", "--solver", "cg"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_solve_ssor(self, capsys):
        assert (
            main(["solve", "wang3", "--scale", "0.4", "--precond", "ssor", "--solver", "cg"])
            == 0
        )

    def test_solve_none_precond(self, capsys):
        assert (
            main(["solve", "ecology2", "--scale", "0.4", "--precond", "none", "--solver", "cg"])
            == 0
        )

    def test_unknown_matrix_errors(self):
        with pytest.raises(SystemExit, match="unknown matrix"):
            main(["factor", "no_such_matrix"])

    def test_obs_report(self, capsys):
        assert main(["obs", "report", "wang3", "--scale", "0.4", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "flame" in out.lower() or "span" in out.lower()
        assert "wait" in out  # wait-vs-work shows up in the text summary

    def test_obs_export_is_schema_valid(self, tmp_path, capsys):
        import json

        from repro.obs import validate_events

        out_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "obs",
                    "export",
                    "wang3",
                    "--scale",
                    "0.4",
                    "--threads",
                    "4",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert validate_events(doc["traceEvents"]) == []
        # real recorder (pid 1) plus both simulated stages (pids 2, 3)
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 2, 3}
        assert doc["otherData"]["threads"] == 4

    def test_obs_diff(self, tmp_path, capsys):
        import json

        old = {
            "schema": "repro.obs.metrics/v1",
            "counters": {"c": 1.0},
            "gauges": {"g": 0.5},
            "histograms": {},
        }
        new = {
            "schema": "repro.obs.metrics/v1",
            "counters": {"c": 2.0},
            "gauges": {"g": 0.5},
            "histograms": {},
        }
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(old))
        b.write_text(json.dumps(new))
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "c" in out

    def test_mtx_file_path(self, tmp_path, capsys):
        from repro.matrices.generators import grid2d
        from repro.sparse import write_matrix_market

        path = tmp_path / "g.mtx"
        write_matrix_market(path, grid2d(10))
        assert main(["factor", str(path)]) == 0

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from saddlebounds import verify_containment
from saddlebounds.cli import main
from saddlebounds.report import (
    AnalysisReport,
    analyze,
    intervals_from_dict,
    plot_rows,
    solve,
    solve_rows,
)

from helpers import random_valid_system


@pytest.fixture()
def small_report():
    rng = np.random.default_rng(91)
    system, _ = random_valid_system(rng, 6, 4, 2)
    return analyze(
        system,
        scenarios=("unprec", "prec-exact", "prec-inexact"),
        precond="jacobi",
        problem={"kind": "random", "seed": 91},
    )


class TestAnalysisReport:
    def test_json_round_trip_is_fixed_point(self, small_report):
        text = small_report.to_json()
        back = AnalysisReport.from_json(text)
        assert back.to_json() == text

    def test_verdicts_consistent_with_stored_data(self, small_report):
        data = small_report.to_dict()
        for scenario in data["scenarios"]:
            if "intervals" not in scenario or scenario["intervals"] is None:
                continue
            containment = scenario.get("containment")
            if not containment or containment.get("status") == "unverified":
                continue
            values = (
                scenario.get("spectrum_normalized")
                or scenario.get("spectrum")
                or data["spectrum"]
            )
            bounds = intervals_from_dict(scenario["intervals"])
            recheck = verify_containment(values, bounds, tol=containment["tol"])
            assert recheck.passed == (containment["status"] == "pass")

    def test_all_scenarios_pass_for_valid_random_system(self, small_report):
        assert small_report.passed
        assert {s["name"] for s in small_report.scenarios} == {
            "unprec", "prec-exact", "prec-inexact",
        }

    def test_unverified_above_cutoff(self):
        rng = np.random.default_rng(92)
        system, _ = random_valid_system(rng, 6, 4, 2)
        report = analyze(system, scenarios=("unprec",), oracle_cutoff=8)
        assert report.scenarios[0]["containment"]["status"] == "unverified"
        assert report.scenarios[0]["intervals"] is not None
        assert report.passed  # nothing failed, nothing verified

    def test_infinite_ratio_suppresses_inexact_bounds(self):
        import numpy as np
        from saddlebounds import DoubleSaddleSystem

        # zero C with nonzero E: the tail ratio is infinite
        system = DoubleSaddleSystem(
            A=np.diag([2.0, 3.0, 1.5]),
            B=np.array([[1.0, 0.2, 0.0], [0.0, 1.1, 0.4]]),
            C=np.zeros((2, 2)),
            D=np.zeros((2, 2)),
            E=np.diag([1.0, 2.0]),
        )
        report = analyze(system, scenarios=("prec-inexact",), precond="jacobi")
        entry = report.scenarios[0]
        assert entry["intervals"] is None
        assert entry["precond"]["eta_e"] == "inf"
        assert entry["containment"]["status"] == "unverified"
        # report stays strict JSON and round-trips
        text = report.to_json()
        assert "Infinity" not in text
        assert AnalysisReport.from_json(text).to_json() == text


class TestPlotRows:
    def test_single_report_columns(self, small_report):
        rows = plot_rows([small_report])
        header = rows[0].split(",")
        assert header == [
            "index", "eigenvalue",
            "bound_neg_lo", "bound_neg_hi", "bound_pos_lo", "bound_pos_hi",
        ]
        assert len(rows) == 1 + 12

    def test_two_reports_two_value_columns(self, small_report):
        rows = plot_rows([small_report, small_report])
        header = rows[0].split(",")
        assert "eigenvalue" in header and "eigenvalue_2" in header

    def test_empty_list_gives_header_only(self):
        rows = plot_rows([])
        assert len(rows) == 1
        assert rows[0].startswith("index,eigenvalue")

    def test_byte_identical_across_runs(self):
        rng1 = np.random.default_rng(93)
        system1, _ = random_valid_system(rng1, 5, 4, 2)
        rng2 = np.random.default_rng(93)
        system2, _ = random_valid_system(rng2, 5, 4, 2)
        rows1 = plot_rows([analyze(system1, scenarios=("prec-exact",))])
        rows2 = plot_rows([analyze(system2, scenarios=("prec-exact",))])
        assert rows1 == rows2


class TestSolvePipeline:
    def test_solve_report_and_rows(self):
        rng = np.random.default_rng(94)
        system, _ = random_valid_system(rng, 6, 4, 2)
        data = solve(system, precond="exact", rtol=1e-9)
        assert data["converged"]
        assert data["true_relative_residual"] <= 1e-7
        rows = solve_rows(data)
        assert rows[0] == "iteration,relative_residual"
        assert len(rows) == len(data["residual_history"]) + 1


class TestCli:
    def test_analyze_exit_zero_and_json(self, capsys):
        code = main([
            "analyze", "--problem", "random", "--dims", "7,5,3", "--seed", "4",
            "--scenario", "unprec,prec-exact",
        ])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["validation"]["ok"] is True

    def test_analyze_validation_failure_exits_two(self, tmp_path, capsys):
        # zero B makes the first Schur complement singular
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({
            "schema": 1,
            "dims": [1, 1, 1],
            "format": "inline",
            "blocks": {"A": [[1.0]], "B": [[0.0]], "C": [[0.0]],
                       "D": [[0.0]], "E": [[0.0]]},
        }))
        code = main(["analyze", "--problem", f"manifest:{manifest}"])
        capsys.readouterr()
        assert code == 2

    def test_generate_then_analyze_manifest(self, tmp_path, capsys):
        code = main([
            "generate", "--problem", "random", "--dims", "6,4,2", "--seed", "9",
            "--out", str(tmp_path),
        ])
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        code = main([
            "analyze", "--problem", f"manifest:{manifest}",
            "--scenario", "prec-exact", "--out", str(tmp_path / "report.json"),
        ])
        capsys.readouterr()
        assert code == 0
        report = AnalysisReport.from_json((tmp_path / "report.json").read_text())
        assert report.passed

    def test_solve_exit_codes(self, tmp_path, capsys):
        code = main([
            "solve", "--problem", "random", "--dims", "6,4,2", "--seed", "5",
            "--precond", "exact", "--rtol", "1e-8",
            "--residuals", str(tmp_path / "res.csv"),
        ])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert lines[0] == "iteration,relative_residual"
        code = main([
            "solve", "--problem", "random", "--dims", "6,4,2", "--seed", "5",
            "--rtol", "1e-14", "--maxit", "2",
        ])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["analyze", "solve"])
    @pytest.mark.parametrize("precond", ["scaled:abc", "scaled:-1"])
    def test_bad_scale_factor_exits_one_before_dense_work(
        self, command, precond, monkeypatch, capsys
    ):
        import saddlebounds.report as report_mod

        def refuse(*args, **kwargs):
            raise AssertionError("dense work ran before the strategy was parsed")

        monkeypatch.setattr(report_mod, "validate", refuse)
        monkeypatch.setattr(report_mod, "assemble", refuse)
        argv = [command, "--problem", "random", "--dims", "6,4,2", "--seed", "5",
                "--precond", precond]
        if command == "analyze":
            argv += ["--scenario", "unprec,prec-inexact"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: scale factor")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--problem", "tight-neg", "--params", "1,2"], "--params wants 5"),
        (["solve", "--problem", "random", "--dims", "a,b,c"], "--dims wants 3"),
        (["plotdata", "{notes}"], "{notes} is not an analysis report"),
        (["analyze", "--problem", "manifest:{manifest}"], "block A has non-finite"),
        (["solve", "--problem", "manifest:{manifest}", "--precond", "exact"],
         "block A has non-finite"),
    ])
    def test_bad_input_exits_one_with_one_error_line(
        self, argv, message, tmp_path, capsys
    ):
        from saddlebounds import random_system
        from saddlebounds.cli import DEFAULT_RANDOM_EXTREMES

        notes = tmp_path / "README.md"
        notes.write_text("# saddlebounds\n\nNot a report.\n")
        system = random_system(8, 6, 4, 0, DEFAULT_RANDOM_EXTREMES)
        blocks = {key: getattr(system, key).tolist() for key in "ABCDE"}
        blocks["A"][0][1] = blocks["A"][1][0] = float("nan")
        manifest = tmp_path / "nan.json"
        manifest.write_text(json.dumps(
            {"schema": 1, "dims": [8, 6, 4], "format": "inline", "blocks": blocks}
        ))
        paths = {"notes": notes, "manifest": manifest}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message.format(**paths)}")
        assert err.count("\n") == 1

    def test_plotdata_round_trip(self, tmp_path, capsys):
        main([
            "analyze", "--problem", "random", "--dims", "6,4,2", "--seed", "8",
            "--scenario", "prec-exact", "--out", str(tmp_path / "r.json"),
        ])
        capsys.readouterr()
        code = main(["plotdata", str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("index,eigenvalue,bound_neg_lo")

    def test_plotdata_empty_is_header_only(self, capsys):
        code = main(["plotdata"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().count("\n") == 0

    def test_plot_csv_byte_identical(self, tmp_path):
        args = [
            "analyze", "--problem", "random", "--dims", "6,4,2", "--seed", "3",
            "--scenario", "prec-exact", "--format", "csv",
        ]
        first = subprocess.run(
            [sys.executable, "-m", "saddlebounds.cli", *args],
            capture_output=True, text=True, check=True,
        ).stdout
        second = subprocess.run(
            [sys.executable, "-m", "saddlebounds.cli", *args],
            capture_output=True, text=True, check=True,
        ).stdout
        assert first == second

    def test_tightness_problem_generation(self, tmp_path, capsys):
        code = main([
            "generate", "--problem", "tight-neg", "--params", "1,1,1,1,1",
            "--out", str(tmp_path), "--inline",
        ])
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        data = json.loads(Path(manifest).read_text())
        assert data["dims"] == [2, 2, 1]

    def test_user_preconditioner_blocks(self, tmp_path, capsys):
        import numpy as np

        from saddlebounds import build_exact, random_system
        from saddlebounds.cli import DEFAULT_RANDOM_EXTREMES
        import scipy.io

        system = random_system(6, 4, 2, 9, DEFAULT_RANDOM_EXTREMES)
        op = build_exact(system)
        names = []
        for i, block in enumerate(op.blocks):
            name = f"user_{i}.mtx"
            scipy.io.mmwrite(tmp_path / name, np.asarray(block))
            names.append(name)
        (tmp_path / "blocks.json").write_text(json.dumps({"blocks": names}))
        code = main([
            "analyze", "--problem", "random", "--dims", "6,4,2", "--seed", "9",
            "--scenario", "prec-inexact",
            "--precond", f"user:{tmp_path / 'blocks.json'}",
        ])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        entry = data["scenarios"][0]
        # user blocks equal the exact ones, so every constant is 1
        for meas in entry["precond"]["equivalence"]:
            assert meas["alpha"] == pytest.approx(1.0, abs=1e-9)
            assert meas["beta"] == pytest.approx(1.0, abs=1e-9)
        assert entry["containment"]["status"] == "pass"

    def test_generate_poisson_manifest_lists_five_blocks(self, tmp_path, capsys):
        code = main([
            "generate", "--problem", "poisson-dist", "--h", "0.125",
            "--beta", "1e-3", "--out", str(tmp_path / "a"),
        ])
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        data = json.loads(Path(manifest).read_text())
        assert sorted(data["blocks"]) == ["A", "B", "C", "D", "E"]
        assert data["dims"] == [49, 49, 49]
        # deterministic output: a second run writes identical bytes
        main([
            "generate", "--problem", "poisson-dist", "--h", "0.125",
            "--beta", "1e-3", "--out", str(tmp_path / "b"),
        ])
        capsys.readouterr()
        for name in sorted((tmp_path / "a").iterdir()):
            twin = tmp_path / "b" / name.name
            assert twin.read_bytes() == name.read_bytes()

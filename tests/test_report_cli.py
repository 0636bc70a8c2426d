import dataclasses
import gc
import json
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from saddlebounds import (
    distributed_context,
    nullity_system,
    poisson_boundary,
    poisson_distributed,
    schur_complements,
    verify_containment,
)
from saddlebounds.cli import main
from saddlebounds.report import (
    SCENARIOS,
    AnalysisReport,
    analyze,
    intervals_from_dict,
    plot_rows,
    solve,
    solve_rows,
)

from helpers import random_valid_system, singular_s1_system


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

    def test_unverified_above_cutoff_forms_no_split_matrix(self, monkeypatch):
        import saddlebounds.report as report_mod

        def refused(*args):
            raise AssertionError("split matrix formed above the cutoff")

        monkeypatch.setattr(report_mod, "split_preconditioned_matrix", refused)
        system, _ = random_valid_system(np.random.default_rng(93), 8, 6, 4)
        report = analyze(system, SCENARIOS, precond="jacobi", oracle_cutoff=8)
        assert report.spectrum is None
        for entry in report.scenarios:
            assert entry["containment"] == {"status": "unverified"}, entry["name"]
            assert entry["intervals"] is not None
            assert "error" not in entry and "spectrum" not in entry
        assert report.passed

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


    @pytest.mark.parametrize("seed", range(8))
    def test_row_rank_deficient_coupling_always_gives_infinite_eta(self, seed):
        # validate's SVD rank decides, not whether a Cholesky of the singular
        # Gram happens to fail
        system = nullity_system(10, 8, 5, 1, seed)
        report = analyze(system, scenarios=("prec-inexact",), precond="jacobi")
        assert not report.validation["c_full_row_rank"]
        entry = report.scenarios[0]
        assert entry["precond"]["eta_e"] == "inf"
        assert entry["warnings"] == ["eta-not-finite: inexact bounds suppressed"]
        assert schur_complements(system).eta_e == np.inf

    def test_analyze_measures_each_block_once(self, monkeypatch):
        import saddlebounds.spectral as spectral_mod

        rng = np.random.default_rng(94)
        system, _ = random_valid_system(rng, 6, 4, 2)
        seen = []

        def counted(fn):
            def run(matrix, *args, **kwargs):
                seen.append(next((k for k in "ABC" if matrix is getattr(system, k)), None))
                return fn(matrix, *args, **kwargs)
            return run

        for name in ("extremal_eigs", "_singular_values"):
            monkeypatch.setattr(spectral_mod, name, counted(getattr(spectral_mod, name)))
        report = analyze(system, scenarios=("unprec",))
        assert report.passed and report.extremes is not None
        assert [seen.count(k) for k in "ABC"] == [1, 1, 1]


def _count_b_grams(monkeypatch, system) -> list:
    """Record each B-Gram the Schur pair forms for ``system``: one per build."""
    import saddlebounds.spectral as spectral_mod

    b_dense = np.asarray(system.dense().B)
    original = spectral_mod._gram
    builds = []

    def counted(factor, coupling):
        if coupling.shape == b_dense.shape and np.array_equal(
                spectral_mod._dense(coupling), b_dense):
            builds.append(coupling)
        return original(factor, coupling)

    monkeypatch.setattr(spectral_mod, "_gram", counted)
    return builds


def _fem_input(label):
    if label == "poisson-dist":
        system, fem = poisson_distributed(1 / 8, 1e-3)
        return system, "pearson-wathen", distributed_context(fem, 1e-3)
    return poisson_boundary(1 / 8, 1e-3), "jacobi", None


class TestOneSchurBuildPerAnalysis:
    @pytest.mark.parametrize("label", [
        "jacobi", "exact", "scaled:0.5", "poisson-dist", "poisson-bnd",
    ])
    def test_analyze_builds_the_pair_once(self, label, monkeypatch):
        # an exact count: sharing the pair is what takes the five builds
        # (validate, two build_exact, build_approx, the eta read) to one
        if label.startswith("poisson"):
            system, precond, context = _fem_input(label)
        else:
            rng = np.random.default_rng(95)
            system, _ = random_valid_system(rng, 9, 6, 4)
            precond, context = label, None
        builds = _count_b_grams(monkeypatch, system)
        report = analyze(system, SCENARIOS, precond=precond, context=context)
        assert report.passed
        assert len(builds) == 1

    @pytest.mark.parametrize("scenarios, at_spectrum, at_splits", [
        # kept through prec-exact's split spectrum, gone before prec-inexact's
        (SCENARIOS, True, [True, False]),
        # validate is the only reader
        (("unprec",), False, []),
        # prec-exact reads it last, before its own split spectrum
        (("prec-inexact", "prec-exact"), True, [True, False]),
    ])
    def test_pair_lives_until_its_last_reader_and_the_system_is_untouched(
        self, scenarios, at_spectrum, at_splits, monkeypatch
    ):
        import saddlebounds.precond as precond_mod
        import saddlebounds.report as report_mod
        import saddlebounds.spectral as spectral_mod

        rng = np.random.default_rng(96)
        system, _ = random_valid_system(rng, 9, 6, 4)
        before = dict(vars(system))
        refs = []
        alive = []
        original = spectral_mod.schur_complements

        def traced(*args, **kwargs):
            pair = original(*args, **kwargs)
            refs.append(weakref.ref(pair))
            return pair

        def noting(fn):
            def run(*args):
                alive.append(refs[0]() is not None)
                return fn(*args)
            return run

        for module in (spectral_mod, precond_mod, report_mod):
            monkeypatch.setattr(module, "schur_complements", traced)
        monkeypatch.setattr(report_mod, "assemble", noting(report_mod.assemble))
        monkeypatch.setattr(report_mod, "_split_spectrum",
                            noting(report_mod._split_spectrum))
        gc.disable()
        try:
            report = analyze(system, scenarios, precond="jacobi")
            dead = [ref() is None for ref in refs]
        finally:
            gc.enable()
        assert report.passed
        assert refs and all(dead)
        assert alive == [at_spectrum, *at_splits]
        assert vars(system).keys() == before.keys()
        assert all(vars(system)[key] is value for key, value in before.items())

    def test_singular_s1_fails_at_each_reader(self, monkeypatch):
        system = singular_s1_system()
        builds = _count_b_grams(monkeypatch, system)
        report = analyze(system, SCENARIOS, precond="jacobi")
        assert report.validation["schur_definite"] == [False, False]
        message = "DefinitenessError: first-schur block is not positive definite"
        errors = {e["name"]: e.get("error") for e in report.scenarios}
        assert errors == {
            "unprec": None, "prec-exact": message, "prec-inexact": message}
        # a failed build is not kept: validate and both scenarios try again
        assert len(builds) == 3

    def test_scope_closes_when_analyze_raises(self, monkeypatch):
        import saddlebounds.report as report_mod
        import saddlebounds.spectral as spectral_mod

        def broken(*args):
            raise RuntimeError("spectrum failed")

        monkeypatch.setattr(report_mod, "full_spectrum", broken)
        rng = np.random.default_rng(98)
        system, _ = random_valid_system(rng, 6, 4, 2)
        with pytest.raises(RuntimeError, match="spectrum failed"):
            analyze(system, SCENARIOS)
        assert spectral_mod._SHARED.get() is None


class TestOneFactorPerBlock:
    @pytest.mark.parametrize("label, counts", [
        # cho_factor: A and S1 (validate), S2 (the first build_exact; the
        # second reuses it), the mass matrix and the square-completion block;
        # eigh: the reference (stiffness, mass) pencil and eta_e; split
        # matrices: prec-exact and prec-inexact, whose normalized spectrum
        # rescales the inexact one (the parent counted 11, 3 and 3)
        ("poisson-dist", (5, 2, 2)),
        # cho_factor: A, S1 and S2; eigh: eta_e (the parent counted 4, 4, 2)
        ("poisson-bnd", (3, 1, 2)),
    ])
    def test_analyze_counts_factors_eigh_and_split_matrices(
        self, label, counts, monkeypatch
    ):
        import scipy.linalg as sla

        import saddlebounds.report as report_mod

        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, run)

        count(sla, "cho_factor")
        count(sla, "eigh")
        count(report_mod, "split_preconditioned_matrix")
        system, precond, context = _fem_input(label)
        report = analyze(system, SCENARIOS, precond=precond, context=context)
        assert report.passed
        assert (calls["cho_factor"], calls["eigh"],
                calls["split_preconditioned_matrix"]) == counts

    @pytest.mark.parametrize("label", ["jacobi", "scaled:0.5", "poisson-dist"])
    def test_normalized_spectrum_matches_refactored_scaled_blocks(self, label):
        # the parent took the normalized spectrum from from_blocks of the
        # scaled blocks; a jacobi interval always straddles 1 (its generalized
        # eigenvalues average 1), so jacobi is checked with scales of its own
        from saddlebounds.precond import (
            build_approx,
            from_blocks,
            split_preconditioned_matrix,
            strategy_tuple,
        )
        from saddlebounds.report import _split_spectrum
        from saddlebounds.spectral import ORACLE_CUTOFF, full_spectrum

        if label.startswith("poisson"):
            system, precond, context = _fem_input(label)
        else:
            system, _ = random_valid_system(np.random.default_rng(99), 12, 8, 5)
            precond, context = label, None
        system = system.dense()
        entry = analyze(system, ("prec-inexact",), precond=precond,
                        context=context).scenarios[0]
        assert ("normalization_scales" in entry) == (label != "jacobi")
        op = build_approx(system, strategy_tuple(precond), context=context)

        def reference(scales):
            scaled = from_blocks([s * b for s, b in zip(scales, op.blocks)],
                                 system.dims, op.strategy)
            return full_spectrum(split_preconditioned_matrix(system, scaled))

        def assert_close(got, want):
            assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()

        scales = entry.get("normalization_scales", [1.0, 1.0, 1.0])
        assert_close(entry.get("spectrum_normalized", entry["spectrum"]), reference(scales))
        values, scaled = _split_spectrum(system, op, ORACLE_CUTOFF, (0.7, 1.3, 2.5))
        assert_close(values, reference((1.0, 1.0, 1.0)))
        assert_close(scaled, reference((0.7, 1.3, 2.5)))


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

    def test_failed_preconditioned_entry_plots_no_spectrum_of_k(self):
        rng = np.random.default_rng(95)
        system, _ = random_valid_system(rng, 6, 4, 2)
        system = dataclasses.replace(system, A=np.diag(np.linspace(-1.0, 2.0, 6)))
        report = analyze(system, scenarios=("unprec", "prec-exact"))
        assert report.spectrum and "error" in report.scenarios[1]
        assert len(plot_rows([report], scenario="unprec")) == 1 + system.total
        assert len(plot_rows([report], scenario="prec-exact")) == 1

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

    def test_generate_poisson_then_analyze_manifest(self, tmp_path, capsys):
        # sparse blocks go to coordinate files and come back sparse; the
        # densified oracle gives the report of the generated system
        code = main([
            "generate", "--problem", "poisson-dist", "--h", "0.125",
            "--out", str(tmp_path),
        ])
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        code = main([
            "analyze", "--problem", f"manifest:{manifest}",
            "--scenario", "unprec,prec-exact", "--out", str(tmp_path / "report.json"),
        ])
        capsys.readouterr()
        assert code == 0
        loaded = AnalysisReport.from_json((tmp_path / "report.json").read_text())
        system, _ = poisson_distributed(0.125, 1e-3)
        direct = analyze(system, scenarios=("unprec", "prec-exact"))
        assert loaded.passed and direct.passed
        assert loaded.dims == direct.dims and loaded.validation == direct.validation
        np.testing.assert_allclose(loaded.spectrum, direct.spectrum, rtol=1e-12, atol=1e-14)

    def test_desk_analyze_leaves_sparse_linalg_unimported(self):
        # loading scipy.sparse.linalg costs every process about 2 MB of
        # resident memory; only the sparse-factor path may load it
        code = (
            "import sys\n"
            "from saddlebounds import random_system\n"
            "from saddlebounds.cli import DEFAULT_RANDOM_EXTREMES\n"
            "from saddlebounds.report import SCENARIOS, analyze, solve\n"
            "system = random_system(9, 6, 4, 3, DEFAULT_RANDOM_EXTREMES)\n"
            "for precond in ('jacobi', 'exact', 'scaled:0.5'):\n"
            "    assert analyze(system, SCENARIOS, precond=precond).passed\n"
            "    assert solve(system, precond=precond)['converged']\n"
            "print('scipy.sparse.linalg' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

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
        (["solve", "--problem", "random", "--precond", "user:{user}"],
         "user block 1 has non-finite"),
        (["analyze", "--problem", "random", "--scenario", "prec-inexact",
          "--precond", "user:{user}"], "user block 1 has non-finite"),
        (["analyze", "--problem", "random", "--tol", "nan"], "tol must be finite"),
        (["analyze", "--problem", "random", "--tol", "-1"], "tol must be finite"),
        (["solve", "--problem", "random", "--rtol", "nan"], "rtol must be finite"),
        (["solve", "--problem", "random", "--rtol", "-1"], "rtol must be finite"),
        (["solve", "--problem", "random", "--maxit", "-3"], "maxit must be non-negative"),
        (["analyze", "--problem", "random", "--seed", "-1"], "seed must be non-negative"),
        (["plotdata", "{report}", "--scenario", "prec-exact"],
         "report {report} carries no prec-exact spectrum"),
        (["analyze", "--problem", "poisson-dist", "--h", "nan"],
         "parameter h must be finite and positive"),
        (["solve", "--problem", "poisson-dist", "--h", "0"],
         "parameter h must be finite and positive"),
        (["analyze", "--problem", "poisson-bnd", "--beta", "nan"],
         "parameter beta must be finite and positive"),
        (["analyze", "--problem", "random", "--scenario", ","], "no scenario given"),
        (["analyze", "--problem", "manifest:{asymmetric}"], "block A is not symmetric"),
        (["solve", "--problem", "random", "--precond", "user:{asymmetric_user}"],
         "user block 0 is not symmetric"),
        (["analyze", "--problem", "manifest:{not_json}"],
         "manifest {not_json} is not valid JSON"),
        (["solve", "--problem", "random", "--precond", "user:{not_json}"],
         "manifest {not_json} is not valid JSON"),
        (["solve", "--problem", "manifest:{json_list}"],
         "manifest {json_list} must hold a JSON object, got list"),
        (["solve", "--problem", "random", "--precond", "user:{json_list}"],
         "manifest {json_list} must hold a JSON object, got list"),
        (["analyze", "--problem", "manifest:{word_entry}"],
         "manifest {word_entry}: block B is not an array of numbers"),
        (["analyze", "--problem", "random", "--scenario", "prec-inexact",
          "--precond", "user:{word_user}"],
         "manifest {word_user}: user block 2 is not an array of numbers"),
        (["analyze", "--problem", "manifest:{mtx_manifest}"],
         "{bad_mtx} is not a Matrix Market file"),
        (["solve", "--problem", "random", "--precond", "user:{mtx_user}"],
         "{bad_mtx} is not a Matrix Market file"),
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
        asymmetric = tmp_path / "asymmetric.json"
        blocks["A"][0][1] += 1e-3
        asymmetric.write_text(json.dumps(
            {"schema": 1, "dims": [8, 6, 4], "format": "inline", "blocks": blocks}
        ))
        blocks["A"][0][1] = blocks["A"][1][0] = float("nan")
        manifest = tmp_path / "nan.json"
        manifest.write_text(json.dumps(
            {"schema": 1, "dims": [8, 6, 4], "format": "inline", "blocks": blocks}
        ))
        user_blocks = [np.eye(k).tolist() for k in (8, 6, 4)]
        user_blocks[1][2][2] = float("nan")
        user = tmp_path / "user.json"
        user.write_text(json.dumps({"blocks": user_blocks}))
        user_blocks = [(2.0 * np.eye(k)).tolist() for k in (8, 6, 4)]
        user_blocks[0][0][1] = 1.5
        asymmetric_user = tmp_path / "asymmetric_user.json"
        asymmetric_user.write_text(json.dumps({"blocks": user_blocks}))
        report = tmp_path / "unprec.json"
        report.write_text(analyze(system).to_json())
        not_json = tmp_path / "truncated.json"
        not_json.write_text('{"schema": 1, "blocks": ')
        json_list = tmp_path / "list.json"
        json_list.write_text(json.dumps([1, 2, 3]))
        blocks = {key: getattr(system, key).tolist() for key in "ABCDE"}
        blocks["B"][1][2] = "x"
        word_entry = tmp_path / "word_entry.json"
        word_entry.write_text(json.dumps(
            {"schema": 1, "dims": [8, 6, 4], "format": "inline", "blocks": blocks}
        ))
        user_blocks = [np.eye(k).tolist() for k in (8, 6, 4)]
        user_blocks[2][0][0] = "one"
        word_user = tmp_path / "word_user.json"
        word_user.write_text(json.dumps({"blocks": user_blocks}))
        bad_mtx = tmp_path / "bad.mtx"
        bad_mtx.write_text("not a matrix\n")
        mtx_manifest = tmp_path / "mtx.json"
        mtx_manifest.write_text(json.dumps(
            {"schema": 1, "blocks": {key: "bad.mtx" for key in "ABCDE"}}))
        mtx_user = tmp_path / "mtx_user.json"
        mtx_user.write_text(json.dumps({"blocks": ["bad.mtx"] * 3}))
        paths = {"notes": notes, "manifest": manifest, "user": user, "report": report,
                 "asymmetric": asymmetric, "asymmetric_user": asymmetric_user,
                 "not_json": not_json, "json_list": json_list,
                 "word_entry": word_entry, "word_user": word_user,
                 "bad_mtx": bad_mtx, "mtx_manifest": mtx_manifest, "mtx_user": mtx_user}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message.format(**paths)}")
        assert err.count("\n") == 1

    def test_wrong_size_user_block_exits_one(self, tmp_path, capsys):
        # a leading block of the wrong size is refused where it enters, not
        # by a broadcast error inside MINRES
        user = tmp_path / "short_user.json"
        user.write_text(json.dumps({"blocks": [np.eye(k).tolist() for k in (7, 6, 4)]}))
        code = main(["solve", "--problem", "random", "--precond", f"user:{user}"])
        assert code == 1
        assert capsys.readouterr().err == "error: user block 0 must be 8 x 8, got (7, 7)\n"

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

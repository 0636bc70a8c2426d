"""The modal oracle against the dense one, its recognition rule, and the
dense fallback for everything it does not recognize or cover."""

import json

import numpy as np
import pytest

import saddlebounds.modal as modal_mod
import saddlebounds.precond as precond_mod
import saddlebounds.report as report_mod
import saddlebounds.spectral as spectral_mod
from saddlebounds import (
    DoubleSaddleSystem,
    PoissonControlContext,
    assemble,
    build_approx,
    distributed_context,
    full_spectrum,
    poisson_boundary,
    poisson_distributed,
    split_preconditioned_matrix,
)
from saddlebounds.cli import main
from saddlebounds.report import SCENARIOS, analyze, intervals_from_dict

from helpers import perturbed_entry, random_valid_system

BETA = 1e-3


def _dist(h, context_beta=BETA):
    system, fem = poisson_distributed(h, BETA)
    return system, distributed_context(fem, context_beta)


def _methods(report) -> dict:
    return {(entry["name"], key): entry[key].get("method")
            for entry in report.scenarios
            for key in ("containment", "reference_containment") if key in entry}


class TestModalAgainstDense:
    # the covered strategies, pearson-wathen also with a context whose beta
    # is not the system's
    CASES = [("exact", BETA), ("scaled:0.5", BETA), ("pearson-wathen", BETA),
             ("pearson-wathen", 1e-2), ("drop-term", BETA)]

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 24, 1 / 32])
    def test_spectra_verdicts_counts_and_inertia(self, h):
        # each modal spectrum against the dense oracle's, and the report's
        # verdicts, counts and inertia against those of the dense spectrum
        dense = {}
        for i, (precond, context_beta) in enumerate(self.CASES):
            system, context = _dist(h, context_beta)
            # K's spectrum and prec-exact once per h; prec-inexact per case
            scenarios = SCENARIOS if i == 0 else ("prec-inexact",)
            report = analyze(system, scenarios, precond=precond, context=context)
            assert report.passed and set(_methods(report).values()) == {"modal"}
            system = system.dense()
            if i == 0:
                _same_verdicts(report.scenarios[0], report.spectrum,
                               full_spectrum(assemble(system).data))
            for entry in report.scenarios:
                if entry["name"] == "unprec":
                    continue
                strategies = tuple(entry["precond"]["strategy"])
                if (strategies, context_beta) not in dense:
                    op = build_approx(system, strategies, context=context)
                    dense[strategies, context_beta] = full_spectrum(
                        split_preconditioned_matrix(system, op))
                _same_verdicts(entry, entry["spectrum"], dense[strategies, context_beta])


    @pytest.mark.parametrize("precond", ["exact", "scaled:2", "drop-term"])
    def test_every_block_nonzero(self, precond):
        # D = 0.01 M: the exact modal S1 reads d too
        system, _ = _dist(1 / 8)
        system = DoubleSaddleSystem(system.A, system.B, system.C, 0.01 * system.E, system.E)
        report = analyze(system, SCENARIOS, precond=precond)
        assert report.passed and set(_methods(report).values()) == {"modal"}
        system = system.dense()
        _same_verdicts(report.scenarios[0], report.spectrum,
                       full_spectrum(assemble(system).data))
        for entry, strategies in zip(report.scenarios[1:], (("exact",) * 3, None)):
            op = build_approx(system, strategies or tuple(entry["precond"]["strategy"]))
            _same_verdicts(entry, entry["spectrum"],
                           full_spectrum(split_preconditioned_matrix(system, op)))


def _same_verdicts(entry, spectrum, dense):
    """The modal ``spectrum`` of a scenario within 1e-10 of the spectral
    radius of the ``dense`` one, and the entry's verdicts, counts and
    inertia those of the dense spectrum."""
    spectrum = np.asarray(spectrum)
    assert spectrum.shape == dense.shape
    assert np.abs(spectrum - dense).max() <= 1e-10 * np.abs(dense).max()
    summary, want = entry["spectrum_summary"], report_mod._spectrum_summary(dense)
    assert (summary["count"], summary["inertia"]) == (want["count"], want["inertia"])
    for key, bounds in (("containment", "intervals"),
                        ("reference_containment", "reference_intervals")):
        if key not in entry:
            continue
        got = dict(entry[key])
        want = report_mod._containment_dict(
            dense, intervals_from_dict(entry[bounds]), got["tol"], "dense")
        assert (got.pop("method"), want.pop("method")) == ("modal", "dense")
        for values in ("failed_values", "worst_slack"):  # move with the spectrum
            assert np.allclose(got.pop(values), want.pop(values), rtol=0,
                               atol=1e-10 * np.abs(dense).max())
        assert got == want


class TestRecognition:
    def test_poisson_dist_and_its_context(self):
        system, context = _dist(1 / 8, 1e-2)
        oracle = modal_mod.recognize(system, context)
        assert oracle is not None and oracle.context_beta == 1e-2
        assert oracle.blocks[3].tolist() == [0.0] * 49  # D stores no nonzero

    def test_dense_blocks_are_recognized_too(self):
        system, context = _dist(1 / 8)
        assert modal_mod.recognize(system.dense(), context) is not None

    @pytest.mark.parametrize("name", ["A", "B", "C", "E"])
    @pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (17, 24), (48, 48)])
    def test_one_entry_off_falls_back(self, name, row, col):
        system, context = _dist(1 / 8)
        assert modal_mod.recognize(perturbed_entry(system, name, row, col), context) is None

    def test_one_entry_moved_falls_back(self):
        # the same stored values, one of them a column further right
        system, context = _dist(1 / 8)
        c = system.C.copy()
        c.indices[3] += 1  # row 0 stores columns 0, 1, 7, 8
        moved = DoubleSaddleSystem(system.A, system.B, c, system.D, system.E)
        assert moved.C.nnz == system.C.nnz
        assert modal_mod.recognize(moved, context) is None

    def test_one_extra_entry_falls_back(self):
        system, context = _dist(1 / 8)
        d = np.zeros(system.dims[:1] * 2)
        d[5, 5] = 1e-20
        assert modal_mod.recognize(
            DoubleSaddleSystem(system.A, system.B, system.C, d, system.E), context) is None

    def test_other_systems_fall_back(self):
        system, _ = random_valid_system(np.random.default_rng(5), 9, 9, 9)
        assert modal_mod.recognize(system) is None
        assert modal_mod.recognize(poisson_boundary(1 / 8, BETA)) is None
        one = DoubleSaddleSystem(*(np.ones((1, 1)),) * 3, np.zeros((1, 1)), np.ones((1, 1)))
        assert modal_mod.recognize(one) is None

    def test_a_context_off_the_grid_is_not_used(self):
        system, context = _dist(1 / 8)
        scaled = PoissonControlContext(context.mass, 2.0 * context.stiffness, BETA)
        assert modal_mod.recognize(system, scaled).context_beta is None
        wrong = PoissonControlContext(np.eye(4), np.eye(4), BETA)
        assert modal_mod.recognize(system, wrong).context_beta is None

    def test_a_mode_value_not_positive_is_not_covered(self):
        system, _ = _dist(1 / 8)
        no_e = DoubleSaddleSystem(system.A, system.B, system.C, system.D, 0 * system.E)
        oracle = modal_mod.recognize(no_e)
        assert oracle is not None
        assert oracle.split_spectrum(("exact", "exact", "drop-term")) is None
        assert oracle.split_spectrum(("exact", "exact", "exact")) is not None
        for strategies in (("jacobi",) * 3, ("user",) * 3, ("exact", "exact", "pearson-wathen")):
            assert oracle.split_spectrum(strategies) is None


class TestFallback:
    def test_one_entry_off_takes_the_dense_path(self):
        system, context = _dist(1 / 8)
        report = analyze(perturbed_entry(system, "C", 8, 9), SCENARIOS,
                         precond="pearson-wathen", context=context)
        assert report.passed
        assert set(_methods(report).values()) == {"dense"}

    def test_a_context_off_the_grid_sends_only_the_inexact_split_dense(self):
        system, context = _dist(1 / 8)
        scaled = PoissonControlContext(context.mass, 2.0 * context.stiffness, BETA)
        report = analyze(system, SCENARIOS, precond="pearson-wathen", context=scaled)
        assert _methods(report) == {
            ("unprec", "containment"): "modal",
            ("prec-exact", "containment"): "modal",
            ("prec-inexact", "containment"): "dense",
            ("prec-inexact", "reference_containment"): "dense",
        }

    def test_jacobi_is_dense(self):
        system, _ = _dist(1 / 8)
        report = analyze(system, SCENARIOS, precond="jacobi")
        assert report.passed
        assert [_methods(report)[(name, "containment")] for name in SCENARIOS] == [
            "modal", "modal", "dense"]

    @pytest.mark.parametrize("label", ["poisson-bnd", "random"])
    def test_other_systems_are_dense(self, label):
        if label == "random":
            system, _ = random_valid_system(np.random.default_rng(7), 9, 6, 4)
        else:
            system = poisson_boundary(1 / 8, BETA)
        report = analyze(system, SCENARIOS, precond="jacobi")
        assert report.passed
        assert set(_methods(report).values()) == {"dense"}

    def test_a_context_of_the_wrong_shape_still_raises(self):
        system, _ = _dist(1 / 8)
        wrong = PoissonControlContext(np.eye(4), np.eye(4), BETA)
        report = analyze(system, SCENARIOS, precond="pearson-wathen", context=wrong)
        assert report.scenarios[2]["error"].startswith(
            "StructuralError: context mass and stiffness must be 49 x 49")

    def test_drop_term_without_e_raises_the_dense_error(self):
        system, _ = _dist(1 / 8)
        no_e = DoubleSaddleSystem(system.A, system.B, system.C, system.D, 0 * system.E)
        (entry,) = analyze(no_e, ("prec-inexact",), precond="drop-term").scenarios
        assert entry["error"] == "DefinitenessError: second-schur block is not positive definite"


def test_recognized_analyze_eigensolves_no_matrix_above_n(monkeypatch):
    system, context = _dist(1 / 8)
    n = system.dims[0]
    sizes = []

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    original = spectral_mod._eigvalsh
    monkeypatch.setattr(spectral_mod, "_eigvalsh", spy)
    monkeypatch.setattr(precond_mod, "_eigvalsh", spy)
    for precond in ("exact", "pearson-wathen"):
        report = analyze(system, SCENARIOS, precond=precond, context=context)
        assert report.passed
    assert sizes and max(sizes) <= n


def test_the_cutoff_gates_only_the_dense_oracle(monkeypatch, tmp_path):
    # 147 unknowns above a cutoff of 100: the modal spectra are verified,
    # the dense jacobi split is not formed
    monkeypatch.setattr(spectral_mod, "ORACLE_CUTOFF", 100)
    out = tmp_path / "r.json"
    code = main(["analyze", "--problem", "poisson-dist", "--h", "0.125",
                 "--scenario", "unprec,prec-exact,prec-inexact", "--precond", "jacobi",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    containment = {entry["name"]: entry["containment"] for entry in report["scenarios"]}
    assert containment["prec-inexact"] == {"status": "unverified"}
    for name in ("unprec", "prec-exact"):
        assert (containment[name]["status"], containment[name]["method"]) == ("pass", "modal")
    assert len(report["spectrum"]) == 147


def test_dense_verdicts_name_their_method():
    system, _ = random_valid_system(np.random.default_rng(8), 8, 6, 4)
    report = analyze(system, SCENARIOS, precond="exact")
    assert report.passed
    assert set(_methods(report).values()) == {"dense"}
    assert len(_methods(report)) == 3

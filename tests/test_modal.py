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


def _dense_report(monkeypatch, system, scenarios, cutoff=None, **kwargs):
    """``analyze`` on the dense path alone: the modal oracle recognizes
    nothing, and with ``cutoff`` the dense oracle takes no spectrum above it."""
    with monkeypatch.context() as patch:
        patch.setattr(modal_mod, "recognize", lambda *args: None)
        if cutoff is not None:
            patch.setattr(spectral_mod, "ORACLE_CUTOFF", cutoff)
        return analyze(system, scenarios, **kwargs)


def _close(got, want, rel=1e-10):
    """Equal nested values, floats within ``rel`` relative."""
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= rel * abs(want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    return got == want


def _same_bound_inputs(modal, dense):
    """The modal report's validation, extremes, equivalence constants, eta
    values and every interval those of the dense report: booleans, ranks
    and warnings equal, floats within 1e-10 relative."""
    validation = dict(modal.validation)
    assert (validation.pop("method"), dense.validation["method"]) == ("modal", "dense")
    assert validation == {k: v for k, v in dense.validation.items() if k != "method"}
    assert _close(modal.extremes, dense.extremes)
    assert len(modal.scenarios) == len(dense.scenarios)
    for got, want in zip(modal.scenarios, dense.scenarios):
        for key in ("precond", "intervals", "reference_intervals", "warnings", "error"):
            assert _close(got.get(key), want.get(key)), (got["name"], key)


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


class TestModalBoundInputs:
    """Validation, extremes, equivalence constants, eta and the reference
    ratio from the mode values, against the dense path's."""

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 24, 1 / 32])
    def test_against_the_dense_path(self, h, monkeypatch):
        # the dense run takes no spectrum: only what feeds the bounds is compared
        for i, (precond, context_beta) in enumerate(TestModalAgainstDense.CASES):
            system, context = _dist(h, context_beta)
            scenarios = SCENARIOS if i == 0 else ("prec-inexact",)
            modal = analyze(system, scenarios, precond=precond, context=context)
            assert modal.passed and set(_methods(modal).values()) == {"modal"}
            dense = _dense_report(monkeypatch, system, scenarios, cutoff=0,
                                  precond=precond, context=context)
            _same_bound_inputs(modal, dense)
            oracle = modal_mod.recognize(system, context)
            assert _close(oracle.reference_ratio(), context.reference_regularization_ratio())

    @pytest.mark.parametrize("precond", ["exact", "scaled:2", "drop-term"])
    @pytest.mark.parametrize("d_block", ["M", "K"])
    def test_every_block_nonzero(self, precond, d_block, monkeypatch):
        # D = 0.01 M, whose d / (b^2/a) is the same in every mode, and
        # D = 0.01 K, whose is not: a nonzero eta_d
        system, _ = _dist(1 / 16)
        d = 0.01 * (system.E if d_block == "M" else system.C)
        system = DoubleSaddleSystem(system.A, system.B, system.C, d, system.E)
        modal = analyze(system, SCENARIOS, precond=precond)
        dense = _dense_report(monkeypatch, system, SCENARIOS, cutoff=0, precond=precond)
        assert modal.scenarios[2]["precond"]["eta_d"] > 0
        _same_bound_inputs(modal, dense)

    def test_a_rank_deficient_coupling_gives_the_dense_verdicts(self, monkeypatch):
        # C = K - (k_11 / m_11) M: the mode value c_11 is zero up to round-off
        system, context = _dist(1 / 8)
        mass, stiffness = modal_mod._mode_values(7)
        system = DoubleSaddleSystem(system.A, system.B,
                                    system.C - stiffness[0] / mass[0] * system.E,
                                    system.D, system.E)
        assert modal_mod.recognize(system, context) is not None
        modal = analyze(system, SCENARIOS, precond="pearson-wathen", context=context)
        dense = _dense_report(monkeypatch, system, SCENARIOS, precond="pearson-wathen",
                              context=context)
        assert modal.validation["method"] == "modal"
        assert modal.validation["c_nullity_k"] == 1
        assert {k: v for k, v in modal.validation.items() if k != "method"} == {
            k: v for k, v in dense.validation.items() if k != "method"}
        assert _verdicts(modal) == _verdicts(dense)
        assert modal.scenarios[2]["precond"]["eta_e"] == "inf"

    def test_jacobi_keeps_modal_validation_and_a_dense_split(self, monkeypatch):
        system, context = _dist(1 / 8)
        modal = analyze(system, SCENARIOS, precond="jacobi", context=context)
        dense = _dense_report(monkeypatch, system, SCENARIOS, precond="jacobi",
                              context=context)
        assert modal.validation["method"] == "modal"
        assert _methods(modal)[("prec-inexact", "containment")] == "dense"
        _same_bound_inputs(modal, dense)
        assert _verdicts(modal) == _verdicts(dense)

    def test_a_failed_modal_validation_takes_the_dense_path(self):
        # A = -beta M is recognized but not definite: the dense validation
        # and its typed errors, as for any other system
        system, context = _dist(1 / 8)
        negative = DoubleSaddleSystem(-system.A, system.B, system.C, system.D, system.E)
        assert not modal_mod.recognize(negative, context).validation().ok
        report = analyze(negative, SCENARIOS, precond="pearson-wathen", context=context)
        assert report.validation["method"] == "dense" and not report.validation["ok"]
        errors = [entry.get("error") for entry in report.scenarios]
        assert errors[0].startswith("DefinitenessError: block extremes unavailable")
        assert errors[1] == "DefinitenessError: leading block is not positive definite"

    def test_a_context_of_the_wrong_shape_raises_for_every_strategy(self):
        system, _ = _dist(1 / 8)
        wrong = PoissonControlContext(np.eye(4), np.eye(4), BETA)
        (entry,) = analyze(system, ("prec-inexact",), precond="exact",
                           context=wrong).scenarios
        assert entry["error"].startswith(
            "StructuralError: context mass and stiffness must be 49 x 49")


def _verdicts(report) -> dict:
    """Every status, count and inertia of a report."""
    out = {}
    for entry in report.scenarios:
        for key in ("containment", "reference_containment"):
            if key in entry:
                out[entry["name"], key] = entry[key]["status"]
        if "spectrum_summary" in entry:
            summary = entry["spectrum_summary"]
            out[entry["name"], "summary"] = (summary["count"], summary["inertia"])
        out[entry["name"], "error"] = entry.get("error")
    return out


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


def test_recognized_pearson_wathen_analyze_makes_no_dense_call(monkeypatch):
    # no dense eigensolve, SVD, pencil, factor or split matrix, and no
    # dense copy of the system
    system, context = _dist(1 / 8)
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def run(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)

    for name in ("_eigvalsh", "_singular_values", "_pencil_eigvalsh", "_cho"):
        spy(spectral_mod, name)
    spy(precond_mod, "_eigvalsh")
    spy(report_mod, "split_preconditioned_matrix")
    spy(DoubleSaddleSystem, "dense")
    report = analyze(system, SCENARIOS, precond="pearson-wathen", context=context)
    assert report.passed and report.validation["method"] == "modal"
    assert set(_methods(report).values()) == {"modal"}
    assert calls == []


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

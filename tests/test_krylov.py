import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import saddlebounds.precond as precond_mod
import saddlebounds.report as report_mod
import saddlebounds.spectral as spectral_mod
from saddlebounds import (
    DoubleSaddleSystem,
    assemble,
    build_approx,
    build_exact,
    distributed_context,
    minres,
    poisson_distributed,
)
from saddlebounds.errors import DefinitenessError, ParameterError, StructuralError
from saddlebounds.precond import PreconditionerOperator, strategy_tuple
from saddlebounds.report import analyze, solve

from helpers import random_valid_system


def test_identity_converges_in_one_iteration():
    rng = np.random.default_rng(71)
    b = rng.standard_normal(12)
    result = minres(np.eye(12), None, b, rtol=1e-12)
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.solution, b, atol=1e-12)


def test_six_cluster_spectrum_converges_in_six():
    rng = np.random.default_rng(72)
    system, _ = random_valid_system(rng, 9, 6, 4, d_zero=True, e_zero=True)
    matrix = assemble(system).data
    op = build_exact(system)
    result = minres(matrix, op, np.ones(matrix.shape[0]), rtol=1e-10)
    assert result.converged
    assert result.iterations <= 6


def test_converged_solution_solves_system():
    rng = np.random.default_rng(73)
    system, _ = random_valid_system(rng, 8, 5, 3)
    matrix = assemble(system).data
    op = build_exact(system)
    b = rng.standard_normal(matrix.shape[0])
    result = minres(matrix, op, b, rtol=1e-10)
    assert result.converged
    relres = np.linalg.norm(matrix @ result.solution - b) / np.linalg.norm(b)
    assert relres <= 1e-8


def test_history_monotone_within_transients():
    rng = np.random.default_rng(74)
    system, _ = random_valid_system(rng, 8, 5, 3)
    matrix = assemble(system).data
    result = minres(matrix, None, rng.standard_normal(matrix.shape[0]), rtol=1e-10)
    history = result.residual_history
    for before, after in zip(history, history[1:]):
        assert after <= 1.1 * before


def test_maxit_reached_reports_not_converged():
    rng = np.random.default_rng(75)
    system, _ = random_valid_system(rng, 10, 6, 3)
    matrix = assemble(system).data
    result = minres(matrix, None, rng.standard_normal(matrix.shape[0]), rtol=1e-14, maxit=3)
    assert not result.converged
    assert result.iterations == 3
    assert len(result.residual_history) == 4


def test_indefinite_preconditioner_detected():
    blocks = (np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    # bypass the SPD factorization guard to emulate a broken preconditioner
    fake = object.__new__(PreconditionerOperator)
    object.__setattr__(fake, "blocks", blocks)
    object.__setattr__(fake, "strategy", ("user", "user", "user"))
    object.__setattr__(fake, "dims", (1, 1, 1))

    def bad_apply(v):
        return np.array([-v[0], v[1], v[2]])

    object.__setattr__(fake, "apply_inverse", bad_apply)
    system = DoubleSaddleSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], E=[[0.0]])
    matrix = assemble(system).data
    with pytest.raises(DefinitenessError):
        minres(matrix, fake, np.array([1.0, 0.0, 0.0]), rtol=1e-10)


def test_nonfinite_rhs_rejected():
    with pytest.raises(ParameterError):
        minres(np.eye(2), None, np.array([np.nan, 1.0]))


@pytest.mark.parametrize("rtol, maxit, message", [
    (np.nan, None, "rtol must be finite and positive"),
    (0.0, 10, "rtol must be finite and positive"),
    (1e-8, -1, "maxit must be non-negative"),
])
def test_bad_stopping_rule_rejected_before_any_build(rtol, maxit, message, monkeypatch):
    # one check serves minres and solve; solve runs it before K or the
    # preconditioner is built
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built before the stopping rule was checked")

    monkeypatch.setattr(report_mod, "assemble_csr", refuse)
    monkeypatch.setattr(report_mod, "build_approx", refuse)
    system, _ = random_valid_system(np.random.default_rng(80), 8, 6, 4)
    with pytest.raises(ParameterError, match=message):
        solve(system, "exact", rtol=rtol, maxit=maxit)
    with pytest.raises(ParameterError, match=message):
        minres(np.eye(3), None, np.ones(3), rtol=rtol, maxit=maxit)


@pytest.mark.parametrize("preconditioned", [False, True])
def test_nan_in_operator_stops_at_once(preconditioned):
    rng = np.random.default_rng(78)
    system, _ = random_valid_system(rng, 8, 6, 4)
    matrix = assemble(system).data
    matrix[3, 9] = np.nan
    op = build_exact(system) if preconditioned else None
    result = minres(matrix, op, np.ones(system.total), rtol=1e-10)
    assert result.breakdown == "non-finite"
    assert not result.converged
    assert result.iterations == 0
    assert len(result.residual_history) == 1
    assert np.all(np.isfinite(result.solution))


def test_overflowing_rhs_stops_at_once_without_a_warning():
    # 1e200^2 overflows the first inner product; under filterwarnings=error
    # a numpy overflow warning would raise before the documented exit
    result = minres(np.diag([1.0, 2.0, -3.0]), None, np.full(3, 1e200))
    assert result.breakdown == "non-finite"
    assert not result.converged
    assert result.iterations == 0
    assert result.residual_history == (np.inf,)


def test_eigenvector_rhs_is_a_lanczos_breakdown():
    # b spans an invariant subspace, so the next Lanczos vector is round-off;
    # rtol=1e-300 keeps the residual test from stopping first
    system, _ = random_valid_system(np.random.default_rng(81), 8, 6, 4)
    matrix = assemble(system).data
    values, vectors = np.linalg.eigh(matrix)
    result = minres(matrix, None, vectors[:, 3], rtol=1e-300)
    assert result.breakdown == "lanczos-breakdown"
    assert not result.converged
    assert result.iterations == 1
    assert np.allclose(result.solution, vectors[:, 3] / values[3], atol=1e-12)


def test_nonfinite_preconditioner_output_stops():
    rng = np.random.default_rng(79)
    system, _ = random_valid_system(rng, 8, 6, 4)
    calls = []

    def apply_inverse(v):
        # finite on the first three solves, then NaN
        calls.append(1)
        return v if len(calls) <= 3 else np.full_like(v, np.nan)

    fake = SimpleNamespace(apply_inverse=apply_inverse)
    result = minres(assemble(system).data, fake, np.ones(system.total), rtol=1e-14)
    assert result.breakdown == "non-finite"
    assert not result.converged
    assert result.iterations == 2
    assert len(result.residual_history) == 3


def test_zero_rhs_short_circuits():
    result = minres(np.eye(3), None, np.zeros(3))
    assert result.converged
    assert result.iterations == 0
    assert np.allclose(result.solution, 0.0)


class TestResidualReport:
    def test_single_iteration_two_rows(self):
        result = minres(np.eye(5), None, np.ones(5), rtol=1e-12)
        rows = result.relative_history
        assert len(rows) == 2
        assert rows[0] == 1.0

    def test_rows_match_history_length(self):
        rng = np.random.default_rng(76)
        system, _ = random_valid_system(rng, 7, 4, 2)
        matrix = assemble(system).data
        result = minres(matrix, None, rng.standard_normal(matrix.shape[0]), rtol=1e-9)
        rows = result.relative_history
        assert len(rows) == len(result.residual_history)
        assert rows[-1] == pytest.approx(
            result.residual_history[-1] / result.residual_history[0]
        )

    def test_non_converged_row_count(self):
        rng = np.random.default_rng(77)
        system, _ = random_valid_system(rng, 7, 4, 2)
        matrix = assemble(system).data
        result = minres(
            matrix, None, rng.standard_normal(matrix.shape[0]), rtol=1e-15, maxit=5
        )
        assert not result.converged
        assert len(result.relative_history) == 6


class TestSolveOnCsr:
    """``solve`` hands MINRES the assembled K in CSR form; its runs match
    MINRES on the dense K with the same preconditioner."""

    @pytest.fixture(scope="class")
    def problem(self):
        system, fem = poisson_distributed(2**-4, 1e-3)
        return system, distributed_context(fem, 1e-3)

    @staticmethod
    def _capture_minres(monkeypatch) -> list:
        runs = []

        def run(operator, *args, **kwargs):
            result = minres(operator, *args, **kwargs)
            runs.append((operator, result))
            return result

        monkeypatch.setattr(report_mod, "minres", run)
        return runs

    @staticmethod
    def _dense_run(system, context, precond):
        op = build_approx(system, strategy_tuple(precond), context=context)
        return minres(assemble(system).data, op, np.ones(system.total))

    @pytest.mark.parametrize("precond, iterations", [("exact", 16), ("pearson-wathen", 23)])
    def test_same_iterations_and_history_as_dense(
        self, problem, precond, iterations, monkeypatch
    ):
        system, context = problem
        runs = self._capture_minres(monkeypatch)
        data = solve(system, precond=precond, context=context)
        [(operator, _)] = runs
        assert isinstance(operator, sp.csr_array)
        dense = self._dense_run(system, context, precond)
        assert data["iterations"] == dense.iterations == iterations
        np.testing.assert_allclose(
            data["residual_history"], dense.residual_history, rtol=1e-10, atol=0
        )

    def test_jacobi_same_iterations_and_solution(self, problem, monkeypatch):
        # the jacobi history mid-run is roundoff-sensitive (it moves with the
        # BLAS thread count), so only the count and the solution are compared
        system, context = problem
        runs = self._capture_minres(monkeypatch)
        data = solve(system, precond="jacobi", context=context)
        [(_, result)] = runs
        dense = self._dense_run(system, context, "jacobi")
        assert data["iterations"] == dense.iterations == 129
        direct = np.linalg.solve(assemble(system).data, np.ones(system.total))
        error = np.linalg.norm(result.solution - direct) / np.linalg.norm(direct)
        assert error <= 1e-6

    def test_jacobi_solve_runs_no_dense_factor_or_solve(self, monkeypatch):
        # the Schur build (for diag(S1), diag(S2)) is the one place a jacobi
        # solve needs dense Cholesky factors; nothing else may use them
        rng = np.random.default_rng(79)
        system, _ = random_valid_system(rng, 9, 6, 4)
        dense_calls = []
        in_schur = [False]

        def counted(name, fn):
            def run(*args, **kwargs):
                if not in_schur[0]:
                    dense_calls.append(name)
                return fn(*args, **kwargs)
            return run

        for name in ("cho_factor", "cho_solve"):
            monkeypatch.setattr(sla, name, counted(name, getattr(sla, name)))
        schur = precond_mod.schur_complements

        def schur_only(*args):
            in_schur[0] = True
            try:
                return schur(*args)
            finally:
                in_schur[0] = False

        monkeypatch.setattr(precond_mod, "schur_complements", schur_only)
        runs = self._capture_minres(monkeypatch)
        data = solve(system, precond="jacobi", rtol=1e-10)
        [(operator, _)] = runs
        assert data["converged"]
        assert not isinstance(operator, np.ndarray)
        assert dense_calls == []

    @pytest.mark.parametrize("which", ["random", "poisson"])
    def test_csr_k_equals_the_converted_dense_assembly(self, which, problem, monkeypatch):
        if which == "random":
            system, _ = random_valid_system(np.random.default_rng(80), 9, 6, 4)
        else:
            system, _ = problem
        runs = self._capture_minres(monkeypatch)
        solve(system, precond="none", maxit=1)
        [(operator, _)] = runs
        reference = sp.csr_array(assemble(system).data)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(operator, part), getattr(reference, part))
        v = np.random.default_rng(81).standard_normal(system.total)
        assert np.array_equal(operator @ v, reference @ v)

    @pytest.mark.parametrize("precond, iterations", [
        ("exact", 16), ("pearson-wathen", 23), ("jacobi", 129),
    ])
    def test_sparse_blocks_match_the_fully_dense_path(
        self, problem, precond, iterations, monkeypatch
    ):
        # the same solve with every block, the context and K dense: the
        # path the sparse blocks replaced
        system, context = problem
        assert system.is_sparse and sp.issparse(context.mass)
        runs = self._capture_minres(monkeypatch)
        data = solve(system, precond=precond, context=context)
        [(_, result)] = runs
        dense_system = system.dense()
        dense_context = dataclasses.replace(
            context, mass=context.mass.toarray(), stiffness=context.stiffness.toarray())
        dense = self._dense_run(dense_system, dense_context, precond)
        assert data["iterations"] == dense.iterations == iterations
        if precond != "jacobi":  # see test_jacobi_same_iterations_and_solution
            np.testing.assert_allclose(
                data["residual_history"], dense.residual_history, rtol=1e-10, atol=0
            )
        error = np.linalg.norm(result.solution - dense.solution)
        assert error <= 1e-6 * np.linalg.norm(dense.solution)

    @pytest.mark.parametrize("precond, kinds", [
        ("exact", ("SuperLU", "_SchurFactor", "_SchurFactor")),
        ("pearson-wathen", ("SuperLU", "_SchurFactor", "_SquareCompletionFactor")),
        ("drop-term", ("SuperLU", "_SchurFactor", "SuperLU")),
        ("jacobi", ("ndarray", "ndarray", "ndarray")),
    ])
    def test_factor_kind_follows_the_block_type(self, problem, precond, kinds):
        # sparse blocks get sparse LU factors; S1 and S2 are applied through
        # LUs of K2 and K; diagonal blocks get sqrt(diag); the
        # square-completion tail is one LU of X
        system, context = problem
        op = build_approx(system, strategy_tuple(precond), context=context)
        assert tuple(type(f).__name__ for f in op._factors) == kinds
        v = np.random.default_rng(82).standard_normal(system.total)
        expected = np.linalg.solve(op.as_matrix(), v)
        np.testing.assert_allclose(op.apply_inverse(v), expected, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("make, label", [
        (lambda s: -s.A, "leading"),
        (lambda s: s.A - s.A.diagonal().max() * sp.eye_array(s.dims[0]), "leading"),
        (lambda s: sp.diags_array(np.r_[0.0, np.ones(s.dims[0] - 1)]), "leading"),
    ])
    @pytest.mark.parametrize("precond", ["exact", "jacobi"])
    def test_sparse_leading_block_not_definite_is_typed(self, problem, make, label, precond):
        system, context = problem
        bad = DoubleSaddleSystem(make(system), system.B, system.C, system.D, system.E)
        with pytest.raises(DefinitenessError, match=label):
            solve(bad, precond=precond, context=context)

    @pytest.mark.parametrize("scale", [-100.0, None])
    def test_square_completion_tail_not_definite_is_typed(self, problem, scale):
        # X = M + sqrt(beta) K indefinite (K scaled by -100) or zero
        system, context = problem
        stiffness = (scale * context.stiffness if scale is not None
                     else -context.mass / np.sqrt(context.beta))
        bad = dataclasses.replace(context, stiffness=stiffness)
        with pytest.raises(DefinitenessError, match="second-schur"):
            solve(system, precond="pearson-wathen", context=bad)

    @pytest.mark.parametrize("precond, schur, grams", [
        ("pearson-wathen", 0, 0), ("drop-term", 0, 0), ("exact", 0, 0),
        ("user", 0, 0), ("jacobi", 1, 1),
    ])
    def test_tail_gram_formed_only_when_the_tail_reads_s2(
        self, problem, precond, schur, grams, monkeypatch
    ):
        # on a sparse system only jacobi builds the dense Schur pair, for
        # diag(S1) and diag(S2): one Gram for S1 and none for the tail
        system, context = problem
        user_blocks = (system.A, -system.B / context.beta, system.E)
        calls = {"schur": 0, "gram": 0}

        def counted(key, fn):
            def run(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(spectral_mod, "_gram", counted("gram", spectral_mod._gram))
        monkeypatch.setattr(precond_mod, "schur_complements",
                            counted("schur", precond_mod.schur_complements))
        data = solve(system, precond=precond, context=context, user_blocks=user_blocks)
        assert data["converged"]
        assert calls == {"schur": schur, "gram": grams}


class TestSparseSchurCertificate:
    """On a sparse system an exact S1 or S2 is applied through a sparse LU
    of K2 or K, proved definite only when D (and E) is zero or SPD; a
    singular one is typed, and any other D takes the dense Schur pair."""

    @pytest.fixture(scope="class")
    def problem(self):
        system, fem = poisson_distributed(2**-3, 1e-3)
        return system, distributed_context(fem, 1e-3)

    @staticmethod
    def _duplicated_row(block):
        rows = np.r_[0, 0, np.arange(2, block.shape[0])]
        return sp.csr_array(block[rows])

    @pytest.mark.parametrize("precond", ["exact", "pearson-wathen"])
    def test_singular_first_schur_is_typed(self, problem, precond):
        system, context = problem
        bad = dataclasses.replace(system, B=self._duplicated_row(system.B))
        with pytest.raises(DefinitenessError, match="first-schur"):
            solve(bad, precond=precond, context=context)

    def test_singular_second_schur_is_typed(self, problem):
        system, _ = problem
        p = system.dims[2]
        bad = dataclasses.replace(system, C=self._duplicated_row(system.C),
                                  E=sp.csr_array((p, p)))
        with pytest.raises(DefinitenessError, match="second-schur"):
            solve(bad, precond="exact")

    @pytest.mark.parametrize("precond, iterations", [("exact", 21), ("pearson-wathen", 25)])
    def test_singular_semidefinite_d_takes_the_dense_pair(
        self, problem, precond, iterations, monkeypatch
    ):
        # D = e_0 e_0^T fails the certificate, so the sparse system solves
        # exactly as its dense copy does, through one dense Schur pair
        system, context = problem
        m = system.dims[1]
        d = sp.diags_array(np.r_[1.0, np.zeros(m - 1)], format="csr")
        regularized = dataclasses.replace(system, D=d)
        builds = []
        schur = precond_mod.schur_complements
        monkeypatch.setattr(precond_mod, "schur_complements",
                            lambda *args: builds.append(1) or schur(*args))
        data = solve(regularized, precond=precond, context=context)
        assert len(builds) == 1
        dense = solve(regularized.dense(), precond=precond, context=context)
        assert data["iterations"] == dense["iterations"] == iterations
        np.testing.assert_allclose(
            data["residual_history"], dense["residual_history"], rtol=1e-10, atol=0
        )

    def test_a_checked_when_the_leading_block_is_not_derived_from_it(self, problem):
        # the certificate needs A SPD; a user leading block does not show it
        system, _ = problem
        bad = dataclasses.replace(system, A=-system.A)
        user_blocks = (sp.eye_array(system.dims[0], format="csr"), None, None)
        with pytest.raises(DefinitenessError, match="leading"):
            build_approx(bad, ("user", "exact", "exact"), user_blocks=user_blocks)

    def test_scaled_blocks_divide_by_t(self, problem):
        system, _ = problem
        op = build_approx(system, strategy_tuple("scaled:2.5"))
        v = np.random.default_rng(83).standard_normal(system.total)
        expected = np.linalg.solve(op.as_matrix(), v)
        np.testing.assert_allclose(op.apply_inverse(v), expected, rtol=1e-8, atol=0)


class TestContextSize:
    """A context whose mass is not p x p is rejected before anything is
    factored, through ``solve`` and ``analyze``'s prec-inexact entry."""

    @pytest.fixture(scope="class")
    def mismatched(self):
        system, _ = poisson_distributed(2**-3, 1e-3)
        _, coarse = poisson_distributed(2**-2, 1e-3)
        return system, distributed_context(coarse, 1e-3)

    def test_solve(self, mismatched, monkeypatch):
        system, context = mismatched

        def no_factor(*args):
            raise AssertionError("factored before the context was checked")

        monkeypatch.setattr(precond_mod, "_factor", no_factor)
        monkeypatch.setattr(precond_mod, "schur_complements", no_factor)
        with pytest.raises(StructuralError, match="context mass and stiffness must be 49 x 49"):
            solve(system, precond="pearson-wathen", context=context)

    def test_analyze_prec_inexact_entry(self, mismatched):
        system, context = mismatched
        report = analyze(system, scenarios=("prec-inexact",),
                         precond="pearson-wathen", context=context)
        [entry] = report.scenarios
        assert entry["error"] == (
            "StructuralError: context mass and stiffness must be 49 x 49 to "
            "match block E, got (9, 9)")

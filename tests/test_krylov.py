import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
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
from saddlebounds.krylov import RESIDUAL_GAP
from saddlebounds.precond import PoissonControlContext, PreconditionerOperator, strategy_tuple
from saddlebounds.report import analyze, solve
from saddlebounds.system import assemble_csr

from helpers import random_valid_system, reference_minres


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


@pytest.mark.parametrize("operator", [
    np.eye(3), np.ones((2, 3)), sp.eye_array(3, format="csr"), np.eye(3).tolist(),
], ids=["square-3", "wide", "sparse-3", "list-3"])
def test_operator_of_the_wrong_shape_rejected(operator):
    # a typed error before the first matvec, not numpy's raw ValueError
    with pytest.raises(ParameterError, match="operator must be 2 x 2"):
        minres(operator, None, np.ones(2))


@pytest.mark.parametrize("rhs", [np.ones((3, 1)), 1.0], ids=["column", "scalar"])
def test_rhs_that_is_not_a_vector_rejected(rhs):
    with pytest.raises(ParameterError, match="right-hand side must be a 1-d vector"):
        minres(np.eye(3), None, rhs)


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


def test_overflowing_matvec_stops_without_a_warning():
    # the first product overflows inside the operator itself: the whole run
    # is one errstate scope, so the next inner product ends it
    operator = np.array([[1.5e308, 1.5e308, 0.0], [1.5e308, 1.0, 0.0], [0.0, 0.0, -1.0]])
    result = minres(operator, None, np.array([1.0, 1.0, 0.0]))
    assert result.stop == "breakdown:non-finite"
    assert result.iterations == 0
    assert np.all(np.isfinite(result.solution))


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


class TestStopAndResidualGap:
    @pytest.mark.parametrize("case, stop", [
        ("identity", "rtol"), ("zero-rhs", "rtol"), ("maxit", "maxit"),
        ("overflow", "breakdown:non-finite"), ("eigenvector", "breakdown:lanczos-breakdown"),
    ])
    def test_stop_says_why_minres_stopped(self, case, stop):
        system, _ = random_valid_system(np.random.default_rng(81), 8, 6, 4)
        matrix = assemble(system).data
        if case == "identity":
            result = minres(np.eye(4), None, np.ones(4))
        elif case == "zero-rhs":
            result = minres(np.eye(4), None, np.zeros(4))
        elif case == "maxit":
            result = minres(matrix, None, np.ones(system.total), rtol=1e-14, maxit=2)
        elif case == "overflow":
            result = minres(np.diag([1.0, 2.0, -3.0]), None, np.full(3, 1e200))
        else:
            result = minres(matrix, None, np.linalg.eigh(matrix)[1][:, 3], rtol=1e-300)
        assert result.stop == stop
        assert result.converged is (stop == "rtol")

    def test_solve_report_names_its_norm_and_stop(self):
        system, _ = random_valid_system(np.random.default_rng(82), 9, 6, 4)
        data = solve(system, precond="exact")
        assert (data["residual_norm"], data["stop"], data["converged"]) == ("P^-1", "rtol", True)
        assert data["warnings"] == []
        short = solve(system, precond="none", maxit=1)
        assert (short["stop"], short["converged"]) == ("maxit", False)

    def test_residual_gap_at_tiny_beta(self):
        # converged in the P^-1-norm, with a 2-norm residual about 0.18
        system, fem = poisson_distributed(2**-5, 1e-8)
        data = solve(system, precond="pearson-wathen",
                     context=distributed_context(fem, 1e-8))
        assert data["converged"] and data["stop"] == "rtol"
        [warning] = data["warnings"]
        assert warning == {"kind": "residual-gap",
                           "true_relative_residual": data["true_relative_residual"],
                           "limit": RESIDUAL_GAP * data["rtol"]}
        assert data["true_relative_residual"] > 1e-2


class TestPreallocatedLoop:
    """``minres`` updates preallocated vectors in place; with each operator
    and preconditioner built once, its runs equal bit for bit those of the
    allocating reference loop (``helpers.reference_minres``)."""

    PRECONDS = ("none", "jacobi", "exact", "scaled:0.5", "pearson-wathen")

    @pytest.fixture(scope="class", params=["dense-random", "poisson-dist"])
    def problem(self, request):
        if request.param == "poisson-dist":
            system, fem = poisson_distributed(2**-4, 1e-3)
            return system, distributed_context(fem, 1e-3), assemble_csr(system)
        system, _ = random_valid_system(np.random.default_rng(85), 14, 10, 6)
        p = system.dims[2]
        context = PoissonControlContext(np.eye(p), system.E + np.eye(p), 0.25)
        return system, context, assemble(system).data

    @pytest.mark.parametrize("precond", PRECONDS)
    def test_bitwise_equal_to_the_reference_loop(self, problem, precond):
        system, context, operator = problem
        op = None if precond == "none" else build_approx(
            system, strategy_tuple(precond), context=context)
        rhs = np.random.default_rng(86).standard_normal(system.total)
        for rtol, maxit in ((1e-10, None), (1e-14, 5)):
            result = minres(operator, op, rhs, rtol=rtol, maxit=maxit)
            reference = reference_minres(operator, op, rhs, rtol=rtol, maxit=maxit)
            assert result.residual_history == reference.residual_history
            assert np.array_equal(result.solution, reference.solution)
            assert (result.iterations, result.stop) == (reference.iterations, reference.stop)
        assert result.stop == "maxit"

    def test_callable_operator_returning_its_input(self):
        # the operator's result is only read: an identity that hands back
        # the vector it was given must not see it overwritten
        rhs = np.random.default_rng(87).standard_normal(6)
        result = minres(lambda v: v, None, rhs, rtol=1e-12)
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.solution, reference_minres(lambda v: v, None, rhs,
                                                                rtol=1e-12).solution)


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

    @pytest.mark.parametrize("precond, schur_sizes", [
        ("exact", ("n+m", "N")), ("pearson-wathen", ("n+m",)),
    ])
    def test_one_k_serves_the_solve_and_both_schur_lus(self, precond, schur_sizes, monkeypatch):
        # solve applies K, and S1 and S2 are applied through LUs of K2 and
        # K: one assembly serves all three, and both LUs order their
        # columns by minimum degree on K_k^T K_k
        system, fem = poisson_distributed(2**-3, 1e-3)
        context = distributed_context(fem, 1e-3)
        n, m, _ = system.dims
        sizes = {"n+m": n + m, "N": system.total}
        built, factored = [], []
        block_array = sp.block_array
        monkeypatch.setattr(sp, "block_array",
                            lambda *args, **kwargs: built.append(1)
                            or block_array(*args, **kwargs))
        splu = spectral_mod._splu

        def spy(matrix, label, **options):
            factored.append((matrix.shape, options.get("permc_spec")))
            return splu(matrix, label, **options)

        monkeypatch.setattr(spectral_mod, "_splu", spy)
        data = solve(system, precond=precond, context=context)
        assert data["converged"]
        assert len(built) == 1
        schur = [(shape, spec) for shape, spec in factored
                 if shape[0] in sizes.values()]
        assert schur == [((sizes[s], sizes[s]), "MMD_ATA") for s in schur_sizes]

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

    @pytest.mark.parametrize("which", ["random", "poisson"])
    def test_jacobi_solve_runs_no_dense_factor_or_solve(self, which, problem, monkeypatch):
        # the Schur build (for diag(S1), diag(S2)) is the one place a jacobi
        # solve needs dense Cholesky factors; nothing else may use them.  A
        # dense system builds the pair, a sparse one only the diagonals
        if which == "random":
            system, _ = random_valid_system(np.random.default_rng(79), 9, 6, 4)
        else:
            system, _ = problem
        dense_calls = []
        in_schur = [False]

        def counted(name, fn):
            def run(*args, **kwargs):
                if not in_schur[0]:
                    dense_calls.append(name)
                return fn(*args, **kwargs)
            return run

        # every dense Cholesky factor and solve goes through these two
        for name in ("_cho", "_cho_solve"):
            monkeypatch.setattr(spectral_mod, name, counted(name, getattr(spectral_mod, name)))

        def schur_only(schur):
            def run(*args, **kwargs):
                in_schur[0] = True
                try:
                    return schur(*args, **kwargs)
                finally:
                    in_schur[0] = False
            return run

        for name in ("schur_complements", "schur_diagonals"):
            monkeypatch.setattr(precond_mod, name, schur_only(getattr(precond_mod, name)))
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

    @pytest.mark.parametrize("precond, diagonals", [
        ("pearson-wathen", 0), ("drop-term", 0), ("exact", 0), ("user", 0), ("jacobi", 1),
    ])
    def test_tail_gram_formed_only_when_the_tail_reads_s2(
        self, problem, precond, diagonals, monkeypatch
    ):
        # on a sparse system no strategy builds the Schur pair; jacobi takes
        # diag(S1) and diag(S2) from schur_diagonals: one Gram for S1, from
        # the sparse LU of A, and none for the tail (the dense-factor helper
        # _gram is never called)
        system, context = problem
        user_blocks = (system.A, -system.B / context.beta, system.E)
        calls = {"schur": 0, "diagonals": 0, "sparse_gram": 0, "gram": 0}

        def counted(key, fn):
            def run(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return run

        for name in ("_gram", "_sparse_gram"):
            monkeypatch.setattr(spectral_mod, name,
                                counted(name[1:], getattr(spectral_mod, name)))
        monkeypatch.setattr(precond_mod, "schur_complements",
                            counted("schur", precond_mod.schur_complements))
        monkeypatch.setattr(precond_mod, "schur_diagonals",
                            counted("diagonals", precond_mod.schur_diagonals))
        data = solve(system, precond=precond, context=context, user_blocks=user_blocks)
        assert data["converged"]
        assert calls == {"schur": 0, "diagonals": diagonals,
                         "sparse_gram": diagonals, "gram": 0}


    @pytest.mark.parametrize("strategies, route", [
        (("jacobi", "jacobi", "jacobi"), "diagonals"),
        (("exact", "jacobi", "pearson-wathen"), "diagonals"),
        (("jacobi", "jacobi", "exact"), "pair"),
        (("jacobi", "scaled:2", "jacobi"), "pair"),
    ])
    def test_sparse_jacobi_keeps_the_pair_only_for_a_whole_schur_read(
        self, problem, strategies, route, monkeypatch
    ):
        # diagonals alone come from schur_diagonals, whose factor of A an
        # exact leading block reuses; a whole S1 or S2 needs the pair
        system, context = problem
        built = []

        def recorded(key, fn):
            def run(*args, **kwargs):
                built.append((key, fn(*args, **kwargs)))
                return built[-1][1]
            return run

        for name, key in (("schur_complements", "pair"), ("schur_diagonals", "diagonals")):
            monkeypatch.setattr(precond_mod, name, recorded(key, getattr(precond_mod, name)))
        op = build_approx(system, strategies, context=context)
        [(key, result)] = built
        assert key == route
        if route == "diagonals" and strategies[0] == "exact":
            assert op._factors[0] is result[0]
        v = np.random.default_rng(84).standard_normal(system.total)
        expected = np.linalg.solve(op.as_matrix(), v)
        np.testing.assert_allclose(op.apply_inverse(v), expected, rtol=1e-8, atol=0)


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

    def test_fallback_reuses_the_pairs_sparse_factor_of_a(self, problem, monkeypatch):
        # an exact leading block on the fallback path applies the pair's
        # sparse LU of A, not a second one
        system, _ = problem
        m = system.dims[1]
        d = sp.diags_array(np.r_[1.0, np.zeros(m - 1)], format="csr")
        regularized = dataclasses.replace(system, D=d)
        pairs = []
        schur = precond_mod.schur_complements
        monkeypatch.setattr(precond_mod, "schur_complements",
                            lambda *args: pairs.append(schur(*args)) or pairs[-1])
        factored = []
        spd_factor = precond_mod.sparse_spd_factor
        monkeypatch.setattr(precond_mod, "sparse_spd_factor",
                            lambda block, label: factored.append(label)
                            or spd_factor(block, label))
        op = build_approx(regularized, strategy_tuple("exact"))
        [pair] = pairs
        assert op._factors[0] is pair.factor_a
        assert "leading" not in factored

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

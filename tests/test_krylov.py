from types import SimpleNamespace

import numpy as np
import pytest

from saddlebounds import (
    DoubleSaddleSystem,
    assemble,
    build_exact,
    minres,
    residual_report,
)
from saddlebounds.errors import DefinitenessError, ParameterError
from saddlebounds.precond import PreconditionerOperator

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
        rows = residual_report(result)
        assert len(rows) == 2
        assert rows[0] == (0, 1.0)

    def test_rows_match_history_length(self):
        rng = np.random.default_rng(76)
        system, _ = random_valid_system(rng, 7, 4, 2)
        matrix = assemble(system).data
        result = minres(matrix, None, rng.standard_normal(matrix.shape[0]), rtol=1e-9)
        rows = residual_report(result)
        assert len(rows) == len(result.residual_history)
        assert rows[-1][1] == pytest.approx(
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
        assert len(residual_report(result)) == 6

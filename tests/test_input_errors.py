"""Each input check raises its own error type with its own message.

One test per check that no other test reaches: the type and the whole
message are asserted, so a check that stops firing, or fires with another
error, fails here.
"""

import json
import re

import numpy as np
import pytest

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    EquivalenceConstants,
    bounds_precond_exact,
    bounds_precond_inexact,
    build_approx,
    equivalence_constants,
    load_problem,
    minres,
    random_system,
)
from saddlebounds.cli import DEFAULT_RANDOM_EXTREMES, main
from saddlebounds.errors import (
    DefinitenessError,
    ParameterError,
    StrategyMismatchError,
    StructuralError,
)
from saddlebounds.io import load_spd_blocks
from saddlebounds.precond import from_blocks
from saddlebounds.report import analyze

from helpers import random_valid_system


def _raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def _system():
    system, _ = random_valid_system(np.random.default_rng(7), 6, 4, 2)
    return system


class TestBuildApprox:
    def test_two_strategies(self):
        with _raises(ParameterError, "need exactly three per-block strategies"):
            build_approx(_system(), ("exact", "exact"))

    @pytest.mark.parametrize("strategy", ["pearson-wathen", "drop-term"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_tail_strategy_outside_the_tail(self, strategy, position):
        strategies = ["exact"] * 3
        strategies[position] = strategy
        with _raises(StrategyMismatchError,
                     f"the {strategy} strategy only applies to the tail block"):
            build_approx(_system(), strategies)

    @pytest.mark.parametrize("user_blocks", [None, [np.eye(6), None, np.eye(2)]])
    def test_user_without_a_block_for_a_position(self, user_blocks):
        position = 0 if user_blocks is None else 1
        with _raises(ParameterError, f"no user block supplied for position {position}"):
            build_approx(_system(), ("user",) * 3, user_blocks=user_blocks)

    def test_unknown_block_strategy(self):
        with _raises(ParameterError, "unknown strategy 'cholesky'"):
            build_approx(_system(), ("exact", "cholesky", "exact"))

    def test_from_blocks_with_two_blocks(self):
        with _raises(ParameterError, "need exactly three blocks"):
            from_blocks([np.eye(6), np.eye(4)], (6, 4, 2))


class TestEquivalenceConstants:
    def test_mismatched_shapes(self):
        with _raises(ParameterError, "shape mismatch: (3, 3) vs (2, 2)"):
            equivalence_constants(np.eye(3), np.eye(2))

    def test_exact_block_not_positive_definite(self):
        with _raises(DefinitenessError, "exact block is not positive definite"):
            equivalence_constants(np.diag([1.0, -1.0]), np.eye(2))


class TestManifests:
    @staticmethod
    def _write(tmp_path, manifest):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(manifest))
        return path

    @staticmethod
    def _inline():
        system = _system()
        return {"schema": 1, "format": "inline",
                "blocks": {key: getattr(system, key).tolist() for key in "ABCDE"}}

    def test_schema_2(self, tmp_path):
        manifest = dict(self._inline(), schema=2)
        with _raises(StructuralError, "unsupported manifest schema 2"):
            load_problem(self._write(tmp_path, manifest))

    def test_format_hdf5(self, tmp_path):
        manifest = dict(self._inline(), format="hdf5")
        with _raises(StructuralError, "unknown manifest format 'hdf5'"):
            load_problem(self._write(tmp_path, manifest))

    def test_user_block_manifest_with_two_blocks(self, tmp_path):
        path = self._write(tmp_path, {"blocks": [[[1.0]], [[1.0]]]})
        with _raises(StructuralError, "preconditioner manifest needs exactly 3 blocks"):
            load_spd_blocks(path)


class TestBlockShapes:
    @staticmethod
    def _blocks(**changed):
        blocks = {"A": np.eye(3), "B": np.eye(2, 3), "C": np.eye(1, 2),
                  "D": np.zeros((2, 2)), "E": np.zeros((1, 1))}
        return DoubleSaddleSystem(**{**blocks, **changed})

    def test_non_square_a(self):
        with _raises(StructuralError, "block A must be square, got (3, 2)"):
            self._blocks(A=np.ones((3, 2)))

    def test_wrongly_shaped_b(self):
        with _raises(StructuralError, "block B must have shape (m, 3) to match A, got (2, 4)"):
            self._blocks(B=np.eye(2, 4))

    def test_wrongly_shaped_d(self):
        with _raises(StructuralError, "block D must have shape (2, 2) to match B, got (3, 3)"):
            self._blocks(D=np.eye(3))

    def test_wrongly_shaped_e(self):
        with _raises(StructuralError, "block E must have shape (1, 1) to match C, got (2, 2)"):
            self._blocks(E=np.eye(2))


class TestBlockExtremes:
    def test_negative_regularization_minimum(self):
        with _raises(ParameterError, "regularization blocks must be positive semidefinite"):
            BlockExtremes(1.0, 2.0, 0.5, 1.0, 0.5, 1.0, -0.1, 1.0, 0.0, 1.0)

    def test_negative_singular_value(self):
        with _raises(ParameterError, "singular values cannot be negative"):
            BlockExtremes(1.0, 2.0, 0.5, 1.0, -0.5, 1.0, 0.0, 1.0, 0.0, 1.0)


class TestBounds:
    def test_exact_bounds_with_m_above_n(self):
        with _raises(ParameterError, "dims must satisfy n >= m >= p >= 1, got (2, 3, 1)"):
            bounds_precond_exact((2, 3, 1), d_zero=False, e_zero=False)

    def test_inexact_bounds_with_a_vanishing_tail_and_nonzero_eta_e(self):
        consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with _raises(ParameterError, "eta_e must be zero when the tail block vanishes"):
            bounds_precond_inexact(consts, eta_e=0.5, e_zero=True)


class TestRandomSystem:
    def test_n_below_m(self):
        with _raises(ParameterError, "dims must satisfy n >= m >= p >= 1, got (2, 3, 1)"):
            random_system(2, 3, 1, 0, DEFAULT_RANDOM_EXTREMES)

    def test_one_dimensional_block_with_two_distinct_extremes(self, capsys):
        message = "a one-dimensional block cannot attain two distinct extremes"
        with _raises(ParameterError, message):
            random_system(1, 1, 1, 0, DEFAULT_RANDOM_EXTREMES)
        assert main(["analyze", "--problem", "random", "--dims", "1,1,1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class _TurnsIndefinite:
    """P^-1 = I on the first application and -I on every later one."""

    def __init__(self):
        self.calls = 0

    def apply_inverse(self, vector):
        self.calls += 1
        return vector if self.calls == 1 else -vector


def test_minres_preconditioner_indefinite_after_the_first_step():
    # P passes the check on b; the next residual shows it indefinite
    preconditioner = _TurnsIndefinite()
    with _raises(DefinitenessError, "preconditioner is not positive definite"):
        minres(np.diag([1.0, 2.0, 3.0]), preconditioner, np.ones(3))
    assert preconditioner.calls == 2


def test_analyze_unknown_scenario():
    with _raises(ParameterError, "unknown scenario 'prec-jacobi'"):
        analyze(_system(), ("unprec", "prec-jacobi"))

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import saddlebounds.precond as precond_mod
import saddlebounds.spectral as spectral_mod
from saddlebounds import (
    DoubleSaddleSystem,
    assemble,
    bounds_precond_exact,
    build_approx,
    build_exact,
    distributed_context,
    equivalence_constants,
    full_spectrum,
    inertia,
    poisson_boundary,
    poisson_distributed,
    schur_complements,
    split_preconditioned_matrix,
    verify_containment,
)
from saddlebounds.errors import (
    DefinitenessError,
    OracleSizeError,
    ParameterError,
    StrategyMismatchError,
    StructuralError,
)
from saddlebounds.bounds import Interval
from saddlebounds.precond import PoissonControlContext, strategy_tuple
from saddlebounds.problems import haar_orthogonal
from saddlebounds.report import analyze, intervals_from_dict

from helpers import generalized_spectrum, measured_etas, random_valid_system


def identity_system(n=3):
    eye = np.eye(n)
    return DoubleSaddleSystem(A=eye, B=eye, C=eye, D=np.zeros((n, n)), E=np.zeros((n, n)))


class TestBuildExact:
    def test_identity_blocks(self):
        op = build_exact(identity_system())
        for block in op.blocks:
            assert np.allclose(block, np.eye(3), atol=1e-14)

    def test_distributed_control_blocks(self):
        h, beta = 2**-3, 1e-3
        system, fem = poisson_distributed(h, beta)
        op = build_exact(system)
        m = fem.mass_interior.toarray()
        k = fem.stiffness_interior.toarray()
        assert np.allclose(op.blocks[0].toarray(), beta * m, atol=1e-14)
        assert np.allclose(op.blocks[1].toarray(), m / beta, atol=1e-9)
        expected_tail = m + beta * k @ np.linalg.solve(m, k)
        assert np.allclose(op.blocks[2].toarray(), expected_tail, atol=1e-11)

    def test_boundary_control_blocks(self):
        system = poisson_boundary(2**-3, 1e-2)
        op = build_exact(system)
        dense = system.dense()
        a, b, c, e = dense.A, dense.B, dense.C, dense.E
        s1 = b @ np.linalg.solve(a, b.T)
        assert np.allclose(op.blocks[1].toarray(), s1, atol=1e-10)
        s2 = e + c @ np.linalg.solve(s1, c.T)
        assert np.allclose(op.blocks[2].toarray(), s2, atol=1e-10)

    def test_reused_factors_are_bitwise_fresh_factors(self):
        rng = np.random.default_rng(50)
        system, _ = random_valid_system(rng, 6, 4, 2)
        for op in (build_exact(system), build_approx(system, ("exact",) * 3)):
            for block, upper in zip(op.blocks, op._factors):
                fresh, fresh_lower = sla.cho_factor(block)
                assert fresh_lower is False
                assert np.array_equal(np.triu(upper), np.triu(fresh))

    def test_indefinite_system_rejected(self):
        system = DoubleSaddleSystem(
            A=-np.eye(2), B=np.eye(2), C=np.eye(2),
            D=np.zeros((2, 2)), E=np.zeros((2, 2)),
        )
        with pytest.raises(DefinitenessError, match="leading"):
            build_exact(system)


class TestBuildApprox:
    def test_exact_strategy_matches_build_exact(self):
        rng = np.random.default_rng(51)
        system, _ = random_valid_system(rng, 6, 4, 2)
        direct = build_exact(system)
        viastrat = build_approx(system, ("exact", "exact", "exact"))
        v = rng.standard_normal(system.total)
        assert np.allclose(direct.apply_inverse(v), viastrat.apply_inverse(v), atol=1e-12)

    def test_jacobi_blocks_are_diagonals(self):
        rng = np.random.default_rng(52)
        system, _ = random_valid_system(rng, 6, 4, 2)
        op = build_approx(system, ("jacobi", "jacobi", "jacobi"))
        exact = build_exact(system)
        for approx, full in zip(op.blocks, exact.blocks):
            assert np.allclose(approx, np.diag(np.diag(full)))

    def test_jacobi_factors_are_square_roots_of_the_diagonal(self):
        rng = np.random.default_rng(52)
        system, _ = random_valid_system(rng, 6, 4, 2)
        op = build_approx(system, ("jacobi", "jacobi", "jacobi"))
        wrapped = precond_mod.from_blocks(op.blocks, system.dims)
        for ops in (op, wrapped):
            for block, factor in zip(ops.blocks, ops._factors):
                assert factor.ndim == 1
                assert np.allclose(factor, np.sqrt(np.diag(block)))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("position, label", list(enumerate(
        ("leading", "first-schur", "second-schur")
    )))
    def test_jacobi_rejects_non_positive_diagonal(
        self, position, label, value, monkeypatch
    ):
        # the Schur build would reject a non-definite A or S1 before the
        # jacobi factor is formed, so the blocks are planted in its result
        rng = np.random.default_rng(67)
        system, _ = random_valid_system(rng, 6, 4, 2)
        pair = schur_complements(system)
        blocks = [system.A.copy(), pair.s1.copy(), pair.s2.copy()]
        blocks[position][1, 1] = value
        system = dataclasses.replace(system, A=blocks[0])
        pair = dataclasses.replace(pair, s1=blocks[1])
        # S2 and diag(S2) are formed on first read: fill their caches
        vars(pair)["s2"] = blocks[2]
        vars(pair)["s2_diagonal"] = np.diagonal(blocks[2]).copy()
        monkeypatch.setattr(precond_mod, "schur_complements", lambda _: pair)
        strategies = ["exact"] * 3
        strategies[position] = "jacobi"
        with pytest.raises(DefinitenessError, match=label):
            build_approx(system, tuple(strategies))

    def test_non_finite_user_block_rejected(self):
        rng = np.random.default_rng(68)
        system, _ = random_valid_system(rng, 6, 4, 2)
        user = [b.copy() for b in build_exact(system).blocks]
        user[2][0, 0] = np.inf
        with pytest.raises(StructuralError, match="user block 2 has non-finite"):
            build_approx(system, ("user", "user", "user"), user_blocks=user)

    @pytest.mark.parametrize("wrap", ["build_approx", "from_blocks"])
    @pytest.mark.parametrize("defect, message", [
        ("asymmetric", "user block 0 is not symmetric"),
        ("short", r"user block 0 must be 6 x 6, got \(5, 5\)"),
    ])
    def test_bad_user_block_rejected(self, wrap, defect, message):
        rng = np.random.default_rng(69)
        system, _ = random_valid_system(rng, 6, 4, 2)
        user = [b.copy() for b in build_exact(system).blocks]
        if defect == "asymmetric":
            user[0][0, 1] += 1e-3 * np.abs(user[0]).max()
        else:
            user[0] = user[0][:-1, :-1]
        with pytest.raises(StructuralError, match=message):
            if wrap == "build_approx":
                build_approx(system, ("user", "user", "user"), user_blocks=user)
            else:
                precond_mod.from_blocks(user, system.dims)

    def test_square_completion_tail_block(self):
        h, beta = 2**-3, 1e-3
        system, fem = poisson_distributed(h, beta)
        ctx = distributed_context(fem, beta)
        op = build_approx(system, ("exact", "exact", "pearson-wathen"), context=ctx)
        m = fem.mass_interior.toarray()
        k = fem.stiffness_interior.toarray()
        shifted = m + np.sqrt(beta) * k
        expected = shifted @ np.linalg.solve(m, shifted)
        assert np.allclose(op.blocks[2].toarray(), expected, atol=1e-10)

    def test_square_completion_needs_context(self):
        rng = np.random.default_rng(53)
        system, _ = random_valid_system(rng, 5, 4, 3)
        with pytest.raises(StrategyMismatchError):
            build_approx(system, ("exact", "exact", "pearson-wathen"))

    def test_drop_term_keeps_tail_block(self):
        system = poisson_boundary(2**-3, 1e-2)
        op = build_approx(system, ("exact", "exact", "drop-term"))
        assert np.allclose(op.blocks[2].toarray(), system.E.toarray())

    def test_drop_term_rejects_singular_tail(self):
        rng = np.random.default_rng(54)
        system, _ = random_valid_system(rng, 5, 4, 3, e_zero=True)
        with pytest.raises(DefinitenessError, match="second-schur"):
            build_approx(system, ("exact", "exact", "drop-term"))

    def test_scaled_strategy(self):
        rng = np.random.default_rng(55)
        system, _ = random_valid_system(rng, 5, 4, 2)
        op = build_approx(system, ("scaled:2.0", "exact", "exact"))
        exact = build_exact(system)
        assert np.allclose(op.blocks[0], 2.0 * exact.blocks[0])


class TestPoissonControlContext:
    @staticmethod
    def _fem(h=2**-3, beta=1e-3):
        system, fem = poisson_distributed(h, beta)
        return system, fem.mass_interior.toarray(), fem.stiffness_interior.toarray()

    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0, np.inf])
    def test_beta_must_be_finite_and_positive(self, beta):
        _, mass, stiffness = self._fem()
        with pytest.raises(ParameterError, match="beta must be finite and positive"):
            PoissonControlContext(mass, stiffness, beta)

    def test_matrices_must_share_one_square_shape(self):
        _, mass, stiffness = self._fem()
        for bad, message in [
            ({"mass": mass[:, :-1]}, r"mass matrix must be 49 x 49, got \(49, 48\)"),
            ({"stiffness": stiffness[:-1, :-1]}, r"stiffness matrix must be 49 x 49"),
        ]:
            with pytest.raises(StructuralError, match=message):
                PoissonControlContext(**{"mass": mass, "stiffness": stiffness, **bad},
                                      beta=1e-3)

    def test_indefinite_mass_is_a_definiteness_error(self):
        system, mass, stiffness = self._fem()
        mass[0, 0] = -mass[0, 0]
        context = PoissonControlContext(mass, stiffness, 1e-3)
        report = analyze(system, scenarios=("prec-inexact",), precond="pearson-wathen",
                         context=context)
        [entry] = report.scenarios
        assert entry["error"].startswith("DefinitenessError")
        with pytest.raises(DefinitenessError, match="mass"):
            context.reference_regularization_ratio()

    def test_reference_ratio_is_the_top_of_the_gram_pencil(self):
        # beta times the largest eigenvalue of (M, K M^-1 K), the ratio's
        # definition, formed here without the eigenvalues of (K, M)
        beta = 1e-3
        _, mass, stiffness = self._fem(beta=beta)
        gram = stiffness @ np.linalg.solve(mass, stiffness)
        expected = beta * generalized_spectrum(mass, (gram + gram.T) / 2)[-1]
        ratio = PoissonControlContext(mass, stiffness, beta).reference_regularization_ratio()
        assert ratio == pytest.approx(expected, rel=1e-10)
        zero = PoissonControlContext(mass, np.zeros_like(stiffness), beta)
        assert zero.reference_regularization_ratio() == np.inf

    def test_square_completion_block_is_exactly_symmetric(self):
        _, mass, stiffness = self._fem()
        block = PoissonControlContext(mass, stiffness, 1e-3).square_completion_block()
        assert np.array_equal(block, block.T)


class TestApplyInverse:
    def test_identity_blocks_leave_vector_unchanged(self):
        op = build_exact(identity_system())
        v = np.arange(9.0)
        assert np.allclose(op.apply_inverse(v), v, atol=1e-14)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(56)
        system, _ = random_valid_system(rng, 7, 5, 3)
        op = build_exact(system)
        w = rng.standard_normal(system.total)
        v = op.as_matrix() @ w
        assert np.allclose(op.apply_inverse(v), w, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("strategies", [
        ("jacobi", "jacobi", "jacobi"), ("jacobi", "exact", "jacobi"),
    ])
    def test_matches_dense_solve_with_diagonal_factors(self, strategies):
        rng = np.random.default_rng(69)
        system, _ = random_valid_system(rng, 7, 5, 3)
        op = build_approx(system, strategies)
        v = rng.standard_normal(system.total)
        expected = np.linalg.solve(op.as_matrix(), v)
        np.testing.assert_allclose(op.apply_inverse(v), expected, rtol=1e-12, atol=0)

    def test_scalar_blocks_divide_componentwise(self):
        system = DoubleSaddleSystem(
            A=[[4.0]], B=[[2.0]], C=[[1.0]], D=[[0.0]], E=[[0.0]]
        )
        op = build_exact(system)
        # blocks are (4, s1, s2) = (4, 1, 1)
        out = op.apply_inverse(np.array([8.0, 3.0, 5.0]))
        assert np.allclose(out, [2.0, 3.0, 5.0])

    def test_length_mismatch_rejected(self):
        op = build_exact(identity_system())
        with pytest.raises(ParameterError):
            op.apply_inverse(np.ones(4))


class TestSplitPreconditioned:
    def test_identity_system_has_six_reference_values(self):
        system = identity_system(4)
        op = build_exact(system)
        split = split_preconditioned_matrix(system, op)
        values = full_spectrum(split)
        iv = bounds_precond_exact(system.dims, d_zero=True, e_zero=True)
        assert verify_containment(values, iv, tol=1e-9).passed

    def test_leading_block_is_congruent_leading_block(self):
        rng = np.random.default_rng(57)
        system, _ = random_valid_system(rng, 6, 4, 2)
        op = build_approx(system, ("jacobi", "exact", "exact"))
        split = split_preconditioned_matrix(system, op)
        n = 6
        root = sla.fractional_matrix_power(op.blocks[0], -0.5).real
        assert np.allclose(split[:n, :n], root @ system.A @ root, atol=1e-9)

    def test_spectrum_matches_generalized_oracle(self):
        rng = np.random.default_rng(58)
        system, _ = random_valid_system(rng, 6, 4, 3)
        op = build_approx(system, ("jacobi", "jacobi", "jacobi"))
        split = split_preconditioned_matrix(system, op)
        direct = full_spectrum(split)
        oracle = generalized_spectrum(assemble(system).data, op.as_matrix())
        assert np.allclose(direct, oracle, atol=1e-9)

    @pytest.mark.parametrize(
        "precond",
        ["exact", "jacobi", "scaled:0.5", "drop-term", "user", "pearson-wathen"],
    )
    def test_spectrum_matches_generalized_oracle_per_strategy(self, precond):
        h, beta = 2**-3, 1e-3
        system, fem = poisson_distributed(h, beta)
        context = distributed_context(fem, beta)
        # non-diagonal SPD user blocks, so the congruence is not a scaling
        user = [2.0 * b + np.diag(np.diag(b)) for b in build_exact(system.dense()).blocks]
        op = build_approx(
            system, strategy_tuple(precond), context=context, user_blocks=user
        )
        split = split_preconditioned_matrix(system, op)
        direct = full_spectrum(split)
        oracle = generalized_spectrum(assemble(system).data, op.as_matrix())
        assert np.allclose(direct, oracle, atol=1e-9)

    def test_refuses_oversize(self, monkeypatch):
        system, _ = random_valid_system(np.random.default_rng(60), 6, 4, 2)
        monkeypatch.setattr(spectral_mod, "ORACLE_CUTOFF", 11)
        with pytest.raises(OracleSizeError, match="split matrix refused"):
            split_preconditioned_matrix(system, build_exact(system))

    def test_dense_held_factors_are_not_redone(self, monkeypatch):
        # only the sparse LU of A is replaced by a dense factor; the held
        # sqrt(diag) vectors of the jacobi blocks are used as they are, and
        # the matrix equals the one from every block refactored densely
        system = poisson_boundary(2**-3, 1e-3)
        op = build_approx(system, ("exact", "jacobi", "jacobi"))
        assert [type(f).__name__ for f in op._factors] == ["SuperLU", "ndarray", "ndarray"]
        refactored = precond_mod.from_blocks(op.blocks, op.dims, op.strategy)
        reference = split_preconditioned_matrix(system, refactored)
        labels = []
        original = precond_mod._factor
        monkeypatch.setattr(precond_mod, "_factor",
                            lambda block, label: labels.append(label) or original(block, label))
        split = split_preconditioned_matrix(system, op)
        assert labels == ["leading"]
        assert np.array_equal(split, reference)

    def test_inertia_preserved_by_congruence(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            system, _ = random_valid_system(rng, 6, 4, 2)
            op = build_exact(system)
            split = split_preconditioned_matrix(system, op)
            assert inertia(split).astuple() == inertia(assemble(system).data).astuple()


class TestStrategyTuple:
    def test_named_strategies(self):
        assert strategy_tuple("jacobi") == ("jacobi",) * 3
        assert strategy_tuple("scaled:0.5") == ("scaled:0.5",) * 3
        assert strategy_tuple("pearson-wathen") == ("exact", "exact", "pearson-wathen")
        assert strategy_tuple("drop-term") == ("exact", "exact", "drop-term")

    @pytest.mark.parametrize(
        "name", ["scaled:abc", "scaled:-1", "scaled:0", "scaled:nan", "scaled:inf", "none"]
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(ParameterError):
            strategy_tuple(name)


class TestEquivalenceConstants:
    def test_exact_pair(self):
        rng = np.random.default_rng(61)
        system, _ = random_valid_system(rng, 5, 4, 2)
        block = build_exact(system).blocks[1]
        lo, hi = equivalence_constants(block, block)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_doubled_approximation_measures_half(self):
        rng = np.random.default_rng(62)
        system, _ = random_valid_system(rng, 5, 4, 2)
        block = build_exact(system).blocks[0]
        lo, hi = equivalence_constants(block, 2.0 * block)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_square_completion_interval_within_half_one(self):
        h, beta = 2**-4, 1e-3
        system, fem = poisson_distributed(h, beta)
        ctx = distributed_context(fem, beta)
        exact_tail = build_exact(system).blocks[2]
        lo, hi = equivalence_constants(exact_tail, ctx.square_completion_block())
        assert lo >= 0.5 - 1e-6
        assert hi <= 1.0 + 1e-6

    def test_identical_blocks_measure_exactly_one(self, monkeypatch):
        # an eigensolve would put the generalized eigenvalues of (S, S) a few
        # ulps off 1; identical blocks never reach it, nor does one block
        # passed as both with its held factor
        rng = np.random.default_rng(66)
        system, _ = random_valid_system(rng, 14, 9, 2)
        op = build_exact(system)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve called")

        # the one eigensolve equivalence_constants makes
        monkeypatch.setattr(precond_mod, "_eigvalsh", no_eigensolve)
        for block, factor in zip(op.blocks, op._factors):
            assert equivalence_constants(block, block.copy()) == Interval(1.0, 1.0)
            assert equivalence_constants(block, block, factor) == Interval(1.0, 1.0)
        blocks = op.blocks
        with pytest.raises(DefinitenessError):
            equivalence_constants(-blocks[0], -blocks[0])

    @pytest.mark.parametrize("strategy", ["jacobi", "scaled:0.5", "pearson-wathen"])
    def test_held_factor_matches_generalized_eigh(self, strategy):
        # scipy's eigh(exact, approx) was the route before the held factor
        if strategy == "pearson-wathen":
            system, fem = poisson_distributed(2**-3, 1e-2)
            system, context = system.dense(), distributed_context(fem, 1e-2)
        else:
            system, _ = random_valid_system(np.random.default_rng(67), 14, 9, 4)
            context = None
        exact = build_exact(system)
        approx = build_approx(system, strategy_tuple(strategy), context=context)
        for e, a, factor in zip(exact.blocks, approx.blocks, approx._factors):
            want = sla.eigh(e, a, eigvals_only=True)
            for held in (factor, None):
                raw = equivalence_constants(e, a, held)
                if np.array_equal(e, a):
                    assert raw == Interval(1.0, 1.0)
                    continue
                assert raw.lo == pytest.approx(want[0], rel=1e-12, abs=0)
                assert raw.hi == pytest.approx(want[-1], rel=1e-12, abs=0)

    def test_sparse_factor_is_replaced_by_a_dense_one(self):
        h, beta = 2**-3, 1e-2
        system, fem = poisson_distributed(h, beta)
        context = distributed_context(fem, beta)
        exact = build_exact(system)
        approx = build_approx(system, strategy_tuple("pearson-wathen"), context=context)
        assert not isinstance(approx._factors[2], (np.ndarray, tuple))
        with_sparse = equivalence_constants(exact.blocks[2], approx.blocks[2],
                                            approx._factors[2])
        assert with_sparse == equivalence_constants(exact.blocks[2], approx.blocks[2])

    def test_indefinite_approximation_rejected(self):
        with pytest.raises(DefinitenessError):
            equivalence_constants(np.eye(2), -np.eye(2))


def _congruent_user_blocks(rng, system, spread):
    """Each exact block X = L L^T (A, S1, S2) as s L Q diag(d) Q^T L^T: its
    equivalence interval is exactly 1 / (s d) over the draws d = spread(k)
    of a Haar Q and the scale s = 10^U(-6, 6)."""
    blocks = []
    for block in build_exact(system).blocks:
        k = block.shape[0]
        q = haar_orthogonal(rng, k)
        low = np.linalg.cholesky(block)
        user = 10.0 ** rng.uniform(-6, 6) * (low @ ((q * spread(k)) @ q.T) @ low.T)
        blocks.append((user + user.T) / 2)
    return blocks


class TestNearSingularApproximations:
    """Inexact containment for user blocks whose raw equivalence constants
    run from about 1e-9 to 1e9; the bounds are those of the blocks as built,
    checked against the spectrum the report carries."""

    @staticmethod
    def _inexact_entry(rng, spread):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, min(n, 8) + 1))
        p = int(rng.integers(2, min(m, 6) + 1))
        system, _ = random_valid_system(rng, n, m, p, d_zero=rng.random() < 0.25,
                                        e_zero=rng.random() < 0.25)
        blocks = _congruent_user_blocks(rng, system, spread)
        report = analyze(system, ("prec-inexact",), precond="user", user_blocks=blocks)
        return report.scenarios[0]

    def test_scaled_congruent_blocks_contain_their_spectrum(self):
        rng = np.random.default_rng(1701)
        for _ in range(300):
            entry = self._inexact_entry(rng, lambda k: 10.0 ** rng.uniform(-3, 3, k))
            bounds = intervals_from_dict(entry["intervals"])
            assert verify_containment(entry["spectrum"], bounds).passed, entry["precond"]

    def test_degenerate_envelope_contains_its_spectrum(self):
        # a 1e12 spread in every block puts the lower coupling value of the
        # envelope below RANK_TOL times the upper one
        rng = np.random.default_rng(1702)
        for _ in range(20):
            entry = self._inexact_entry(rng, lambda k: np.geomspace(1e-6, 1e6, k))
            bounds = intervals_from_dict(entry["intervals"])
            assert bounds.degenerate_interior
            assert verify_containment(entry["spectrum"], bounds).passed, entry["precond"]


class TestSpectralStructure:
    def test_counts_match_inertia_prediction(self):
        # m negative, p in (0,1), n-m at 1, m above 1
        rng = np.random.default_rng(63)
        for _ in range(5):
            system, _ = random_valid_system(rng, 7, 5, 3)
            op = build_exact(system)
            values = full_spectrum(split_preconditioned_matrix(system, op))
            n, m, p = system.dims
            at_one = np.isclose(values, 1.0, atol=1e-8)
            assert int((values < 0).sum()) == m
            assert int(at_one.sum()) == n - m
            assert int(((values > 0) & (values < 1) & ~at_one).sum()) == p
            assert int(((values > 1) & ~at_one).sum()) == m

    def test_sum_splitting_eigenvalues_in_unit_interval(self):
        # (M + N)^-1 M has spectrum inside [0, 1] for PSD M, N with M + N PD
        rng = np.random.default_rng(64)
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            x = rng.standard_normal((dim, dim + 2))
            y = rng.standard_normal((dim, dim + 2))
            m = x @ x.T
            nmat = y @ y.T
            vals = generalized_spectrum(m, m + nmat)
            assert vals[0] >= -1e-12
            assert vals[-1] <= 1.0 + 1e-12

    def test_split_block_envelopes(self):
        # each block of the split matrix obeys its equivalence envelope
        rng = np.random.default_rng(65)
        system, _ = random_valid_system(rng, 7, 5, 3)
        n, m, p = system.dims
        exact = build_exact(system)
        approx = build_approx(system, ("jacobi", "jacobi", "jacobi"))
        meas = [
            equivalence_constants(eb, ab)
            for eb, ab in zip(exact.blocks, approx.blocks)
        ]
        eta_d, eta_e = measured_etas(system)
        split = split_preconditioned_matrix(system, approx)
        lead = split[:n, :n]
        mid_coupling = split[n:n + m, :n]
        tail_coupling = split[n + m:, n:n + m]
        mid_reg = -split[n:n + m, n:n + m]
        tail_reg = split[n + m:, n + m:]

        a0, b0 = meas[0]
        a1, b1 = meas[1]
        a2, b2 = meas[2]
        lead_vals = np.linalg.eigvalsh(lead)
        assert lead_vals[0] >= a0 - 1e-9 and lead_vals[-1] <= b0 + 1e-9

        sv_mid = np.linalg.svd(mid_coupling, compute_uv=False)
        assert sv_mid[0] <= np.sqrt(b0 * b1) + 1e-9
        assert sv_mid[-1] >= np.sqrt(a0 * a1 / (1.0 + eta_d)) - 1e-9

        sv_tail = np.linalg.svd(tail_coupling, compute_uv=False)
        assert sv_tail[0] <= np.sqrt(b1 * b2) + 1e-9
        assert sv_tail[-1] >= np.sqrt(a1 * a2 / (1.0 + eta_e)) - 1e-9

        mid_vals = np.linalg.eigvalsh(mid_reg)
        assert mid_vals[0] >= -1e-9 and mid_vals[-1] <= b1 + 1e-9
        tail_vals = np.linalg.eigvalsh(tail_reg)
        assert tail_vals[0] >= -1e-9 and tail_vals[-1] <= b2 + 1e-9

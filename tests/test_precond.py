import numpy as np
import pytest
import scipy.linalg as sla

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
from saddlebounds.errors import DefinitenessError, ParameterError, StrategyMismatchError
from saddlebounds.precond import strategy_tuple

from helpers import generalized_spectrum, random_valid_system


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
        m = fem.mass_interior
        k = fem.stiffness_interior
        assert np.allclose(op.blocks[0], beta * m, atol=1e-14)
        assert np.allclose(op.blocks[1], m / beta, atol=1e-9)
        expected_tail = m + beta * k @ np.linalg.solve(m, k)
        assert np.allclose(op.blocks[2], expected_tail, atol=1e-11)

    def test_boundary_control_blocks(self):
        system = poisson_boundary(2**-3, 1e-2)
        op = build_exact(system)
        a, b, c, e = system.A, system.B, system.C, system.E
        s1 = b @ np.linalg.solve(a, b.T)
        assert np.allclose(op.blocks[1], s1, atol=1e-10)
        s2 = e + c @ np.linalg.solve(s1, c.T)
        assert np.allclose(op.blocks[2], s2, atol=1e-10)

    def test_reused_factors_are_bitwise_fresh_factors(self):
        rng = np.random.default_rng(50)
        system, _ = random_valid_system(rng, 6, 4, 2)
        for op in (build_exact(system), build_approx(system, ("exact",) * 3)):
            for block, (c, lower) in zip(op.blocks, op._factors):
                fresh, fresh_lower = sla.cho_factor(block)
                assert lower == fresh_lower
                assert np.array_equal(np.triu(c), np.triu(fresh))

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

    def test_square_completion_tail_block(self):
        h, beta = 2**-3, 1e-3
        system, fem = poisson_distributed(h, beta)
        ctx = distributed_context(fem, beta)
        op = build_approx(system, ("exact", "exact", "pearson-wathen"), context=ctx)
        m = fem.mass_interior
        k = fem.stiffness_interior
        shifted = m + np.sqrt(beta) * k
        expected = shifted @ np.linalg.solve(m, shifted)
        assert np.allclose(op.blocks[2], expected, atol=1e-10)

    def test_square_completion_needs_context(self):
        rng = np.random.default_rng(53)
        system, _ = random_valid_system(rng, 5, 4, 3)
        with pytest.raises(StrategyMismatchError):
            build_approx(system, ("exact", "exact", "pearson-wathen"))

    def test_drop_term_keeps_tail_block(self):
        system = poisson_boundary(2**-3, 1e-2)
        op = build_approx(system, ("exact", "exact", "drop-term"))
        assert np.allclose(op.blocks[2], system.E)

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
        user = [2.0 * b + np.diag(np.diag(b)) for b in build_exact(system).blocks]
        op = build_approx(
            system, strategy_tuple(precond), context=context, user_blocks=user
        )
        split = split_preconditioned_matrix(system, op)
        direct = full_spectrum(split)
        oracle = generalized_spectrum(assemble(system).data, op.as_matrix())
        assert np.allclose(direct, oracle, atol=1e-9)

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
        meas = equivalence_constants(block, block)
        assert meas.alpha == pytest.approx(1.0, abs=1e-12)
        assert meas.beta == pytest.approx(1.0, abs=1e-12)
        assert meas.scale == 1.0

    def test_doubled_approximation_normalizes(self):
        rng = np.random.default_rng(62)
        system, _ = random_valid_system(rng, 5, 4, 2)
        block = build_exact(system).blocks[0]
        meas = equivalence_constants(block, 2.0 * block)
        assert meas.raw.lo == pytest.approx(0.5, abs=1e-12)
        assert meas.raw.hi == pytest.approx(0.5, abs=1e-12)
        assert meas.scale == pytest.approx(0.5, abs=1e-12)
        assert meas.alpha == pytest.approx(1.0, abs=1e-10)
        assert meas.beta == pytest.approx(1.0, abs=1e-10)

    def test_square_completion_interval_within_half_one(self):
        h, beta = 2**-4, 1e-3
        system, fem = poisson_distributed(h, beta)
        ctx = distributed_context(fem, beta)
        exact_tail = build_exact(system).blocks[2]
        meas = equivalence_constants(exact_tail, ctx.square_completion_block())
        assert meas.raw.lo >= 0.5 - 1e-6
        assert meas.raw.hi <= 1.0 + 1e-6

    def test_indefinite_approximation_rejected(self):
        with pytest.raises(DefinitenessError):
            equivalence_constants(np.eye(2), -np.eye(2))


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
        pair = schur_complements(system)
        split = split_preconditioned_matrix(system, approx)
        lead = split[:n, :n]
        mid_coupling = split[n:n + m, :n]
        tail_coupling = split[n + m:, n:n + m]
        mid_reg = -split[n:n + m, n:n + m]
        tail_reg = split[n + m:, n + m:]

        a0, b0 = meas[0].raw
        a1, b1 = meas[1].raw
        a2, b2 = meas[2].raw
        lead_vals = np.linalg.eigvalsh(lead)
        assert lead_vals[0] >= a0 - 1e-9 and lead_vals[-1] <= b0 + 1e-9

        sv_mid = np.linalg.svd(mid_coupling, compute_uv=False)
        assert sv_mid[0] <= np.sqrt(b0 * b1) + 1e-9
        assert sv_mid[-1] >= np.sqrt(a0 * a1 / (1.0 + pair.eta_d)) - 1e-9

        sv_tail = np.linalg.svd(tail_coupling, compute_uv=False)
        assert sv_tail[0] <= np.sqrt(b1 * b2) + 1e-9
        assert sv_tail[-1] >= np.sqrt(a1 * a2 / (1.0 + pair.eta_e)) - 1e-9

        mid_vals = np.linalg.eigvalsh(mid_reg)
        assert mid_vals[0] >= -1e-9 and mid_vals[-1] <= b1 + 1e-9
        tail_vals = np.linalg.eigvalsh(tail_reg)
        assert tail_vals[0] >= -1e-9 and tail_vals[-1] <= b2 + 1e-9

import numpy as np
import pytest
import scipy.linalg as sla

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    assemble,
    extremal_eigs,
    extremal_svals,
    full_spectrum,
    inertia,
    nullity_system,
    schur_complements,
    tightness_upper_negative,
    validate,
)
from saddlebounds.bounds import bounds_unpreconditioned
from saddlebounds.errors import ConvergenceError, OracleSizeError, ParameterError

from helpers import random_valid_system, svd_extremes


class TestExtremalEigs:
    def test_diagonal(self):
        assert extremal_eigs(np.diag([1.0, 2.0, 3.0])) == (1.0, 3.0)

    def test_identity(self):
        lo, hi = extremal_eigs(np.eye(17))
        assert lo == hi == 1.0

    def test_dirichlet_laplacian_closed_form(self):
        # 1-d second-difference matrix of size 4: eigenvalues 2 - 2 cos(k pi / 5)
        t = 2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        lo, hi = extremal_eigs(t)
        assert lo == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 5.0), abs=1e-12)
        assert hi == pytest.approx(2.0 - 2.0 * np.cos(4.0 * np.pi / 5.0), abs=1e-12)

    def test_lanczos_path_matches_dense(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        vals = np.sort(rng.uniform(-4.0, 9.0, 200))
        a = (q * vals) @ q.T
        lo, hi = extremal_eigs(a, dense_cutoff=50)
        assert lo == pytest.approx(vals[0], abs=1e-9)
        assert hi == pytest.approx(vals[-1], abs=1e-9)

    def test_lanczos_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((120, 120))
        a = a + a.T
        first = extremal_eigs(a, dense_cutoff=30)
        second = extremal_eigs(a, dense_cutoff=30)
        assert first == second

    def test_lanczos_handles_early_breakdown(self):
        # invariant subspace after one step: certified immediately
        lo, hi = extremal_eigs(np.eye(80), dense_cutoff=20)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_arpack_path_semidefinite_and_zero(self):
        # zero eigenvalues are certified relative to the norm, not to themselves
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        vals = np.concatenate([np.zeros(50), rng.uniform(0.1, 2.0, 250)])
        lo, hi = extremal_eigs((q * vals) @ q.T, dense_cutoff=50)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(vals.max(), abs=1e-9)
        assert extremal_eigs(np.zeros((60, 60)), dense_cutoff=20) == (0.0, 0.0)
        assert extremal_eigs(-np.eye(60), dense_cutoff=20) == pytest.approx((-1.0, -1.0))

    def test_arpack_no_convergence_is_a_convergence_error(self):
        # the clustered ends of a 1-d Laplacian need more than the capped work
        t = 2.0 * np.eye(300) - np.eye(300, k=1) - np.eye(300, k=-1)
        with pytest.raises(ConvergenceError, match="ARPACK"):
            extremal_eigs(t, dense_cutoff=50)


class TestExtremalSvals:
    def test_rectangular_diagonal(self):
        assert extremal_svals([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]) == (3.0, 4.0)

    def test_zero_matrix(self):
        assert extremal_svals(np.zeros((2, 3))) == (0.0, 0.0)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(31)
        system, _ = random_valid_system(rng, 9, 6, 4)
        for block in (system.B, system.C):
            expected = svd_extremes(block)
            got = extremal_svals(block)
            assert got[0] == pytest.approx(expected[0], abs=1e-10)
            assert got[1] == pytest.approx(expected[1], abs=1e-10)

    def test_square_of_svals_is_gram_spectrum(self):
        rng = np.random.default_rng(32)
        b = rng.standard_normal((5, 9))
        lo, hi = extremal_svals(b)
        glo, ghi = extremal_eigs(b @ b.T)
        assert lo**2 == pytest.approx(glo, rel=1e-12, abs=1e-12)
        assert hi**2 == pytest.approx(ghi, rel=1e-12)

    def test_tall_matrix_rejected(self):
        with pytest.raises(ParameterError):
            extremal_svals(np.ones((3, 2)))


class TestRankDecisions:
    def test_nullity_systems_agree_across_validate_and_bounds(self):
        # rank tests on squared Grams missed these nullities at some seeds
        for seed in range(40):
            for k in (0, 2):
                system = nullity_system(10, 8, 5, k, seed)
                no_e = DoubleSaddleSystem(
                    system.A, system.B, system.C, system.D, np.zeros((5, 5))
                )
                assert validate(no_e).kernel_conditions[2] is (k == 0), seed
                nullity = validate(system).c_nullity_k
                assert nullity == k, seed
                bounds = bounds_unpreconditioned(BlockExtremes.from_system(system))
                assert bounds.degenerate_interior is (nullity > 0), seed


class TestFullSpectrum:
    def test_two_by_two(self):
        a, b = 1.5, -0.75
        vals = full_spectrum([[a, b], [b, a]])
        assert np.allclose(vals, [a - abs(b), a + abs(b)])

    def test_scalar_system_cubic_roots(self):
        system = DoubleSaddleSystem(
            A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], E=[[0.0]]
        )
        vals = full_spectrum(assemble(system).data)
        # characteristic polynomial x^3 - 2x^2 - 2x + 2, via companion oracle
        expected = np.sort(np.roots([1.0, -2.0, -2.0, 2.0]).real)
        assert np.allclose(vals, expected, atol=1e-12)

    def test_tightness_fixture_contains_endpoint(self):
        system = tightness_upper_negative(1.0, 1.0, 1.0, 1.0, 1.0)
        vals = full_spectrum(assemble(system).data)
        target = (1.0 - np.sqrt(5.0)) / 2.0
        assert np.abs(vals - target).min() <= 1e-12

    def test_refuses_oversize(self):
        with pytest.raises(OracleSizeError):
            full_spectrum(np.eye(10), oracle_cutoff=5)


class TestInertia:
    def test_negative_identity(self):
        assert inertia(-np.eye(3)).astuple() == (0, 3, 0)

    def test_signature_diagonal(self):
        assert inertia(np.diag([1.0, 0.0, -1.0])).astuple() == (1, 1, 1)

    def test_assembled_system(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            system, _ = random_valid_system(rng, 8, 5, 3)
            assert inertia(assemble(system).data).astuple() == (11, 5, 0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(34)
        for dim in (5, 17, 50):
            a = rng.standard_normal((dim, dim))
            a = a + a.T
            base = inertia(a).astuple()
            perm = rng.permutation(dim)
            pmat = np.eye(dim)[perm]
            assert inertia(pmat.T @ a @ pmat).astuple() == base
            g = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
            assert inertia(g.T @ a @ g).astuple() == base

    def test_negative_count_matches_spectrum(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            system, _ = random_valid_system(rng, 7, 4, 2)
            vals = full_spectrum(assemble(system).data)
            assert int((vals < 0).sum()) == 4


class TestSchurComplements:
    def test_identity_blocks(self):
        n = 3
        system = DoubleSaddleSystem(
            A=np.eye(n), B=np.eye(n), C=np.eye(n), D=np.eye(n), E=np.zeros((n, n))
        )
        pair = schur_complements(system)
        assert np.allclose(pair.s1, 2.0 * np.eye(n))
        assert pair.eta_d == pytest.approx(1.0, abs=1e-12)

    def test_zero_regularization_gives_zero_ratios(self):
        rng = np.random.default_rng(36)
        system, _ = random_valid_system(rng, 6, 4, 3, d_zero=True, e_zero=True)
        pair = schur_complements(system)
        assert pair.eta_d == 0.0
        assert pair.eta_e == 0.0

    def test_ratio_scales_linearly(self):
        rng = np.random.default_rng(37)
        system, _ = random_valid_system(rng, 6, 4, 3)
        pair = schur_complements(system)
        scaled = DoubleSaddleSystem(
            A=system.A, B=system.B, C=system.C, D=3.0 * system.D, E=system.E
        )
        assert schur_complements(scaled).eta_d == pytest.approx(
            3.0 * pair.eta_d, rel=1e-10
        )

    def test_rank_deficient_coupling_gives_infinite_ratio(self):
        system = DoubleSaddleSystem(
            A=np.eye(3),
            B=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            C=np.array([[0.4, 0.0]]),
            D=np.eye(2),
            E=np.array([[1.0]]),
        )
        pair = schur_complements(system)
        assert pair.eta_d == np.inf

    def test_ratios_nonnegative(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            system, _ = random_valid_system(rng, 6, 4, 2)
            pair = schur_complements(system)
            assert pair.eta_d >= 0.0
            assert pair.eta_e >= 0.0

    def test_lazy_ratios_match_independent_pencils(self):
        def top(reg, gram):
            return float(sla.eigh(reg, gram, eigvals_only=True)[-1])

        rng = np.random.default_rng(39)
        for _ in range(4):
            system, _ = random_valid_system(rng, 7, 5, 3)
            a, b, c, d, e = system.A, system.B, system.C, system.D, system.E
            gram_b = b @ np.linalg.solve(a, b.T)
            gram_c = c @ np.linalg.solve(d + gram_b, c.T)
            pair = schur_complements(system)
            assert "eta_d" not in vars(pair) and "eta_e" not in vars(pair)
            assert pair.eta_d == pytest.approx(top(d, gram_b), rel=1e-9)
            assert pair.eta_e == pytest.approx(top(e, gram_c), rel=1e-9)

        zero, _ = random_valid_system(rng, 6, 4, 3, d_zero=True, e_zero=True)
        assert (schur_complements(zero).eta_d, schur_complements(zero).eta_e) == (0.0, 0.0)

        # rank-deficient couplings under nonzero regularization: singular Grams
        deficient = DoubleSaddleSystem(
            A=np.eye(3),
            B=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            C=np.array([[0.4, 0.0], [0.8, 0.0]]),
            D=np.eye(2),
            E=np.eye(2),
        )
        gram_c = deficient.C @ np.linalg.solve(
            deficient.D + deficient.B @ deficient.B.T, deficient.C.T
        )
        assert np.linalg.matrix_rank(gram_c) < 2
        pair = schur_complements(deficient)
        assert pair.eta_d == pytest.approx(top(deficient.D, deficient.B @ deficient.B.T))
        assert pair.eta_e == np.inf


class TestBlockExtremes:
    def test_measured_matches_construction(self):
        rng = np.random.default_rng(39)
        system, requested = random_valid_system(rng, 8, 5, 3)
        measured = BlockExtremes.from_system(system)
        for name in (
            "mu_min_a", "mu_max_a", "sigma_min_b", "sigma_max_b",
            "sigma_min_c", "sigma_max_c", "mu_min_d", "mu_max_d",
            "mu_min_e", "mu_max_e",
        ):
            assert getattr(measured, name) == pytest.approx(
                getattr(requested, name), abs=1e-10
            )

    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            BlockExtremes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            BlockExtremes(1.0, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

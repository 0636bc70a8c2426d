import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import saddlebounds.spectral as spectral_mod
from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    assemble,
    equivalence_constants,
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
from saddlebounds.errors import (
    ConvergenceError,
    DefinitenessError,
    OracleSizeError,
    ParameterError,
    StructuralError,
)
from saddlebounds.spectral import _SHARED, Inertia, SharedSchurPair, _regularization_ratio
from saddlebounds.system import _sym

from helpers import random_valid_system, singular_s1_system, svd_extremes


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


def _nan_corner(shape):
    a = np.eye(*shape)
    a[-1, -1] = np.nan
    return a


def _inf_corner(shape):
    a = np.eye(*shape)
    a[0, -1] = np.inf
    return a


def _exact_arg(kernel):
    return lambda a: kernel(a, np.eye(a.shape[0]))


def _approx_arg(kernel):
    return lambda a: kernel(np.eye(a.shape[0]), a)


def _kernels():
    # each kernel with a good shape for it and a wrong one
    square, wrong = (3, 3), (2, 3)
    return [
        pytest.param(extremal_eigs, square, wrong, id="extremal_eigs"),
        pytest.param(extremal_svals, (2, 3), (3, 2), id="extremal_svals"),
        pytest.param(full_spectrum, square, wrong, id="full_spectrum"),
        pytest.param(inertia, square, wrong, id="inertia"),
        pytest.param(_exact_arg(equivalence_constants), square, wrong, id="equivalence-exact"),
        pytest.param(_approx_arg(equivalence_constants), square, wrong,
                     id="equivalence-approx"),
    ]


class TestKernelInputRule:
    @pytest.mark.parametrize("kernel, good, wrong", _kernels())
    @pytest.mark.parametrize("corner", [_nan_corner, _inf_corner], ids=["nan", "inf"])
    def test_non_finite_fails_typed(self, kernel, good, wrong, corner):
        with pytest.raises(StructuralError, match="non-finite"):
            kernel(corner(good))

    @pytest.mark.parametrize("kernel, good, wrong", _kernels())
    def test_wrong_shape_fails_typed(self, kernel, good, wrong):
        with pytest.raises(ParameterError, match=rf"must be .*, got \(\d, \d\)"):
            kernel(np.ones(wrong))

    @pytest.mark.parametrize("kernel, good, wrong", _kernels())
    def test_not_two_dimensional_fails_typed(self, kernel, good, wrong):
        with pytest.raises(StructuralError, match="2-d"):
            kernel(np.ones(3))

    def test_empty_matrix(self):
        empty = np.zeros((0, 0))
        assert extremal_eigs(empty) == (0.0, 0.0)
        assert full_spectrum(empty).shape == (0,)
        assert inertia(empty) == Inertia(0, 0, 0)

    def test_sparse_and_list_input(self):
        a = np.diag([-1.0, 0.0, 2.0])
        assert extremal_eigs(sp.csr_array(a)) == (-1.0, 2.0)
        assert np.array_equal(full_spectrum(sp.csr_array(a)), [-1.0, 0.0, 2.0])
        assert inertia(a.tolist()) == Inertia(1, 1, 1)


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

    @staticmethod
    def _cho_solve_gemm(system):
        """S1, S2, eta_d and eta_e by the cho_solve + GEMM formulas the
        half-Gram products replaced, kept as the reference."""
        a, b, c, d, e = (getattr(system, k) for k in "ABCDE")
        gram_b = _sym(b @ sla.cho_solve(sla.cho_factor(_sym(a)), b.T))
        s1 = _sym(d + gram_b)
        gram_c = _sym(c @ sla.cho_solve(sla.cho_factor(s1), c.T))
        return (s1, _sym(e + gram_c), _regularization_ratio(d, gram_b),
                _regularization_ratio(e, gram_c))

    @staticmethod
    def _schur_inputs():
        """(system, whether C has full row rank) pairs."""
        rng = np.random.default_rng(43)
        for dims in ((6, 4, 2), (9, 6, 4), (12, 12, 5), (20, 15, 15)):
            for d_zero, e_zero in ((False, False), (True, False), (True, True)):
                system, _ = random_valid_system(rng, *dims, d_zero=d_zero, e_zero=e_zero)
                yield system, True
        for k in (0, 2):
            for seed in range(4):
                yield nullity_system(10, 8, 5, k, seed=seed), k == 0

    def test_half_gram_products_match_cho_solve_gemm(self):
        for system, c_full_rank in self._schur_inputs():
            s1, s2, eta_d, eta_e = self._cho_solve_gemm(system)
            pair = schur_complements(system)
            assert "gram_c" not in vars(pair) and "s2" not in vars(pair)
            for new, old in ((pair.s1, s1), (pair.s2, s2)):
                assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)
            assert pair.eta_d == pytest.approx(eta_d, rel=1e-12, abs=0)
            # with C row-rank-deficient the Gram is singular, and either
            # form gives inf or a round-off value near 1/eps
            if c_full_rank:
                assert pair.eta_e == pytest.approx(eta_e, rel=1e-12, abs=0)

    def test_complements_are_exactly_symmetric(self):
        for system, _ in self._schur_inputs():
            pair = schur_complements(system)
            assert np.array_equal(pair.s1, pair.s1.T)
            assert np.array_equal(pair.s2, pair.s2.T)


class TestSharedSchurPair:
    def test_one_pair_per_system_inside_the_scope(self):
        rng = np.random.default_rng(44)
        system, _ = random_valid_system(rng, 6, 4, 2)
        other, _ = random_valid_system(rng, 6, 4, 2)
        with SharedSchurPair(system) as shared:
            pair = schur_complements(system)
            assert schur_complements(system, (True, True)) is pair
            assert shared.pair is pair
            assert schur_complements(other) is not schur_complements(other)
            assert shared.pair is pair
            shared.release()
            assert schur_complements(system) is not pair
        assert _SHARED.get() is None and shared.pair is None
        assert schur_complements(system) is not schur_complements(system)

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        system = singular_s1_system()
        grams = []
        original = spectral_mod._gram
        monkeypatch.setattr(spectral_mod, "_gram",
                            lambda f, c: grams.append(c) or original(f, c))
        with SharedSchurPair(system) as shared:
            for _ in range(2):
                with pytest.raises(DefinitenessError,
                                   match="first-schur block is not positive definite"):
                    schur_complements(system)
            assert shared.pair is None
        assert len(grams) == 2

    def test_s1_is_the_gram_when_d_stores_no_nonzero(self):
        rng = np.random.default_rng(45)
        zero, _ = random_valid_system(rng, 6, 4, 2, d_zero=True)
        pair = schur_complements(zero)
        assert pair.s1 is pair.gram_b
        regularized, _ = random_valid_system(rng, 6, 4, 2)
        pair = schur_complements(regularized)
        assert pair.s1 is not pair.gram_b
        assert np.array_equal(pair.s1, pair.gram_b + regularized.D)

    def test_every_exact_s2_build_shares_one_factor(self, monkeypatch):
        from saddlebounds import build_approx, build_exact

        rng = np.random.default_rng(46)
        system, _ = random_valid_system(rng, 8, 5, 3)
        factored = []
        original = sla.cho_factor
        monkeypatch.setattr(sla, "cho_factor",
                            lambda a, *args, **kw: factored.append(a) or original(a, *args, **kw))
        with SharedSchurPair(system) as shared:
            first, second = build_exact(system), build_exact(system)
            scaled = build_approx(system, ("exact", "exact", "scaled:2"))
            pair = shared.pair
        # A, S1 and S2 once each, then the scaled tail block of its own
        assert len(factored) == 4
        assert factored[2] is pair.s2 and factored[3] is scaled.blocks[2]
        assert first._factors[2] is second._factors[2] is pair.cho_2
        assert first.blocks[2] is pair.s2

    def test_a_failed_s2_factor_is_not_kept(self):
        from saddlebounds import build_exact

        rng = np.random.default_rng(47)
        base, _ = random_valid_system(rng, 6, 4, 2)
        system = dataclasses.replace(base, E=-1e3 * np.eye(2))
        pair = schur_complements(system)
        for _ in range(2):
            with pytest.raises(DefinitenessError,
                               match="second-schur block is not positive definite"):
                pair.cho_2
        assert "cho_2" not in vars(pair)
        with pytest.raises(DefinitenessError, match="second-schur"):
            build_exact(system)


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

    def test_zero_blocks_take_no_eigensolve(self, monkeypatch):
        # validate solves for A, S1 and S2; D = 0 and E = 0 read as (0, 0)
        rng = np.random.default_rng(48)
        system, _ = random_valid_system(rng, 7, 5, 3, d_zero=True, e_zero=True)
        solved = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(a.shape) or original(a))
        report = validate(system)
        assert solved == [(7, 7), (5, 5), (3, 3)]
        extremes = report.extremes
        assert (extremes.mu_min_d, extremes.mu_max_d) == (0.0, 0.0)
        assert (extremes.mu_min_e, extremes.mu_max_e) == (0.0, 0.0)
        assert extremal_eigs(sp.csr_array((4, 4))) == (0.0, 0.0)
        assert len(solved) == 3

    @pytest.mark.parametrize("d_zero, e_zero", [(False, False), (True, False), (True, True)])
    def test_validate_hands_over_the_measured_extremes(self, d_zero, e_zero):
        rng = np.random.default_rng(41)
        for n, m, p in ((6, 4, 2), (9, 6, 4), (12, 12, 5)):
            system, _ = random_valid_system(rng, n, m, p, d_zero=d_zero, e_zero=e_zero)
            assert validate(system).extremes == BlockExtremes.from_system(system)
        system = nullity_system(10, 8, 5, 2, seed=3)
        assert validate(system).extremes == BlockExtremes.from_system(system)

    def test_indefinite_leading_block_has_no_extremes(self):
        rng = np.random.default_rng(42)
        system, _ = random_valid_system(rng, 6, 4, 2)
        system = dataclasses.replace(system, A=np.diag(np.linspace(-1.0, 2.0, 6)))
        assert validate(system).extremes is None
        with pytest.raises(ParameterError):
            BlockExtremes.from_system(system)

import dataclasses
import tracemalloc

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
    regularization_ratio,
    schur_complements,
    tightness_upper_negative,
    validate,
)
from saddlebounds.bounds import bounds_unpreconditioned
from saddlebounds.problems import (
    distributed_context,
    haar_orthogonal,
    poisson_boundary,
    poisson_distributed,
)
from saddlebounds.errors import (
    ConvergenceError,
    DefinitenessError,
    OracleSizeError,
    ParameterError,
    StructuralError,
)
from saddlebounds.spectral import Inertia
from saddlebounds.system import _sym

from helpers import measured_etas, random_valid_system, singular_s1_system, svd_extremes


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

    def test_matches_a_known_spectrum(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        vals = np.sort(rng.uniform(-4.0, 9.0, 200))
        a = (q * vals) @ q.T
        lo, hi = extremal_eigs(a)
        assert lo == pytest.approx(vals[0], abs=1e-9)
        assert hi == pytest.approx(vals[-1], abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((120, 120))
        a = a + a.T
        first = extremal_eigs(a)
        second = extremal_eigs(a)
        assert first == second

    def test_semidefinite_zero_and_negative(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        vals = np.concatenate([np.zeros(50), rng.uniform(0.1, 2.0, 250)])
        lo, hi = extremal_eigs((q * vals) @ q.T)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(vals.max(), abs=1e-9)
        assert extremal_eigs(np.zeros((60, 60))) == (0.0, 0.0)
        assert extremal_eigs(-np.eye(60)) == pytest.approx((-1.0, -1.0))

    def test_above_the_cutoff_is_the_same_dense_solve(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "ORACLE_CUTOFF", 50)
        # eigenvalues 2 - 2 cos(k pi / 301), clustered at both ends
        t = 2.0 * np.eye(300) - np.eye(300, k=1) - np.eye(300, k=-1)
        before = t.tobytes()
        lo, hi = extremal_eigs(t)
        assert lo == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 301.0), abs=1e-12)
        assert hi == pytest.approx(2.0 - 2.0 * np.cos(300.0 * np.pi / 301.0), abs=1e-12)
        assert t.tobytes() == before


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

    @pytest.mark.parametrize("kernel, good, wrong", _kernels() + [
        # a matrix with no rows has no smallest singular value
        pytest.param(extremal_svals, (2, 3), (0, 0), id="extremal_svals-0x0"),
        pytest.param(extremal_svals, (2, 3), (0, 3), id="extremal_svals-0x3"),
    ])
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
        assert full_spectrum(empty, overwrite=True).shape == (0,)
        assert inertia(empty) == Inertia(0, 0, 0)

    def test_finite_check_forms_no_mask(self):
        # a boolean mask of the matrix would be dim * dim bytes
        dim = 512
        a = np.random.default_rng(75).standard_normal((dim, dim))
        tracemalloc.start()
        try:
            spectral_mod._kernel_input(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * dim / 16

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

    def test_refuses_oversize(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "ORACLE_CUTOFF", 5)
        with pytest.raises(OracleSizeError):
            full_spectrum(np.eye(10))

    @staticmethod
    def _symmetric(dim, seed):
        x = np.random.default_rng(seed).standard_normal((dim, dim))
        return x + x.T

    @pytest.mark.parametrize("dim", [1, 2, 7, 60, 177])
    def test_matches_the_numpy_oracle(self, dim):
        a = self._symmetric(dim, 70 + dim)
        expected = np.linalg.eigvalsh(a)
        vals = full_spectrum(a)
        assert np.all(np.diff(vals) >= 0)
        assert np.abs(vals - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("layout", ["c-order", "f-order", "strided", "read-only"])
    def test_default_leaves_the_matrix_as_it_was(self, layout):
        a = self._symmetric(90, 71)
        reference = full_spectrum(a.copy(), overwrite=True)
        if layout == "f-order":
            a = np.asfortranarray(a)
        elif layout == "strided":
            wide = np.zeros((180, 180))
            wide[::2, ::2] = a
            a = wide[::2, ::2]
        elif layout == "read-only":
            a.setflags(write=False)
        before = a.tobytes()
        # the driver sees the same bytes whatever the layout or ownership
        assert np.array_equal(full_spectrum(a), reference)
        assert a.tobytes() == before
        if layout != "c-order":
            # only a C-ordered, writeable array can be handed over
            assert np.array_equal(full_spectrum(a, overwrite=True), reference)
            assert a.tobytes() == before

    def test_overwrite_allocates_no_copy(self):
        # a wrong memory order would make f2py copy the input silently
        dim = 600
        copy_bytes = dim * dim * 8
        a, b = self._symmetric(dim, 73), self._symmetric(dim, 74)
        tracemalloc.start()
        try:
            full_spectrum(a, overwrite=True)
            in_place = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            full_spectrum(b)
            copied = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert in_place < copy_bytes / 2
        assert copy_bytes <= copied < 1.5 * copy_bytes

    def test_nonzero_lapack_info_is_a_convergence_error(self, monkeypatch):
        original = spectral_mod._SYEVR

        def failing(a, **kwargs):
            *out, _ = original(a, **kwargs)
            return (*out, 3)

        monkeypatch.setattr(spectral_mod, "_SYEVR", failing)
        a = self._symmetric(8, 75)
        with pytest.raises(ConvergenceError, match="LAPACK info 3"):
            full_spectrum(a)
        with pytest.raises(ConvergenceError):
            extremal_eigs(a)


class TestInertia:
    def test_negative_identity(self):
        assert inertia(-np.eye(3)).astuple() == (0, 3, 0)

    def test_signature_diagonal(self):
        assert inertia(np.diag([1.0, 0.0, -1.0])).astuple() == (1, 1, 1)

    def test_two_by_two_pivots(self):
        # zero diagonals force 2x2 pivots in the LDL^T factor, whose signs
        # the tridiagonal eigensolve must count whole
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        cases = [
            (swap, (1, 1, 0)),
            (np.kron(np.eye(3), swap), (3, 3, 0)),
            (sla.block_diag(swap, [[-3.0]], 2.0 * swap, [[0.0]]), (2, 3, 1)),
        ]
        for a, want in cases:
            assert np.any(sla.ldl(a)[1].diagonal(-1))
            assert inertia(a).astuple() == want

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
        assert measured_etas(system)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_regularization_gives_zero_ratios(self):
        rng = np.random.default_rng(36)
        system, _ = random_valid_system(rng, 6, 4, 3, d_zero=True, e_zero=True)
        assert measured_etas(system) == (0.0, 0.0)
        # a block that stores no nonzero takes no eigensolve and no verdict
        assert regularization_ratio(system.D, np.zeros((4, 4)), False) == 0.0

    def test_ratio_scales_linearly(self):
        rng = np.random.default_rng(37)
        system, _ = random_valid_system(rng, 6, 4, 3)
        scaled = DoubleSaddleSystem(
            A=system.A, B=system.B, C=system.C, D=3.0 * system.D, E=system.E
        )
        assert measured_etas(scaled)[0] == pytest.approx(
            3.0 * measured_etas(system)[0], rel=1e-10
        )

    def test_rank_deficient_coupling_gives_infinite_ratio(self):
        system = DoubleSaddleSystem(
            A=np.eye(3),
            B=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            C=np.array([[0.4, 0.0]]),
            D=np.eye(2),
            E=np.array([[1.0]]),
        )
        assert not validate(system).b_full_row_rank
        assert measured_etas(system)[0] == np.inf

    def test_ratios_nonnegative(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            system, _ = random_valid_system(rng, 6, 4, 2)
            eta_d, eta_e = measured_etas(system)
            assert eta_d >= 0.0
            assert eta_e >= 0.0

    def test_ratios_match_independent_pencils(self):
        def top(reg, gram):
            return float(sla.eigh(reg, gram, eigvals_only=True)[-1])

        rng = np.random.default_rng(39)
        for _ in range(4):
            system, _ = random_valid_system(rng, 7, 5, 3)
            a, b, c, d, e = system.A, system.B, system.C, system.D, system.E
            gram_b = b @ np.linalg.solve(a, b.T)
            gram_c = c @ np.linalg.solve(d + gram_b, c.T)
            eta_d, eta_e = measured_etas(system)
            assert eta_d == pytest.approx(top(d, gram_b), rel=1e-9)
            assert eta_e == pytest.approx(top(e, gram_c), rel=1e-9)

        zero, _ = random_valid_system(rng, 6, 4, 3, d_zero=True, e_zero=True)
        assert measured_etas(zero) == (0.0, 0.0)

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
        eta_d, eta_e = measured_etas(deficient)
        assert eta_d == pytest.approx(top(deficient.D, deficient.B @ deficient.B.T))
        assert eta_e == np.inf
        # the verdict alone decides: with it the Gram is not even factored
        assert regularization_ratio(deficient.E, np.full((2, 2), np.nan), False) == np.inf

    @staticmethod
    def _cho_solve_gemm(system):
        """S1, S2, eta_d and eta_e by the cho_solve + GEMM formulas the
        half-Gram products replaced, kept as the reference."""
        a, b, c, d, e = (getattr(system, k) for k in "ABCDE")
        gram_b = _sym(b @ sla.cho_solve(sla.cho_factor(_sym(a)), b.T))
        s1 = _sym(d + gram_b)
        gram_c = _sym(c @ sla.cho_solve(sla.cho_factor(s1), c.T))
        return (s1, _sym(e + gram_c), regularization_ratio(d, gram_b, True),
                regularization_ratio(e, gram_c, True))

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
            assert regularization_ratio(system.D, pair.gram_b, True) == pytest.approx(
                eta_d, rel=1e-12, abs=0)
            # with C row-rank-deficient the Gram is singular, and either
            # form gives inf or a round-off value near 1/eps
            if c_full_rank:
                assert regularization_ratio(system.E, pair.gram_c, True) == pytest.approx(
                    eta_e, rel=1e-12, abs=0)

    def test_complements_are_exactly_symmetric(self):
        for system, _ in self._schur_inputs():
            pair = schur_complements(system)
            assert np.array_equal(pair.s1, pair.s1.T)
            assert np.array_equal(pair.s2, pair.s2.T)


    @staticmethod
    def _sparse_system(m, seed):
        """A sparse system with n = m + 7 and p = max(1, m // 2): A SPD
        tridiagonal plus a random diagonal, B = [I 0] plus sparse noise
        (full row rank), and D, E sparse, diagonal, semidefinite."""
        rng = np.random.default_rng(seed)
        n, p = m + 7, max(1, m // 2)
        a = sp.diags_array([-1.0, 4.0, -1.0], offsets=[-1, 0, 1], shape=(n, n)) \
            + sp.diags_array(rng.uniform(0.0, 2.0, n))
        b = sp.eye_array(m, n) + 0.3 * sp.random_array((m, n), density=0.05, rng=rng)
        c = sp.eye_array(p, m) + 0.3 * sp.random_array((p, m), density=0.05, rng=rng)
        d = sp.diags_array(rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5))
        e = sp.diags_array(rng.uniform(0.0, 1.0, p))
        return DoubleSaddleSystem(A=a, B=b, C=c, D=d, E=e)

    @pytest.mark.parametrize("label", ["poisson-1/16", "m=1", "m=127", "m=128", "m=129",
                                       "m=300"])
    def test_sparse_a_pair_matches_the_densified_pair(self, label):
        # the sparse LU route forms S1 in blocks of 128 columns: the m here
        # give one column, a partial block, one full block, a full block
        # plus one column, and three blocks
        if label.startswith("poisson"):
            system, _ = poisson_distributed(1 / 16, 1e-3)
        else:
            system = self._sparse_system(int(label[2:]), seed=int(label[2:]))
        pair = schur_complements(system)
        dense = schur_complements(system.dense())
        assert not isinstance(pair.factor_a, np.ndarray)  # a sparse LU
        for name in ("s1", "gram_c", "s2_diagonal"):
            new, old = getattr(pair, name), getattr(dense, name)
            assert np.linalg.norm(new - old) <= 1e-13 * np.linalg.norm(old), name
        assert np.array_equal(pair.s1, pair.s1.T)

    def test_sparse_a_not_definite_names_the_leading_block(self):
        system, _ = poisson_distributed(1 / 8, 1e-3)
        bad = dataclasses.replace(system, A=-system.A)
        with pytest.raises(DefinitenessError, match="leading block is not positive definite"):
            schur_complements(bad)

    def test_jacobi_solve_on_sparse_a_keeps_one_m_by_m_array(self):
        # a dense A, its Cholesky copy and an n x m W peak at 4.0 m^2
        # doubles here, and the Schur pair's S1 with its Cholesky copy at
        # 2.4 m^2; the diagonals route holds one array, S1 and then its
        # factor, and one block of columns at a time (1.6 m^2)
        import scipy.sparse.linalg  # noqa: F401  imported before tracing
        from saddlebounds.report import solve

        system, _ = poisson_distributed(1 / 32, 1e-3)
        m = system.dims[1]
        tracemalloc.start()
        try:
            data = solve(system, precond="jacobi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data["converged"]
        assert peak <= 1.6 * m * m * 8

    @pytest.mark.parametrize("label", ["poisson-1/16", "m=1", "m=129", "m=300"])
    def test_schur_diagonals_are_bitwise_the_pairs(self, label):
        # the same S1 values in the same Fortran layout give the same factor
        if label.startswith("poisson"):
            system, _ = poisson_distributed(1 / 16, 1e-3)
        else:
            system = self._sparse_system(int(label[2:]), seed=int(label[2:]))
        pair = schur_complements(system)
        factor_a, diagonal_1, diagonal_2 = spectral_mod.schur_diagonals(system, tail=True)
        assert np.array_equal(diagonal_1, pair.s1.diagonal())
        assert np.array_equal(diagonal_2, pair.s2_diagonal)
        assert not isinstance(factor_a, np.ndarray)  # a sparse LU
        assert spectral_mod.schur_diagonals(system, tail=False)[2] is None

    def test_schur_diagonals_with_a_dense_d_are_bitwise_the_pairs(self):
        # a sparse system whose D is dense: S1 is the Gram plus D in place
        from saddlebounds.report import solve

        system, _ = poisson_distributed(1 / 8, 1e-3)
        m = system.dims[1]
        q = np.random.default_rng(8).standard_normal((m, m))
        system = dataclasses.replace(system, D=1e-3 * (q @ q.T / m + np.eye(m)))
        assert system.is_sparse and isinstance(system.D, np.ndarray)
        pair = schur_complements(system)
        _, diagonal_1, diagonal_2 = spectral_mod.schur_diagonals(system, tail=True)
        assert np.array_equal(diagonal_1, pair.s1.diagonal())
        assert np.array_equal(diagonal_2, pair.s2_diagonal)
        assert solve(system, precond="jacobi")["converged"]

    def test_sparse_coupling_gram_is_bitwise_the_dense_one(self):
        # the square-completion block of a sparse context, solved in place
        # in the fresh copy, equals the dense context's block bit for bit
        _, fem = poisson_distributed(1 / 8, 1e-3)
        sparse = distributed_context(fem, 1e-3)
        dense = dataclasses.replace(sparse, mass=sparse.mass.toarray(),
                                    stiffness=sparse.stiffness.toarray())
        assert np.array_equal(sparse.square_completion_block(),
                              dense.square_completion_block())

    def test_singular_s1_judged_by_its_spectrum_not_its_cholesky(self):
        # B has two equal rows and D = 0, so S1 = B A^-1 B^T is singular;
        # for this seed cho_factor of the formed S1 still succeeds (it does
        # for 67 of seeds 0-199), so validate keeps its SYM_TOL rule on the
        # extremal eigenvalues instead of trusting the factor
        rng = np.random.default_rng(1)
        n, m, p = 8, 6, 4
        q = haar_orthogonal(rng, n)
        a = (q * rng.uniform(0.5, 3.0, n)) @ q.T
        b = rng.standard_normal((m, n))
        b[1] = b[0]
        system = DoubleSaddleSystem(A=a, B=b, C=rng.standard_normal((p, m)),
                                    D=np.zeros((m, m)), E=np.eye(p))
        sla.cho_factor(schur_complements(system).s1)
        assert validate(system).schur_definite == (False, False)


class TestSchurPairOwnership:
    def test_one_pair_per_system(self):
        rng = np.random.default_rng(44)
        system, _ = random_valid_system(rng, 6, 4, 2)
        other, _ = random_valid_system(rng, 6, 4, 2)
        pair = schur_complements(system)
        assert schur_complements(system) is pair
        assert schur_complements(other) is schur_complements(other) is not pair
        # the pair reads C and E, and holds no reference back to its system
        assert "system" not in {f.name for f in dataclasses.fields(pair)}
        assert pair.C is system.C and pair.E is system.E
        # each dense() copy of a sparse system is a system with a pair of its own
        sparse = DoubleSaddleSystem(*(sp.csr_array(getattr(system, k)) for k in "ABCDE"))
        copy = sparse.dense()
        assert schur_complements(copy) is schur_complements(copy)
        assert schur_complements(sparse.dense()) is not schur_complements(copy)
        assert schur_complements(sparse) is not schur_complements(copy)
        assert np.array_equal(schur_complements(copy).s1, pair.s1)

    def test_a_failed_build_is_retried(self, monkeypatch):
        system = singular_s1_system()
        grams = []
        original = spectral_mod._gram
        monkeypatch.setattr(spectral_mod, "_gram",
                            lambda f, c: grams.append(c) or original(f, c))
        for _ in range(2):
            with pytest.raises(DefinitenessError,
                               match="first-schur block is not positive definite"):
                schur_complements(system)
        assert "_schur" not in vars(system)
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
        import saddlebounds.spectral as spectral_mod

        factored = []
        original = spectral_mod._cho
        monkeypatch.setattr(spectral_mod, "_cho",
                            lambda a, *args, **kw: factored.append(a) or original(a, *args, **kw))
        first, second = build_exact(system), build_exact(system)
        scaled = build_approx(system, ("exact", "exact", "scaled:2"))
        pair = schur_complements(system)
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
        original = spectral_mod._eigvalsh
        monkeypatch.setattr(spectral_mod, "_eigvalsh",
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


class TestOneBlasPool:
    """The dense oracle runs every BLAS and LAPACK call through scipy's
    OpenBLAS: numpy loads a second one, and alternating between the two
    costs each library's next threaded call a core."""

    _NUMPY_LINALG = ("svd", "eigvalsh", "eigh", "cholesky", "solve", "qr", "inv")
    _MODULES = ("spectral", "precond", "bounds", "report", "krylov", "system", "modal")

    @staticmethod
    def _inputs():
        # and the scipy kernels each makes: poisson-dist is measured from
        # its mode values and makes no dense call at all
        dense = {"_SYRK", "_GESDD"}
        system, _ = random_valid_system(np.random.default_rng(120), 12, 8, 5)
        yield "random", system, "exact", None, dense
        system, fem = poisson_distributed(1 / 8, 1e-3)
        yield ("poisson-dist", system, "pearson-wathen", distributed_context(fem, 1e-3),
               set())
        yield "poisson-bnd", poisson_boundary(1 / 8, 1e-3), "jacobi", None, dense

    def test_analyze_calls_no_numpy_linalg_kernel(self, monkeypatch):
        # a numpy product is not caught by closing numpy.linalg, so the
        # scipy kernels that replace the SVD and the Gram product must run
        from saddlebounds.report import analyze

        inputs = list(self._inputs())  # generated before numpy.linalg is closed

        def closed(name):
            def run(*args, **kwargs):
                raise AssertionError(f"numpy.linalg.{name} called")
            return run

        calls = {}

        def counted(name, kernel):
            def run(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return kernel(*args, **kwargs)
            return run

        for name in self._NUMPY_LINALG:
            monkeypatch.setattr(np.linalg, name, closed(name))
        for name in ("_SYRK", "_GESDD"):
            monkeypatch.setattr(spectral_mod, name, counted(name, getattr(spectral_mod, name)))
        for label, system, precond, context, kernels in inputs:
            calls.clear()
            report = analyze(system, ("unprec", "prec-exact", "prec-inexact"),
                             precond=precond, context=context)
            assert report.passed, label
            assert all("error" not in entry for entry in report.scenarios), label
            assert calls.keys() == kernels, label

    def test_no_module_names_a_numpy_linalg_kernel(self):
        # numpy.linalg.norm is a reduction, not a BLAS-3 or LAPACK call
        import ast
        import importlib

        found = []
        for name in self._MODULES:
            path = importlib.import_module(f"saddlebounds.{name}").__file__
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg"
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id in ("np", "numpy")
                        and node.attr != "norm"):
                    found.append(f"{name}:{node.lineno} np.linalg.{node.attr}")
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    found.append(f"{name}:{node.lineno} from numpy.linalg import")
        assert found == []

    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_gram_is_exactly_symmetric_and_the_product(self, m):
        # the mirror works in blocks of 128 columns: one column, a partial
        # block, one full block, a full block plus one column, three blocks
        rng = np.random.default_rng(m)
        n = m + 5
        q = rng.standard_normal((n, n))
        upper, _ = sla.cho_factor(q @ q.T + n * np.eye(n))
        coupling = rng.standard_normal((m, n))
        half = spectral_mod._solve_upper_t(upper, coupling.T)
        expected = half.T @ half
        gram = spectral_mod._gram(upper, coupling)
        assert gram.flags.c_contiguous
        assert np.array_equal(gram, gram.T)
        assert np.abs(gram - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (40, 60), (127, 132), (261, 133)])
    def test_singular_values_match_numpy(self, shape):
        matrix = np.random.default_rng(sum(shape)).standard_normal(shape)
        expected = np.linalg.svd(matrix, compute_uv=False)
        got = spectral_mod._singular_values(matrix)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-15 * expected[0]

    def test_nonzero_gesdd_info_is_a_typed_error(self, monkeypatch, capsys):
        from saddlebounds.report import analyze
        from saddlebounds.cli import main

        original = spectral_mod._GESDD

        def failing(a, **kwargs):
            *out, _ = original(a, **kwargs)
            return (*out, 1)

        system, _ = random_valid_system(np.random.default_rng(121), 6, 4, 2)
        monkeypatch.setattr(spectral_mod, "_GESDD", failing)
        with pytest.raises(ConvergenceError, match="LAPACK info 1"):
            analyze(system, ("unprec",))
        code = main(["analyze", "--problem", "random", "--dims", "6,4,2", "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: singular value decomposition failed (LAPACK info 1)\n"


class TestLapackLayer:
    """Each helper of the one LAPACK layer against the scipy.linalg solver
    it replaces, which makes the same LAPACK call: results bitwise equal."""

    @staticmethod
    def _spd(n, seed):
        q = np.random.default_rng(seed).standard_normal((n, n))
        return q @ q.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_cho_is_cho_factor(self, n):
        a = self._spd(n, n)
        want, want_lower = sla.cho_factor(a)
        got = spectral_mod._cho(a, "leading")
        assert want_lower is False  # cho_factor's flag: the factor is upper
        assert np.array_equal(got, want)  # the untouched lower triangle too
        assert np.array_equal(a, self._spd(n, n))  # the input is left as it was
        fortran = np.array(a, order="F")
        in_place = spectral_mod._cho(fortran, "leading", overwrite=True)
        assert np.shares_memory(in_place, fortran)
        assert np.array_equal(in_place, want)

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_cho_is_a_fortran_ordered_upper_factor(self, n, order, overwrite):
        # _solve_upper_t and _cho_solve take the factor as stored, upper and
        # Fortran-ordered, whatever the order of the factored array
        a = np.array(self._spd(n, n + 6), order=order)
        want = sla.cho_factor(a)[0]
        got = spectral_mod._cho(a, "leading", overwrite=overwrite)
        assert got.ndim == 2 and got.flags.f_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_solve_upper_t_is_solve_triangular(self, n, overwrite):
        upper = sla.cho_factor(self._spd(n, n + 1))[0]
        assert upper.flags.f_contiguous
        rhs = np.asfortranarray(np.random.default_rng(n).standard_normal((n, 5)))
        want = sla.solve_triangular(upper, rhs.copy(order="F"), trans=1,
                                    overwrite_b=overwrite, check_finite=False)
        given = rhs.copy(order="F")
        got = spectral_mod._solve_upper_t(upper, given, overwrite=overwrite)
        assert np.array_equal(got, want)
        assert np.shares_memory(got, given) is overwrite
        if not overwrite:
            assert np.array_equal(given, rhs)

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_cho_solve_is_cho_solve(self, n, columns):
        upper, lower = sla.cho_factor(self._spd(n, n + 2))
        shape = (n,) if columns is None else (n, columns)
        rhs = np.random.default_rng(n).standard_normal(shape)
        got = spectral_mod._cho_solve(upper, rhs)
        assert got.shape == shape
        assert np.array_equal(got, sla.cho_solve((upper, lower), rhs))
        assert np.array_equal(rhs, np.random.default_rng(n).standard_normal(shape))

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_pencil_eigvalsh_is_generalized_eigh(self, n):
        r = np.random.default_rng(n + 3).standard_normal((n, n))
        a, b = r + r.T, self._spd(n, n + 4)
        got = spectral_mod._pencil_eigvalsh(a, b, "gram")
        assert np.array_equal(got, sla.eigh(a, b, eigvals_only=True))

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_not_positive_definite_names_the_block(self, n):
        indefinite = -self._spd(n, n + 5)
        for label in ("leading", "first-schur", "second-schur"):
            with pytest.raises(DefinitenessError, match=f"^{label} block is not positive"):
                spectral_mod._cho(indefinite, label)
        with pytest.raises(DefinitenessError, match="^mass block is not positive"):
            spectral_mod._pencil_eigvalsh(np.eye(n), indefinite, "mass")

    def test_mass_not_positive_definite_is_typed(self):
        from saddlebounds import PoissonControlContext

        context = PoissonControlContext(mass=-np.eye(3), stiffness=np.eye(3), beta=1e-2)
        with pytest.raises(DefinitenessError, match="^mass block is not positive"):
            context.reference_regularization_ratio()

    def test_singular_gram_gives_infinite_ratio(self):
        gram = np.diag([1.0, 0.0, 2.0])
        assert regularization_ratio(np.eye(3), gram, True) == float("inf")

    def test_no_module_calls_a_scipy_linalg_solver(self):
        # the solvers' wrapper layers cost several times the LAPACK call at
        # desk scale; the helpers above make the same calls
        import ast
        import importlib

        found = []
        for name in TestOneBlasPool._MODULES:
            module = importlib.import_module(f"saddlebounds.{name}")
            with open(module.__file__) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("cho_factor", "cho_solve", "solve_triangular", "eigh")
                        and isinstance(node.value, ast.Name) and node.value.id == "sla"):
                    found.append(f"{name}:{node.lineno} sla.{node.attr}")
        assert found == []
        precond = importlib.import_module("saddlebounds.precond")
        assert "sla" not in vars(precond) and "scipy.linalg" not in {
            getattr(v, "__name__", None) for v in vars(precond).values()}

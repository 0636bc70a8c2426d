import numpy as np
import pytest
import scipy.sparse as sp

from saddlebounds import (
    DoubleSaddleSystem,
    assemble,
    full_spectrum,
    inertia,
    validate,
)
from saddlebounds.errors import StructuralError, UnsupportedLayoutError

from helpers import random_valid_system


def tiny_system():
    return DoubleSaddleSystem(
        A=np.eye(2),
        B=np.array([[1.0, 0.0]]),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        E=np.zeros((1, 1)),
    )


class TestValidate:
    def test_identity_blocks_pass(self):
        rep = validate(tiny_system())
        assert rep.ok
        assert rep.schur_definite == (True, True)
        assert rep.kernel_conditions == (True, True, True)
        assert rep.b_full_row_rank and rep.c_full_row_rank
        assert rep.c_nullity_k == 0

    def test_zero_b_violates_first_schur(self):
        system = DoubleSaddleSystem(
            A=np.eye(1), B=np.zeros((1, 1)), C=np.zeros((1, 1)),
            D=np.zeros((1, 1)), E=np.zeros((1, 1)),
        )
        rep = validate(system)
        assert rep.schur_definite == (False, False)
        assert rep.kernel_conditions[1] is False
        assert not rep.ok

    def test_zero_c_with_definite_e(self):
        system = DoubleSaddleSystem(
            A=np.diag([2.0, 2.0]), B=np.eye(2), C=np.zeros((1, 2)),
            D=np.zeros((2, 2)), E=np.array([[1.0]]),
        )
        rep = validate(system)
        assert not rep.c_full_row_rank
        assert rep.c_nullity_k == 1
        assert rep.schur_definite == (True, True)

    def test_dimension_mismatch_names_block(self):
        with pytest.raises(StructuralError, match="block C"):
            DoubleSaddleSystem(
                A=np.eye(3), B=np.ones((2, 3)), C=np.ones((1, 3)),
                D=np.zeros((2, 2)), E=np.zeros((1, 1)),
            )

    @pytest.mark.parametrize("name", "ABCDE")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, name, value):
        rng = np.random.default_rng(8)
        system, _ = random_valid_system(rng, 8, 6, 4)
        blocks = {key: getattr(system, key).copy() for key in "ABCDE"}
        blocks[name][0, 0] = value
        with pytest.raises(StructuralError, match=f"block {name} has non-finite"):
            DoubleSaddleSystem(**blocks)

    @pytest.mark.parametrize("name", "ABCDE")
    def test_non_finite_sparse_block_rejected(self, name):
        # the same check on a sparse block's stored entries
        rng = np.random.default_rng(8)
        system, _ = random_valid_system(rng, 8, 6, 4)
        blocks = {key: sp.csr_array(getattr(system, key)) for key in "ABCDE"}
        blocks[name].data[0] = np.nan
        with pytest.raises(StructuralError, match=f"block {name} has non-finite"):
            DoubleSaddleSystem(**blocks)

    def test_ordering_enforced(self):
        with pytest.raises(StructuralError, match="n >= m >= p"):
            DoubleSaddleSystem(
                A=np.eye(1), B=np.ones((2, 1)), C=np.ones((1, 2)),
                D=np.zeros((2, 2)), E=np.zeros((1, 1)),
            )


class TestAssemble:
    def test_scalar_blocks(self):
        a, b, c, d, e = 2.0, 1.0, 0.5, 0.25, 3.0
        system = DoubleSaddleSystem(
            A=[[a]], B=[[b]], C=[[c]], D=[[d]], E=[[e]]
        )
        expected = np.array([[a, b, 0.0], [b, -d, c], [0.0, c, e]])
        out = assemble(system)
        assert np.array_equal(out.data, expected)
        assert out.block_offsets == (0, 1, 2)

    def test_standard_is_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        system, _ = random_valid_system(rng, 7, 5, 3)
        data = assemble(system, "standard").data
        assert np.array_equal(data, data.T)

    def test_flipped_matches_reversed_blocks(self):
        rng = np.random.default_rng(4)
        system, _ = random_valid_system(rng, 4, 4, 4)
        flipped = assemble(system, "flipped").data
        n = 4
        assert np.array_equal(flipped[:n, :n], assemble(system).data[2 * n:, 2 * n:])
        assert np.array_equal(flipped[:n, n:2 * n], system.C)
        assert np.array_equal(flipped[2 * n:, n:2 * n], system.B.T)

    def test_flipped_requires_square_blocks(self):
        with pytest.raises(UnsupportedLayoutError):
            assemble(tiny_system(), "flipped")

    def test_flipped_and_standard_share_spectra(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            system, _ = random_valid_system(rng, 5, 5, 5)
            s1 = full_spectrum(assemble(system, "standard").data)
            s2 = full_spectrum(assemble(system, "flipped").data)
            assert np.allclose(s1, s2, atol=1e-12)

    def test_two_by_two_is_permutation_similar(self):
        rng = np.random.default_rng(12)
        system, _ = random_valid_system(rng, 6, 4, 2)
        s1 = full_spectrum(assemble(system, "standard").data)
        s2 = full_spectrum(assemble(system, "two-by-two").data)
        assert np.allclose(s1, s2, atol=1e-12)

    def test_inertia_of_valid_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            system, _ = random_valid_system(rng, 6, 4, 3)
            assert validate(system).ok
            assert inertia(assemble(system).data).astuple() == (9, 4, 0)


class TestUnregularized:
    def test_zeroes_both_blocks(self):
        rng = np.random.default_rng(5)
        system, _ = random_valid_system(rng, 5, 4, 2)
        bare = system.unregularized()
        assert not bare.D.any() and not bare.E.any()
        assert np.array_equal(bare.A, system.A)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        system, _ = random_valid_system(rng, 5, 4, 2)
        once = system.unregularized()
        twice = once.unregularized()
        assert np.array_equal(once.D, twice.D)
        assert np.array_equal(once.E, twice.E)

    def test_assembly_matches_zeroed_blocks(self):
        rng = np.random.default_rng(7)
        system, _ = random_valid_system(rng, 5, 4, 2)
        n, m, p = system.dims
        full = assemble(system).data.copy()
        full[n:n + m, n:n + m] = 0.0
        full[n + m:, n + m:] = 0.0
        assert np.array_equal(assemble(system.unregularized()).data, full)


class TestSparseBlocks:
    def test_sparse_blocks_stay_canonical_csr(self):
        rng = np.random.default_rng(9)
        system, _ = random_valid_system(rng, 8, 6, 4)
        coo = sp.coo_array(system.A)
        # duplicates are summed and an explicit zero is dropped
        half = coo.data / 2.0
        doubled = sp.coo_array(
            (np.r_[half, half, 0.0], (np.r_[coo.row, coo.row, 0], np.r_[coo.col, coo.col, 1])),
            shape=coo.shape,
        )
        sparse = DoubleSaddleSystem(doubled, sp.csr_array(system.B), system.C,
                                    sp.csr_array(system.D), system.E)
        assert isinstance(sparse.A, sp.csr_array) and sparse.A.has_canonical_format
        assert sparse.A.nnz == np.count_nonzero(system.A)
        assert isinstance(sparse.C, np.ndarray)
        assert sparse.is_sparse and not system.is_sparse
        assert system.dense() is system
        dense = sparse.dense()
        assert not dense.is_sparse
        for key in "ABCDE":
            assert np.array_equal(getattr(dense, key), getattr(system, key))
        assert np.array_equal(assemble(sparse).data, assemble(system).data)
        zeroed = sparse.unregularized()
        assert zeroed.D.nnz == 0 and zeroed.E.nnz == 0

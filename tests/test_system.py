import math
import mmap
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    assemble,
    PoissonControlContext,
    build_approx,
    build_exact,
    inertia,
    poisson_distributed,
    random_system,
    split_preconditioned_matrix,
    validate,
)
from saddlebounds.errors import StructuralError
from saddlebounds.report import analyze
import saddlebounds.system as system_mod
from saddlebounds.system import SYM_TOL, assemble_csr

from helpers import random_valid_system

# the extremes of the README's library tour
TOUR_EXTREMES = BlockExtremes(0.5, 3.0, 0.4, 2.0, 0.3, 1.5, 0.0, 0.5, 0.0, 0.4)


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
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
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

    def test_standard_is_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        system, _ = random_valid_system(rng, 7, 5, 3)
        data = assemble(system).data
        assert np.array_equal(data, data.T)

    def test_large_oracle_matrices_lie_in_maps_of_their_own(self, monkeypatch):
        # from 1 MiB up the N x N matrices of assemble and of the split
        # congruence each take an anonymous map, not heap space, and hold
        # bitwise the values the heap path gives
        system, _ = random_valid_system(np.random.default_rng(5), 200, 120, 60)
        op = build_exact(system)
        mapped = (assemble(system).data, split_preconditioned_matrix(system, op))
        for matrix in mapped:
            assert isinstance(matrix.base, mmap.mmap)
            assert matrix.flags.c_contiguous and matrix.flags.writeable
        monkeypatch.setattr(system_mod, "_MAPPED_BYTES", math.inf)
        heap = (assemble(system).data, split_preconditioned_matrix(system, op))
        for matrix, reference in zip(mapped, heap):
            assert reference.flags.owndata
            assert np.array_equal(matrix, reference)

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

    def test_csr_k_is_built_once_per_system_and_read_only(self):
        # the solve's K and the LUs of K2 and K share this one matrix, so
        # nobody may write it; a derived system builds its own
        system, _ = poisson_distributed(2**-3, 1e-3)
        k = assemble_csr(system)
        assert assemble_csr(system) is k
        for part in ("data", "indices", "indptr"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(k, part)[0] = 0
        assert np.array_equal(k.toarray(), assemble(system).data)
        bare = assemble_csr(system.unregularized())
        assert bare is not k and bare.shape == k.shape


class TestSymmetry:
    """Every symmetric input (A, D and E, the context's mass and stiffness,
    user preconditioner blocks) is made exactly symmetric once, where it
    enters."""

    # each input and the label its errors carry
    INPUTS = {
        **{name: f"block {name}" for name in "ADE"},
        "mass": "mass matrix",
        "stiffness": "stiffness matrix",
        "user": "user block 0",
    }

    @staticmethod
    def _input(name, seed):
        """The unperturbed input and a function that stores a replacement."""
        system = random_system(8, 6, 4, seed, TOUR_EXTREMES)
        if name in ("mass", "stiffness"):
            _, fem = poisson_distributed(0.25, 1e-3)
            matrices = {"mass": fem.mass_interior, "stiffness": fem.stiffness_interior}

            def store(block):
                context = PoissonControlContext(beta=1e-3, **{**matrices, name: block})
                return getattr(context, name)

            return matrices[name].toarray(), store
        if name == "user":
            def store(block):
                op = build_approx(system, ("user", "exact", "exact"),
                                  user_blocks=[block, None, None])
                return op.blocks[0]

            return system.A, store
        blocks = {key: getattr(system, key) for key in "ABCDE"}

        def store(block):
            return getattr(DoubleSaddleSystem(**{**blocks, name: block}), name)

        return blocks[name], store

    @settings(max_examples=180, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(INPUTS)),
        log_eps=st.floats(-16.0, -6.0),
        sparse=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_antisymmetric_perturbation(self, name, log_eps, sparse, seed):
        # X + eps max|X| N with N antisymmetric, max|N| = 1, has
        # max|X - X^T| = 2 eps max|X|: within SYM_TOL exactly when
        # 2 eps <= SYM_TOL.  A thin band around the threshold, where the
        # rounding of the perturbed entries decides, is left out.
        eps = 10.0**log_eps
        assume(abs(math.log(2.0 * eps / SYM_TOL)) > 0.01)
        block, store = self._input(name, seed)
        upper = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, block.shape), 1)
        noise = (upper - upper.T) / np.abs(upper).max()
        scale = np.abs(block).max()
        perturbed = block + eps * scale * noise
        given_block = sp.csr_array(perturbed) if sparse else perturbed
        if 2.0 * eps > SYM_TOL:
            with pytest.raises(StructuralError,
                               match=f"{self.INPUTS[name]} is not symmetric"):
                store(given_block)
            return
        stored = store(given_block)
        assert sp.issparse(stored) is sparse
        stored = stored.toarray() if sparse else stored
        assert np.array_equal(stored, stored.T)
        assert np.abs(stored - perturbed).max() <= (eps + 2.0**-52) * scale

    @pytest.mark.parametrize("precond, calls", [
        ("jacobi", 6), ("exact", 3), ("scaled:0.5", 6),
    ])
    def test_analyze_symmetrizes_only_formed_or_outside_matrices(
        self, precond, calls, monkeypatch
    ):
        # after construction, the only symmetrizations left in an analysis
        # are of the diagonal blocks of its split congruences, one per
        # preconditioned scenario; an exact prec-inexact operator holds the
        # prec-exact one's factors, so the two share one split matrix
        system = random_system(8, 6, 4, 7, TOUR_EXTREMES)
        callers = []
        for module in [m for k, m in sys.modules.items() if k.startswith("saddlebounds")]:
            original = vars(module).get("_sym")
            if original is None:
                continue

            def counted(block, original=original):
                frame = sys._getframe(1)
                while frame.f_code.co_name.startswith("<"):  # a comprehension
                    frame = frame.f_back
                callers.append(frame.f_code.co_name)
                return original(block)

            monkeypatch.setattr(module, "_sym", counted)
        report = analyze(system, scenarios=("unprec", "prec-exact", "prec-inexact"),
                         precond=precond)
        assert report.passed
        assert set(callers) == {"split_preconditioned_matrix"}
        assert len(callers) == calls

import numpy as np
import pytest
import scipy.sparse as sp

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    assemble,
    bounds_unpreconditioned,
    cubic_from_params,
    distributed_context,
    extremal_eigs,
    full_spectrum,
    inertia,
    nullity_system,
    poisson_boundary,
    poisson_distributed,
    q1_discretize,
    random_system,
    solve_classified,
    tightness_lower_positive,
    tightness_upper_negative,
    validate,
    verify_containment,
)
from saddlebounds.errors import ParameterError
from saddlebounds.problems import _MASS_REF, _STIFF_REF

from helpers import measured_etas, random_extremes


class TestTightnessFixtures:
    def test_upper_negative_attained_for_unit_params(self):
        system = tightness_upper_negative(1.0, 1.0, 1.0, 1.0, 1.0)
        values = full_spectrum(assemble(system).data)
        assert np.abs(values - (1.0 - np.sqrt(5.0)) / 2.0).min() <= 1e-12

    def test_upper_negative_attained_for_random_params(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            a, b, d, c, e = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 5))
            system = tightness_upper_negative(a, b, d, c, e)
            endpoint = bounds_unpreconditioned(
                BlockExtremes.from_system(system)
            ).negative.hi
            values = full_spectrum(assemble(system).data)
            assert np.abs(values - endpoint).min() <= 1e-12

    def test_upper_negative_permutes_to_block_diagonal(self):
        system = tightness_upper_negative(2.0, 1.5, 1.0, 0.5, 3.0)
        matrix = assemble(system).data
        # rows/cols (0, 2) decouple from (1, 3, 4)
        perm = [0, 2, 1, 3, 4]
        shuffled = matrix[np.ix_(perm, perm)]
        assert np.allclose(shuffled[:2, 2:], 0.0)
        assert np.allclose(shuffled[2:, :2], 0.0)

    def test_lower_positive_attained_for_unit_params(self):
        system = tightness_lower_positive(1.0, 1.0, 1.0, 1.0, 1.0)
        values = full_spectrum(assemble(system).data)
        roots = solve_classified(cubic_from_params(1.0, 1.0, 1.0, 1.0, 0.0))
        for root in roots.astuple():
            assert np.abs(values - root).min() <= 1e-12

    def test_lower_positive_attains_bound_endpoint(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            a, b, c, d, e = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 5))
            system = tightness_lower_positive(a, b, c, d, e)
            endpoint = bounds_unpreconditioned(
                BlockExtremes.from_system(system)
            ).positive.lo
            values = full_spectrum(assemble(system).data)
            assert np.abs(values - endpoint).min() <= 1e-12

    def test_lower_positive_inertia(self):
        system = tightness_lower_positive(1.0, 1.0, 1.0, 1.0, 1.0)
        assert inertia(assemble(system).data).astuple() == (4, 2, 0)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ParameterError):
            tightness_upper_negative(1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            tightness_lower_positive(1.0, 1.0, -1.0, 1.0, 1.0)


class TestRandomSystem:
    def test_measured_extremes_match_request(self):
        rng = np.random.default_rng(83)
        extremes = random_extremes(rng, 9, 6, 4)
        system = random_system(9, 6, 4, 7, extremes)
        measured = BlockExtremes.from_system(system)
        for name in (
            "mu_min_a", "mu_max_a", "sigma_min_b", "sigma_max_b",
            "sigma_min_c", "sigma_max_c", "mu_min_d", "mu_max_d",
            "mu_min_e", "mu_max_e",
        ):
            assert getattr(measured, name) == pytest.approx(
                getattr(extremes, name), abs=1e-10
            )

    def test_same_seed_reproduces_bit_for_bit(self):
        rng = np.random.default_rng(84)
        extremes = random_extremes(rng, 6, 4, 2)
        first = random_system(6, 4, 2, 123, extremes)
        second = random_system(6, 4, 2, 123, extremes)
        for key in "ABCDE":
            assert np.array_equal(getattr(first, key), getattr(second, key))

    def test_spectra_within_bounds_over_seeds(self):
        rng = np.random.default_rng(85)
        extremes = random_extremes(rng, 8, 5, 3)
        iv = bounds_unpreconditioned(extremes)
        for seed in range(20):
            system = random_system(8, 5, 3, seed, extremes)
            values = full_spectrum(assemble(system).data)
            assert verify_containment(values, iv, tol=1e-9).passed

    def test_impossible_extremes_rejected(self):
        with pytest.raises(ParameterError):
            BlockExtremes(2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_generated_systems_validate(self):
        rng = np.random.default_rng(86)
        for _ in range(5):
            extremes = random_extremes(rng, 7, 5, 2)
            system = random_system(7, 5, 2, int(rng.integers(1 << 30)), extremes)
            assert validate(system).ok


class TestNullitySystem:
    def test_prescribed_nullity(self):
        for k in (0, 1, 2):
            system = nullity_system(8, 6, 4, k, seed=11 + k)
            rep = validate(system)
            assert rep.c_nullity_k == k
            assert rep.schur_definite == (True, True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            nullity_system(8, 6, 4, 5, seed=1)


def _add_at_assembly(h: float) -> dict:
    """The dense np.add.at assembly that the COO assembly replaced, kept as
    the reference: mass, stiffness, boundary mass and coupling."""
    nx = int(round(1.0 / h))
    nn = nx + 1

    def node(i, j):
        return j * nn + i

    cells = np.array([
        (node(ci, cj), node(ci + 1, cj), node(ci + 1, cj + 1), node(ci, cj + 1))
        for cj in range(nx) for ci in range(nx)
    ])
    mass = np.zeros((nn * nn, nn * nn))
    stiffness = np.zeros((nn * nn, nn * nn))
    for a in range(4):
        for b in range(4):
            np.add.at(mass, (cells[:, a], cells[:, b]), h * h * _MASS_REF[a, b])
            np.add.at(stiffness, (cells[:, a], cells[:, b]), _STIFF_REF[a, b])

    path = (
        [node(0, j) for j in range(nn)]
        + [node(i, nx) for i in range(1, nn)]
        + [node(nx, j) for j in range(nx - 1, -1, -1)]
    )
    path_mass = np.zeros((len(path), len(path)))
    seg = h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    for s in range(len(path) - 1):
        path_mass[s : s + 2, s : s + 2] += seg
    boundary_mass = path_mass[1:-1, 1:-1]
    free = [g for g in range(nn * nn) if g >= nn]
    free_pos = {g: i for i, g in enumerate(free)}
    coupling = np.zeros((len(free), len(path) - 2))
    for s, g in enumerate(path[1:-1]):
        coupling[free_pos[g], :] = boundary_mass[s, :]
    return {"mass": mass, "stiffness": stiffness,
            "boundary_mass": boundary_mass, "coupling": coupling}


class TestQ1Discretization:
    @pytest.mark.parametrize("h", [2**-1, 2**-3, 2**-4])
    def test_coo_assembly_matches_the_dense_add_at_assembly(self, h):
        fem = q1_discretize(h)
        for name, reference in _add_at_assembly(h).items():
            block = getattr(fem, name)
            assert isinstance(block, sp.csr_array), name
            dense = block.toarray()
            assert block.nnz == np.count_nonzero(reference), name
            assert np.array_equal(dense != 0, reference != 0), name
            np.testing.assert_allclose(dense, reference, rtol=1e-15, atol=0)

    def test_mass_total_is_domain_area(self):
        fem = q1_discretize(2**-3)
        assert fem.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stiffness_rows_sum_to_zero(self):
        fem = q1_discretize(2**-3)
        assert np.abs(fem.stiffness.sum(axis=1)).max() <= 1e-12

    def test_mass_eigenvalue_envelope(self):
        for h in (2**-3, 2**-4):
            fem = q1_discretize(h)
            lo, hi = extremal_eigs(fem.mass)
            assert lo >= h**2 / 50.0
            assert hi <= 5.0 * h**2
        # condition number bounded independent of h
        fem3, fem4 = q1_discretize(2**-3), q1_discretize(2**-4)
        c3 = np.divide(*extremal_eigs(fem3.mass)[::-1])
        c4 = np.divide(*extremal_eigs(fem4.mass)[::-1])
        assert abs(c3 - c4) / c3 < 0.5

    def test_stiffness_scales(self):
        fem = q1_discretize(2**-4)
        lo, hi = extremal_eigs(fem.stiffness_interior)
        assert 1.0 <= hi <= 6.0  # O(1) top
        assert lo == pytest.approx(2.0 * np.pi**2 * fem.h**2, rel=0.1)

    def test_invalid_mesh_width(self):
        with pytest.raises(ParameterError):
            q1_discretize(0.3)
        with pytest.raises(ParameterError):
            q1_discretize(1.0)


class TestPoissonDistributed:
    def test_square_blocks(self):
        system, fem = poisson_distributed(2**-3, 1e-3)
        n, m, p = system.dims
        assert n == m == p == (fem.cells_per_side - 1) ** 2

    def test_inertia(self):
        system, _ = poisson_distributed(2**-3, 1e-3)
        n = system.dims[0]
        assert inertia(assemble(system).data).astuple() == (2 * n, n, 0)

    def test_flipped_roles_match_reordered_original(self):
        beta = 1e-3
        flipped, fem = poisson_distributed(2**-3, beta)
        mi, ki = fem.mass_interior, fem.stiffness_interior
        n = mi.shape[0]
        original = DoubleSaddleSystem(A=mi, B=ki, C=-mi, D=sp.csr_array((n, n)),
                                      E=beta * mi)
        # reversing the three variable groups (all of size n) turns the
        # original matrix (M, K, -M, 0, beta M) into the flipped one
        order = np.r_[2 * n:3 * n, n:2 * n, 0:n]
        reordered = assemble(original).data[np.ix_(order, order)]
        assert np.array_equal(assemble(flipped).data, reordered)

    def test_reference_ratio_scale(self):
        _, fem = poisson_distributed(2**-4, 1e-3)
        ctx = distributed_context(fem, 1e-3)
        eta = ctx.reference_regularization_ratio()
        assert 2.6e-8 <= eta <= 2.6e-6

    def test_definitional_ratio_differs_by_beta_squared(self):
        beta = 1e-3
        system, fem = poisson_distributed(2**-3, beta)
        ctx = distributed_context(fem, beta)
        assert ctx.reference_regularization_ratio() == pytest.approx(
            beta**2 * measured_etas(system)[1], rel=1e-8
        )


class TestPoissonBoundary:
    def test_control_space_smaller_than_state(self):
        system = poisson_boundary(2**-3, 1e-3)
        n, m, p = system.dims
        assert n == m
        assert p < n
        assert p == 3 * 8 - 1

    def test_inertia(self):
        system = poisson_boundary(2**-3, 1e-3)
        n, _, p = system.dims
        assert inertia(assemble(system).data).astuple() == (n + p, n, 0)

    def test_spectrum_within_unpreconditioned_bounds(self):
        system = poisson_boundary(2**-3, 1e-3)
        iv = bounds_unpreconditioned(BlockExtremes.from_system(system))
        values = full_spectrum(assemble(system).data)
        assert verify_containment(values, iv, tol=1e-9).passed

    def test_validates_clean(self):
        rep = validate(poisson_boundary(2**-3, 1e-2))
        assert rep.ok
        assert rep.c_nullity_k == 0

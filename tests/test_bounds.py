import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds import (
    BlockExtremes,
    BoundIntervals,
    DoubleSaddleSystem,
    EquivalenceConstants,
    Interval,
    assemble,
    bounds_k0,
    bounds_precond_exact,
    bounds_precond_inexact,
    bounds_unpreconditioned,
    cubic_from_params,
    exact_preconditioner_roots,
    full_spectrum,
    random_system,
    solve_classified,
    validate,
    verify_containment,
)
from saddlebounds.bounds import (
    CLUSTER_TOL,
    CONTAINMENT_TOL,
    GOLDEN_LOWER,
    GOLDEN_UPPER,
    ContainmentReport,
    EigenvalueVerdict,
)
from saddlebounds.errors import ParameterError
from saddlebounds.problems import haar_orthogonal
from saddlebounds.report import SCENARIOS, analyze
from saddlebounds.spectral import RANK_TOL

from helpers import companion_roots, random_valid_system

# endpoints of x^3 - x^2 - 2x + 1 as printed to four decimals
REF_NEG = -1.2470
REF_POS_MIN = 0.4450
REF_POS_MAX = 1.8019


class TestCubicFromParams:
    def test_all_ones_reference_cubic(self):
        cubic = cubic_from_params(1.0, 1.0, 1.0, 0.0, 0.0)
        assert cubic.coefficients == (1.0, -1.0, -2.0, 1.0)

    def test_direct_substitution(self):
        cubic = cubic_from_params(2.0, 1.0, 1.0, 0.0, 0.0)
        assert cubic.coefficients == (1.0, -2.0, -2.0, 2.0)

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            a, b, c = np.exp(rng.uniform(-1.5, 1.5, 3))
            d, e = rng.uniform(0.0, 2.0, 2)
            cubic = cubic_from_params(a, b, c, d, e)
            block = np.array([[a, b, 0.0], [b, -d, c], [0.0, c, e]])
            eigs = np.linalg.eigvalsh(block)
            assert np.allclose(np.sort(companion_roots(cubic)), eigs, atol=1e-9)

    def test_precondition_violations_named(self):
        with pytest.raises(ParameterError, match="a > 0"):
            cubic_from_params(0.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError, match="s1"):
            cubic_from_params(1.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError, match="s2"):
            cubic_from_params(1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterError, match="d, e >= 0"):
            cubic_from_params(1.0, 1.0, 1.0, -0.1, 0.0)


class TestSolveClassified:
    def test_reference_cubic_roots(self):
        roots = solve_classified(cubic_from_params(1.0, 1.0, 1.0, 0.0, 0.0))
        assert roots.neg == pytest.approx(REF_NEG, abs=1e-4)
        assert roots.pos_min == pytest.approx(REF_POS_MIN, abs=1e-4)
        assert roots.pos_max == pytest.approx(REF_POS_MAX, abs=1e-4)

    def test_exactly_factorable(self):
        # diag(2, -1, 1): roots -1, 1, 2
        roots = solve_classified(cubic_from_params(2.0, 0.0, 0.0, 1.0, 1.0))
        assert roots.astuple() == pytest.approx((-1.0, 1.0, 2.0), abs=1e-14)

    def test_double_root_returned_at_the_critical_point(self):
        # diag(1, -1, 1): p(x) = (x - 1)^2 (x + 1), whose local minimum is the pair
        roots = solve_classified(cubic_from_params(1.0, 0.0, 0.0, 1.0, 1.0))
        assert roots.astuple() == (-1.0, 1.0, 1.0)

    def test_depressed_cubic_negative_root(self):
        # x^3 - 3x + 1
        cubic = cubic_from_params(1.0, 1.0, 1.0, 1.0, 0.0)
        assert cubic.coefficients == (1.0, 0.0, -3.0, 1.0)
        roots = solve_classified(cubic)
        oracle = companion_roots(cubic)
        assert roots.neg == pytest.approx(-1.8794, abs=1e-4)
        assert roots.neg == pytest.approx(oracle[0], abs=1e-12)

    def test_small_positive_root_kept_apart_from_the_pair(self):
        # pos_min three decades below pos_max, with neg at -2.356e6
        roots = solve_classified(cubic_from_params(8.445e-8, 2.092e-6, 5.454e-6, 2.356e6, 9.017e-5))
        assert roots.pos_min == pytest.approx(8.445e-8, rel=1e-6)
        assert roots.pos_max == pytest.approx(9.017e-5, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 20.0),
        b=st.floats(0.05, 20.0),
        c=st.floats(0.05, 20.0),
        d=st.floats(0.0, 20.0),
        e=st.floats(0.0, 20.0),
    )
    def test_family_always_classifies(self, a, b, c, d, e):
        cubic = cubic_from_params(a, b, c, d, e)
        roots = solve_classified(cubic)
        assert roots.neg < 0.0 < roots.pos_min <= roots.pos_max
        for root in roots.astuple():
            assert abs(cubic(root)) <= 1e-10 * (1.0 + abs(root) ** 3)

    def test_extreme_parameter_contrast(self):
        # spreads of 12 orders of magnitude lose the small root pair in the
        # plain depressed form; the deflated reconstruction must recover it
        hard = [
            (1e-6, 1e-6, 1e-6, 1e6, 0.0),
            (1e3, 1e-6, 1e-6, 0.0, 0.0),
            (1e3, 1.0, 1e-6, 1e6, 0.0),
            (1e6, 1e-6, 1.0, 1e6, 1e6),
            (1e6, 1e-6, 1e6, 0.0, 1e-9),
        ]
        for params in hard:
            cubic = cubic_from_params(*params)
            roots = solve_classified(cubic)
            assert roots.neg < 0.0 < roots.pos_min <= roots.pos_max
            xmax = max(abs(roots.neg), roots.pos_max)
            scale = xmax**3 + abs(cubic.c2) * xmax**2 + abs(cubic.c1) * xmax + abs(cubic.c0)
            for root in roots.astuple():
                assert abs(cubic(root)) <= 1e-9 * scale


def _upper_negative_reference(mu: float, s2: Decimal) -> float:
    """(mu - sqrt(mu^2 + 4 s2)) / 2 to 60 digits; call it, and form s2, in
    a 60-digit decimal context."""
    mu = Decimal(mu)
    return float((mu - (mu * mu + 4 * s2).sqrt()) / 2)


def _all_ones_extremes():
    return BlockExtremes(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestBoundsUnpreconditioned:
    def test_all_ones_collapses_to_reference_roots(self):
        iv = bounds_unpreconditioned(_all_ones_extremes())
        assert iv.negative.lo == pytest.approx(REF_NEG, abs=1e-4)
        assert iv.negative.hi == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
        assert iv.positive.lo == pytest.approx(REF_POS_MIN, abs=1e-4)
        assert iv.positive.hi == pytest.approx(REF_POS_MAX, abs=1e-4)

    def test_random_systems_contained(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            system, _ = random_valid_system(rng, 7, 5, 3)
            iv = bounds_unpreconditioned(BlockExtremes.from_system(system))
            spectrum = full_spectrum(assemble(system).data)
            assert verify_containment(spectrum, iv, tol=1e-9).passed

    def test_degenerate_coupling_flags_warning(self):
        x = BlockExtremes(1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.5)
        iv = bounds_unpreconditioned(x)
        assert iv.degenerate_interior
        assert iv.negative.hi == 0.0
        assert iv.positive.lo == 0.0

    @pytest.mark.parametrize("ratio, degenerate", [(RANK_TOL, True), (2 * RANK_TOL, False)])
    def test_degenerate_rule_is_the_rank_rule(self, ratio, degenerate):
        # the coupling ranks validate reports and the degenerate endpoints
        # are one test of the same singular values
        system = DoubleSaddleSystem(
            A=np.eye(3), B=np.array([[1.0, 0.0, 0.0], [0.0, ratio, 0.0]]),
            C=np.array([[ratio, 0.0], [0.0, 1.0]]), D=np.eye(2), E=np.eye(2))
        report = validate(system)
        assert (report.b_full_row_rank, report.c_full_row_rank) == (not degenerate,) * 2
        iv = bounds_unpreconditioned(report.extremes)
        assert iv.degenerate_interior is degenerate
        assert (iv.negative.hi == 0.0, iv.positive.lo == 0.0) == (degenerate,) * 2

    def test_upper_negative_endpoint_without_cancellation(self):
        # the textbook (mu - sqrt(mu^2 + 4 s^2)) / 2 gave -1.6391e-7 on the
        # first row and was off by up to 2.9e16 ulp over these ranges
        first = (52785189.091158904, 2.9308691432569582)
        rng = np.random.default_rng(46)
        rows = [first, *zip(10.0 ** rng.uniform(0, 10, 300), 10.0 ** rng.uniform(-3, 2, 300))]
        for mu, sigma in rows:
            x = BlockExtremes(1.0, mu, sigma, max(sigma, 1.0), 1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
            got = bounds_unpreconditioned(x).negative.hi
            with localcontext(prec=60):
                want = _upper_negative_reference(mu, Decimal(sigma) ** 2)
            assert abs(got - want) <= 3 * math.ulp(want), (mu, sigma)
            if (mu, sigma) == first:
                assert got == pytest.approx(-1.6273e-7, rel=1e-4)

    def test_monotone_under_widening(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            system, _ = random_valid_system(rng, 6, 4, 2)
            x = BlockExtremes.from_system(system)
            iv = bounds_unpreconditioned(x)
            factor = 1.0 + rng.uniform(0.01, 0.5)
            wide = BlockExtremes(
                x.mu_min_a / factor, x.mu_max_a * factor,
                x.sigma_min_b / factor, x.sigma_max_b * factor,
                x.sigma_min_c / factor, x.sigma_max_c * factor,
                x.mu_min_d / factor, x.mu_max_d * factor,
                x.mu_min_e / factor, x.mu_max_e * factor,
            )
            wide_iv = bounds_unpreconditioned(wide)
            assert wide_iv.negative.lo <= iv.negative.lo + 1e-12
            assert wide_iv.negative.hi >= iv.negative.hi - 1e-12
            assert wide_iv.positive.lo <= iv.positive.lo + 1e-12
            assert wide_iv.positive.hi >= iv.positive.hi - 1e-12

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 14),
        m_frac=st.floats(0.0, 1.0),
        p_frac=st.floats(0.0, 1.0),
        lost_b=st.floats(0.0, 1.0),
        lost_c=st.floats(0.0, 1.0),
        d_zero=st.booleans(),
        e_zero=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_rank_deficient_couplings_contained(
        self, n, m_frac, p_frac, lost_b, lost_c, d_zero, e_zero, log_scale, seed
    ):
        # B and C lose some but not all of their singular values (at least
        # one between them), so the measured extremes take the
        # degenerate_interior path; K may then be singular, and its dense
        # spectrum must still lie in the intervals
        m = 2 + int(m_frac * (n - 2))
        p = 1 + int(p_frac * (m - 1))
        k_b, k_c = round(lost_b * (m - 1)), round(lost_c * (p - 1))
        if k_b + k_c == 0:
            k_b = 1
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale

        def sym(dim, lo, hi):
            q = haar_orthogonal(rng, dim)
            return (q * rng.uniform(lo, hi, dim)) @ q.T

        def coupling(rows, cols, lost):
            svals = scale * rng.uniform(0.2, 2.0, rows)
            svals[:lost] = 0.0
            u, v = haar_orthogonal(rng, rows), haar_orthogonal(rng, cols)
            return (u * svals) @ v[:, :rows].T

        system = DoubleSaddleSystem(
            A=sym(n, 0.5, 4.0), B=coupling(m, n, k_b), C=coupling(p, m, k_c),
            D=np.zeros((m, m)) if d_zero else sym(m, 0.0, 1.0),
            E=np.zeros((p, p)) if e_zero else sym(p, 0.0, 1.0),
        )
        bounds = bounds_unpreconditioned(BlockExtremes.from_system(system))
        assert bounds.degenerate_interior
        assert (bounds.negative.hi == 0.0) is (k_b > 0)
        assert (bounds.positive.lo == 0.0) is (k_c > 0)
        spectrum = full_spectrum(assemble(system).data)
        report = verify_containment(spectrum, bounds, tol=CONTAINMENT_TOL)
        assert report.passed, [v.value for v in report.verdicts if not v.ok]


def _count_below(diag, off, sigma) -> int:
    """Eigenvalues below ``sigma`` of the symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``: the negative pivots of the
    LDL^T of T - sigma I, in the exact arithmetic of the entries.  A zero
    pivot ahead of a nonzero coupling opens a 2x2 block with one negative
    eigenvalue, so the next pivot counts as -inf."""
    count, prev = 0, None  # None: the previous pivot is infinite
    for i, alpha in enumerate(diag):
        coupling = off[i - 1] ** 2 if i else 0
        if prev == 0 and coupling:
            count, prev = count + 1, None
            continue
        pivot = alpha - sigma - (coupling / prev if prev else 0)
        count += pivot < 0
        prev = pivot
    return count


def _exact_count(params, lo: float, hi: float) -> int:
    """Eigenvalues of [[a, b, 0], [b, -d, c], [0, c, e]] in [lo, hi],
    counted by Sturm sequences on the exact rationals of the floats."""
    a, b, c, d, e = map(Fraction, params)
    diag, off = (a, -d, e), (b, c)
    return (3 - _count_below(diag, off, Fraction(lo))
            - _count_below([-x for x in diag], off, -Fraction(hi)))


def _draw(stratum: str, rng) -> tuple[float, ...]:
    """One parameter set (a, b, c, d, e): ``wide`` spreads all five over
    10^[-8, 8] and zeroes d and e in a fifth of draws each; ``equal`` sets
    e = a with small couplings, which makes the positive pair nearly
    double; ``near`` moves e off a by a relative 1e-16 to 1e-8."""
    if stratum == "wide":
        a, b, c, d, e = (10.0 ** rng.uniform(-8, 8, 5)).tolist()
        return a, b, c, 0.0 if rng.random() < 0.2 else d, 0.0 if rng.random() < 0.2 else e
    a = 10.0 ** rng.uniform(-8, 8)
    b, c = (a * 10.0 ** rng.uniform(-8, -1, 2)).tolist()
    d = 0.0 if rng.random() < 0.2 else a * 10.0 ** rng.uniform(-3, 3)
    if stratum == "equal":
        return a, b, c, d, a
    return a, b, c, d, a * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -8))


def _merged_count(params, iv: BoundIntervals) -> int:
    """Eigenvalues of the 1x1x1 matrix of ``params`` in the union of the two
    intervals of ``iv``, each inflated by ``CONTAINMENT_TOL``; an eigenvalue
    in the overlap of the two intervals counts once."""
    neg = iv.negative.inflate(CONTAINMENT_TOL)
    pos = iv.positive.inflate(CONTAINMENT_TOL)
    spans = [Interval(neg.lo, max(neg.hi, pos.hi))] if pos.lo <= neg.hi else [neg, pos]
    return sum(_exact_count(params, *span) for span in spans)


def _draw_inexact(rng):
    """Constants, ratios and case flags of one inexact bound, drawn as
    alpha_i = 10^U(-3, 3), beta_i = alpha_i 10^U(0, 3) and eta = 10^U(-6, 3),
    with each case flag on (and its eta zero) in a quarter of draws."""
    alphas = 10.0 ** rng.uniform(-3.0, 3.0, 3)
    betas = alphas * 10.0 ** rng.uniform(0.0, 3.0, 3)
    consts = EquivalenceConstants(*np.column_stack([alphas, betas]).ravel().tolist())
    d_zero, e_zero = (bool(flag) for flag in rng.random(2) < 0.25)
    eta_d, eta_e = (0.0 if zero else 10.0 ** rng.uniform(-6.0, 3.0)
                    for zero in (d_zero, e_zero))
    return consts, eta_d, eta_e, d_zero, e_zero


def _envelope_ranges(consts, eta_d, eta_e, d_zero, e_zero):
    """The ranges of (a, b, c, d, e) the split matrix's blocks lie in: the
    leading block, both couplings' singular values and both regularization
    blocks, as the docstring of ``bounds_precond_inexact`` derives them."""
    a0, b0 = consts.alpha0, consts.beta0
    a1, b1 = consts.alpha1, consts.beta1
    a2, b2 = consts.alpha2, consts.beta2
    return ((a0, b0),
            (math.sqrt(a0 * a1 / (1.0 + eta_d)), math.sqrt(b0 * b1)),
            (math.sqrt(a1 * a2 / (1.0 + eta_e)), math.sqrt(b1 * b2)),
            (0.0, 0.0 if d_zero else b1),
            (0.0, 0.0 if e_zero else b2))


# 1x1x1 systems (A, B, C, D, E) whose bounds the former root vote got wrong:
# R1 lost the eigenvalue 1.7e-23 (a repeated root won the vote), R2 raised
# ClassificationError (its positive pair is double to 5e-10)
R1 = (0.0453, 3.376e-6, 3.319e-8, 6.433e7, 0.0)
R2 = (0.47959838325632587, 1.922470567071254e-06, 1.0480831764665423e-05,
      0.002796416328746761, 0.47959838325632587)


class TestExactContainment:
    @pytest.mark.parametrize("stratum, seed", [("wide", 60), ("equal", 61), ("near", 62)])
    def test_point_extremes_hold_all_three_eigenvalues(self, stratum, seed):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            params = a, b, c, d, e = _draw(stratum, rng)
            iv = bounds_unpreconditioned(BlockExtremes(a, a, b, b, c, c, d, d, e, e))
            assert _merged_count(params, iv) == 3, params

    def test_inexact_envelope_holds_all_three_eigenvalues(self):
        # each value of the 1x1x1 matrix sits at its envelope range's lower
        # end, its upper end, or uniformly between them
        rng = np.random.default_rng(63)
        for _ in range(1000):
            bound = _draw_inexact(rng)
            iv = bounds_precond_inexact(*bound)
            params = tuple(
                (lo, hi, lo + (hi - lo) * rng.random())[rng.integers(3)]
                for lo, hi in _envelope_ranges(*bound))
            assert _merged_count(params, iv) == 3, (bound, params)

    @pytest.mark.parametrize("params", [R1, R2], ids=["R1", "R2"])
    def test_one_by_one_regression_rows(self, params):
        system = DoubleSaddleSystem(*(np.array([[v]]) for v in params))
        report = analyze(system, SCENARIOS, precond="exact")
        assert [entry.get("error") for entry in report.scenarios] == [None] * 3
        assert report.passed

    @pytest.mark.parametrize("seed", [21, 25])
    def test_small_couplings_classify(self, seed):
        x = BlockExtremes(1, 2, 1e-5, 2e-5, 1e-5, 2e-5, 0, 0.5, 1, 1)
        report = analyze(random_system(8, 6, 4, seed, x), ("unprec",))
        assert "error" not in report.scenarios[0]
        assert report.passed


class TestBoundsK0:
    def test_equals_unpreconditioned_with_zeroed_regularization(self):
        rng = np.random.default_rng(44)
        _, x = random_valid_system(rng, 6, 4, 2)
        via_k0 = bounds_k0(x)
        via_full = bounds_unpreconditioned(x.without_regularization())
        assert via_k0.negative == via_full.negative
        assert via_k0.positive == via_full.positive

    def test_all_ones_same_intervals(self):
        iv = bounds_k0(_all_ones_extremes())
        assert iv.positive.lo == pytest.approx(REF_POS_MIN, abs=1e-4)
        assert iv.positive.hi == pytest.approx(REF_POS_MAX, abs=1e-4)

    def test_unregularized_random_contained(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            system, _ = random_valid_system(rng, 7, 4, 2, d_zero=True, e_zero=True)
            iv = bounds_k0(BlockExtremes.from_system(system))
            spectrum = full_spectrum(assemble(system).data)
            assert verify_containment(spectrum, iv, tol=1e-9).passed


class TestBoundsPrecondExact:
    def test_six_distinct_values(self):
        iv = bounds_precond_exact((9, 6, 4), d_zero=True, e_zero=True)
        values = sorted(v for v, _ in iv.discrete)
        expected = sorted([1.0, GOLDEN_UPPER, GOLDEN_LOWER, -1.2470, 0.4450, 1.8019])
        assert values == pytest.approx(expected, abs=1e-4)
        assert sum(k for _, k in iv.discrete) == 19

    def test_regularized_intervals(self):
        iv = bounds_precond_exact((9, 6, 4), d_zero=False, e_zero=False)
        assert iv.negative.lo == pytest.approx(-1.6180, abs=1e-4)
        assert iv.negative.hi == pytest.approx(-0.6180, abs=1e-4)
        assert iv.positive.lo == pytest.approx(0.4450, abs=1e-4)
        assert iv.positive.hi == pytest.approx(1.8019, abs=1e-4)
        # middle-regularized only: same intervals
        other = bounds_precond_exact((9, 6, 4), d_zero=False, e_zero=True)
        assert other.negative == iv.negative
        assert other.positive == iv.positive

    def test_middle_unregularized_multiplicities(self):
        n, m, p, k = 9, 6, 4, 1
        iv = bounds_precond_exact((n, m, p), d_zero=True, e_zero=False, nullity_k=k)
        discrete = dict(iv.discrete)
        assert discrete[1.0] == n - m + k
        assert discrete[GOLDEN_UPPER] == m - p + k
        assert discrete[GOLDEN_LOWER] == m - p + k
        assert all(count == p - k for _, count in iv.interval_counts)
        total = sum(discrete.values()) + sum(c for _, c in iv.interval_counts)
        assert total == iv.total_count == n + m + p

    def test_equal_dims_zero_multiplicities(self):
        iv = bounds_precond_exact((5, 5, 5), d_zero=True, e_zero=False, nullity_k=0)
        assert all(count == 0 for _, count in iv.discrete)
        assert all(count == 5 for _, count in iv.interval_counts)

    def test_bad_nullity_rejected(self):
        with pytest.raises(ParameterError):
            bounds_precond_exact((5, 4, 3), d_zero=True, e_zero=False, nullity_k=4)
        with pytest.raises(ParameterError):
            bounds_precond_exact((5, 4, 3), d_zero=True, e_zero=True, nullity_k=1)


class TestBoundsPrecondInexact:
    def test_exact_constants_collapse(self):
        consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        iv = bounds_precond_inexact(consts)
        assert iv.positive.hi == pytest.approx(2.0, abs=1e-12)
        assert iv.negative.lo == pytest.approx(-1.8794, abs=1e-4)
        assert iv.negative.hi == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
        assert iv.upper_negative_estimate == pytest.approx(-1.0, abs=1e-15)

    def test_contains_exact_preconditioner_intervals(self):
        consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        loose = bounds_precond_inexact(consts)
        tight = bounds_precond_exact((6, 4, 2), d_zero=False, e_zero=False)
        assert loose.negative.lo <= tight.negative.lo
        assert loose.negative.hi >= tight.negative.hi - 1e-12
        assert loose.positive.lo <= tight.positive.lo
        assert loose.positive.hi >= tight.positive.hi

    def test_half_constant_tail_block(self):
        consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        iv = bounds_precond_inexact(consts, d_zero=True)
        assert iv.positive.lo == pytest.approx(0.2929, abs=1e-4)
        assert iv.positive.hi == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d_zero, e_zero", [
        (False, False), (True, False), (False, True), (True, True),
    ])
    def test_envelope_matches_the_separate_cubics(self, d_zero, e_zero):
        rng = np.random.default_rng([47, d_zero, e_zero])
        for _ in range(200):
            alphas = 10.0 ** rng.uniform(-3.0, 0.0, 3)
            betas = 10.0 ** rng.uniform(0.0, 3.0, 3)
            consts = EquivalenceConstants(*np.column_stack([alphas, betas]).ravel().tolist())
            eta_d, eta_e = (0.0 if zero or rng.random() < 0.25
                            else 10.0 ** rng.uniform(-8.0, 4.0)
                            for zero in (d_zero, e_zero))
            got = bounds_precond_inexact(consts, eta_d, eta_e, d_zero, e_zero)
            want = _separate_cubics_inexact(consts, eta_d, eta_e, d_zero, e_zero)
            for g, w in zip((got.negative.lo, got.positive.lo, got.positive.hi),
                            (want.negative.lo, want.positive.lo, want.positive.hi)):
                assert _bits(g) == _bits(w)
            # the envelope's coupling value sqrt(a0 a1 / (1 + eta_d)) is rounded
            # once more than the constants; that adds up to two ulp
            a0, a1, b0 = consts.alpha0, consts.alpha1, consts.beta0
            sigma = math.sqrt(a0 * a1 / (1.0 + eta_d))
            with localcontext(prec=60):
                at_envelope = _upper_negative_reference(b0, Decimal(sigma) ** 2)
                at_constants = _upper_negative_reference(
                    b0, Decimal(a0) * Decimal(a1) / (1 + Decimal(eta_d)))
            assert abs(got.negative.hi - at_envelope) <= 3 * math.ulp(at_envelope)
            assert abs(got.negative.hi - at_constants) <= 5 * math.ulp(at_constants)
            assert (got.provenance, got.upper_negative_estimate, got.warnings) == (
                want.provenance, want.upper_negative_estimate, ())

    def test_degenerate_envelope_follows_the_unpreconditioned_rule(self):
        consts = EquivalenceConstants(1e-6, 1e3, 1e-6, 1e3, 1.0, 1.0)
        # sqrt(a0 a1 / (1 + eta_d)) = 1e-8 <= RANK_TOL * sqrt(b0 b1) = 1e-7
        assert math.sqrt(1e-12 / (1.0 + 1e4)) <= RANK_TOL * 1e3
        iv = bounds_precond_inexact(consts, eta_d=1e4)
        assert iv.warnings == ("degenerate_interior",)
        assert iv.negative.hi == 0.0
        assert iv.positive.lo > 0.0
        assert iv.provenance == "inexact-preconditioner-full"
        assert iv.upper_negative_estimate == -1e-12 / 1e3

    def test_inconsistent_flags_rejected(self):
        consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            bounds_precond_inexact(consts, eta_d=0.5, d_zero=True)
        with pytest.raises(ParameterError):
            bounds_precond_inexact(consts, eta_d=-1.0)
        with pytest.raises(ParameterError):
            bounds_precond_inexact(consts, eta_e=float("inf"))

    def test_constants_validated(self):
        # raw constants need not straddle 1
        EquivalenceConstants(0.5, 0.9, 1.0, 1.0, 2.0, 3.0)
        for alpha, beta in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (0.5, math.inf),
                            (math.nan, 1.0), (0.5, math.nan)):
            with pytest.raises(ParameterError):
                EquivalenceConstants(1.0, 1.0, alpha, beta, 1.0, 1.0)


def _separate_cubics_inexact(consts, eta_d, eta_e, d_zero, e_zero) -> BoundIntervals:
    """The inexact intervals as written before they became the
    unpreconditioned bound of the equivalence envelope: three cubics of
    their own and the textbook quadratic endpoint.  Kept as the reference
    the envelope form must reproduce."""
    a0, b0 = consts.alpha0, consts.beta0
    a1, b1 = consts.alpha1, consts.beta1
    a2, b2 = consts.alpha2, consts.beta2

    b_role = math.sqrt(b0 * b1)
    c_narrow = math.sqrt(a1 * a2 / (1.0 + eta_e))
    c_wide = math.sqrt(b1 * b2)
    d_role = 0.0 if d_zero else b1
    e_role = 0.0 if e_zero else b2

    u_cubic = cubic_from_params(a0, b_role, c_narrow, d_role, 0.0)
    v_cubic = cubic_from_params(b0, b_role, c_wide, 0.0, e_role)
    w_cubic = cubic_from_params(a0, b_role, c_wide, d_role, 0.0)

    neg_hi = (b0 - math.sqrt(b0 * b0 + 4.0 * a0 * a1 / (1.0 + eta_d))) / 2.0
    case = {
        (False, False): "full",
        (True, False): "middle-zero",
        (False, True): "tail-zero",
        (True, True): "both-zero",
    }[(d_zero, e_zero)]

    return BoundIntervals(
        negative=Interval(solve_classified(w_cubic).neg, neg_hi),
        positive=Interval(
            solve_classified(u_cubic).pos_min, solve_classified(v_cubic).pos_max
        ),
        provenance=f"inexact-preconditioner-{case}",
        upper_negative_estimate=-a0 * a1 / b0,
    )


class TestVerifyContainment:
    def test_empty_spectrum_passes(self):
        iv = bounds_precond_exact((4, 3, 2), d_zero=False, e_zero=False)
        assert verify_containment([], iv).passed

    def test_two_point_spectrum(self):
        iv = BoundIntervals(
            negative=Interval(-2.0, -0.5),
            positive=Interval(0.5, 2.0),
            provenance="test",
        )
        report = verify_containment([-1.0, 1.0], iv)
        assert report.passed
        assert all(v.slack == pytest.approx(0.5) for v in report.verdicts)

    def test_outside_value_fails(self):
        iv = BoundIntervals(
            negative=Interval(-2.0, -0.5),
            positive=Interval(0.5, 2.0),
            provenance="test",
        )
        report = verify_containment([3.0], iv)
        assert not report.passed
        assert report.verdicts[0].matched == "outside"

    def test_multiplicity_mismatch_detected(self):
        iv = BoundIntervals(
            negative=Interval(-2.0, -0.5),
            positive=Interval(0.5, 2.0),
            provenance="test",
            discrete=((1.0, 2),),
        )
        good = verify_containment([1.0, 1.0 + 1e-12], iv)
        assert good.passed and good.multiplicity_ok
        bad = verify_containment([1.0, 1.0, 1.0], iv)
        assert not bad.passed and bad.multiplicity_ok is False

    def test_tolerance_inflation(self):
        iv = BoundIntervals(
            negative=Interval(-2.0, -0.5),
            positive=Interval(0.5, 2.0),
            provenance="test",
        )
        value = 2.0 + 1e-10
        assert not verify_containment([value], iv, tol=1e-12).passed
        assert verify_containment([value], iv, tol=1e-9).passed


def _loop_containment(spectrum, bounds, tol=CONTAINMENT_TOL):
    """The per-eigenvalue loop verify_containment replaced, kept as the
    reference its vectorized form must reproduce bit for bit."""
    values = sorted(float(v) for v in spectrum)
    if not values:
        return ContainmentReport(True, (), None, None)
    discrete = bounds.discrete or ()
    discrete_hits = [0] * len(discrete)
    leftovers, verdicts = [], []
    neg, pos = bounds.negative, bounds.positive
    neg_infl, pos_infl = neg.inflate(tol), pos.inflate(tol)
    for value in values:
        matched = None
        for idx, (target, _mult) in enumerate(discrete):
            if abs(value - target) <= CLUSTER_TOL * max(1.0, abs(target)):
                discrete_hits[idx] += 1
                matched = f"discrete:{target:.6g}"
                verdicts.append(EigenvalueVerdict(value, True, -abs(value - target), matched))
                break
        if matched is not None:
            continue
        leftovers.append(value)
        in_neg, in_pos = neg_infl.contains(value), pos_infl.contains(value)
        if in_neg or in_pos:
            ref = neg if in_neg else pos
            slack = min(value - ref.lo, ref.hi - value)
            where = "negative-interval" if in_neg else "positive-interval"
            verdicts.append(EigenvalueVerdict(value, True, slack, where))
        else:
            gap = min(abs(value - neg.lo), abs(value - neg.hi),
                      abs(value - pos.lo), abs(value - pos.hi))
            verdicts.append(EigenvalueVerdict(value, False, -gap, "outside"))
    multiplicity_ok = None
    if discrete:
        multiplicity_ok = all(h == k for h, (_v, k) in zip(discrete_hits, discrete))
    interval_counts_ok = None
    if bounds.interval_counts is not None:
        interval_counts_ok = True
        for sub, expected in bounds.interval_counts:
            sub_infl = sub.inflate(tol)
            if sum(1 for v in leftovers if sub_infl.contains(v)) != expected:
                interval_counts_ok = False
    passed = (all(v.ok for v in verdicts) and multiplicity_ok in (None, True)
              and interval_counts_ok in (None, True))
    return ContainmentReport(passed, tuple(verdicts), multiplicity_ok, interval_counts_ok)


def _bits(x) -> tuple:
    return type(x), np.float64(x).tobytes()


def _assert_bitwise_same(got, want):
    assert (got.passed, got.multiplicity_ok, got.interval_counts_ok) == (
        want.passed, want.multiplicity_ok, want.interval_counts_ok)
    assert type(got.passed) is type(want.passed)
    assert len(got.verdicts) == len(want.verdicts)
    for g, w in zip(got.verdicts, want.verdicts):
        assert _bits(g.value) == _bits(w.value)
        assert g.ok is w.ok
        assert _bits(g.slack) == _bits(w.slack)
        assert type(g.matched) is str and g.matched == w.matched
    assert _bits(got.worst_slack) == _bits(want.worst_slack)


class TestVectorizedContainment:
    """verify_containment against the loop it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_spectra_with_discrete_hits(self, seed):
        rng = np.random.default_rng(seed)
        dims = (9, 6, 4)
        cases = [
            bounds_precond_exact(dims, d_zero=True, e_zero=True),
            bounds_precond_exact(dims, d_zero=True, e_zero=False, nullity_k=1),
            bounds_precond_exact(dims, d_zero=False, e_zero=False),
            # two targets within one cluster width: the first one takes a value
            BoundIntervals(
                negative=Interval(-2.0, -0.5), positive=Interval(0.5, 2.0),
                provenance="test", discrete=((1.0, 2), (1.0 + 5e-9, 1), (-3.0, 1)),
                interval_counts=((Interval(0.5, 1.0), 1), (Interval(-2.0, 0.0), 2)),
            ),
        ]
        for bounds in cases:
            targets = [t for t, _ in bounds.discrete or ()] or [1.0]
            near = rng.choice(targets, 25) * (1.0 + rng.uniform(-2e-8, 2e-8, 25))
            spread = rng.uniform(-3.0, 3.0, 40)
            ends = [bounds.negative.lo, bounds.negative.hi, bounds.positive.lo,
                    bounds.positive.hi, 0.0, -0.0, *targets]
            spectrum = np.concatenate([near, spread, ends, spread[:5]])
            rng.shuffle(spectrum)
            for tol in (CONTAINMENT_TOL, 0.0, 1e-3):
                for given in (spectrum, list(spectrum)):
                    _assert_bitwise_same(verify_containment(given, bounds, tol),
                                         _loop_containment(given, bounds, tol))

    @pytest.mark.parametrize("neg, pos", [
        (Interval(-2.0, -0.5), Interval(0.5, 2.0)),
        (Interval(-2.0, 0.25), Interval(0.0, 2.0)),  # overlapping
        # a point interval at zero: slacks of -0.0 and +0.0 tie, and the
        # first one is kept, as Python's min keeps it
        (Interval(-2.0, -0.5), Interval(0.0, 0.0)),
    ])
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_values_exactly_at_the_inflated_ends(self, neg, pos, tol):
        bounds = BoundIntervals(negative=neg, positive=pos, provenance="test",
                                interval_counts=((pos, 3), (neg, 4)))
        ends = [e for iv in (neg, pos) for e in (*iv, *iv.inflate(tol))]
        spectrum = [v for e in ends for v in (
            e, -e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
        report = verify_containment(spectrum, bounds, tol)
        _assert_bitwise_same(report, _loop_containment(spectrum, bounds, tol))
        assert {v.matched for v in report.verdicts} >= {"outside"}

    @pytest.mark.parametrize("spectrum", [[], (), np.array([])])
    def test_empty_spectrum(self, spectrum):
        bounds = bounds_precond_exact((4, 3, 2), d_zero=True, e_zero=True)
        report = verify_containment(spectrum, bounds)
        _assert_bitwise_same(report, _loop_containment(spectrum, bounds))
        assert report == ContainmentReport(True, (), None, None)


def test_exact_preconditioner_roots_residual():
    roots = exact_preconditioner_roots()
    cubic = cubic_from_params(1.0, 1.0, 1.0, 0.0, 0.0)
    for root in roots.astuple():
        assert abs(cubic(root)) <= 1e-14

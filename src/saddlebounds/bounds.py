"""Bound formulas for double saddle-point spectra.

Every interval endpoint produced here is either a closed-form quadratic
root or a root of a monic cubic

    x^3 + (d - a - e) x^2 + (a e - a d - d e - b^2 - c^2) x
        + (a d e + a c^2 + b^2 e)

built from five nonnegative parameters with a > 0 and positive nested
pivots s1 = d + b^2/a, s2 = e + c^2/s1.  Such cubics always have one
negative and two positive real roots (they are characteristic polynomials
of 1x1x1 saddle-point matrices), which is what makes the interval
classification below well defined.

The production root path is the trigonometric three-real-root formula with
Newton polishing.  Companion-matrix eigenvalues are deliberately not used
here so the test suite can treat them as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClassificationError, ParameterError
from .spectral import RANK_TOL, BlockExtremes

ROOT_TOL = 1e-10
CLUSTER_TOL = 1e-8

GOLDEN_UPPER = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LOWER = (1.0 - math.sqrt(5.0)) / 2.0


class Interval(NamedTuple):
    lo: float
    hi: float

    def inflate(self, tol: float) -> "Interval":
        """Relative inflation by ``tol * max(1, |endpoint|)`` on each side."""
        return Interval(
            self.lo - tol * max(1.0, abs(self.lo)),
            self.hi + tol * max(1.0, abs(self.hi)),
        )

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class CubicPoly:
    """Monic cubic x^3 + c2 x^2 + c1 x + c0."""

    c2: float
    c1: float
    c0: float

    def __post_init__(self):
        for name in ("c2", "c1", "c0"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __call__(self, x: float) -> float:
        return ((x + self.c2) * x + self.c1) * x + self.c0

    def deriv(self, x: float) -> float:
        return (3.0 * x + 2.0 * self.c2) * x + self.c1

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return 1.0, self.c2, self.c1, self.c0


@dataclass(frozen=True)
class ClassifiedRoots:
    """The three real roots of a saddle-point cubic, classified by sign."""

    neg: float
    pos_min: float
    pos_max: float

    def astuple(self) -> tuple[float, float, float]:
        return self.neg, self.pos_min, self.pos_max


@dataclass(frozen=True)
class EquivalenceConstants:
    """Spectral-equivalence endpoints for the three preconditioner blocks.

    Each pair (alpha_i, beta_i) brackets the spectrum of the exact block
    measured against its approximation, normalized so that
    0 < alpha_i <= 1 <= beta_i.
    """

    alpha0: float
    beta0: float
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    def __post_init__(self):
        for alpha, beta, idx in (
            (self.alpha0, self.beta0, 0),
            (self.alpha1, self.beta1, 1),
            (self.alpha2, self.beta2, 2),
        ):
            if not (0.0 < alpha <= 1.0 <= beta):
                raise ParameterError(
                    f"equivalence pair {idx} must satisfy 0 < alpha <= 1 <= beta, "
                    f"got ({alpha}, {beta})"
                )


@dataclass(frozen=True)
class BoundIntervals:
    """Predicted spectral inclusion region.

    ``negative`` and ``positive`` are the (closed) inclusion intervals for
    the negative and positive eigenvalues.  ``discrete`` optionally lists
    exactly known (eigenvalue, multiplicity) pairs, and ``interval_counts``
    optionally pins how many eigenvalues each sub-interval must hold; when
    both are present their counts sum to ``total_count``.
    """

    negative: Interval
    positive: Interval
    provenance: str
    discrete: tuple[tuple[float, int], ...] | None = None
    interval_counts: tuple[tuple[Interval, int], ...] | None = None
    total_count: int | None = None
    warnings: tuple[str, ...] = ()
    upper_negative_estimate: float | None = None

    @property
    def degenerate_interior(self) -> bool:
        return "degenerate_interior" in self.warnings


def cubic_from_params(a: float, b: float, c: float, d: float, e: float) -> CubicPoly:
    """Build the saddle-point cubic from its five scalar parameters.

    Requires a > 0, d >= 0, e >= 0 and positive nested pivots
    s1 = d + b^2/a and s2 = e + c^2/s1; violations raise
    :class:`ParameterError` naming the failed condition.
    """
    if not a > 0:
        raise ParameterError(f"need a > 0, got a = {a}")
    if d < 0 or e < 0:
        raise ParameterError(f"need d, e >= 0, got d = {d}, e = {e}")
    s1 = d + b * b / a
    if not s1 > 0:
        raise ParameterError(f"need s1 = d + b^2/a > 0, got {s1}")
    s2 = e + c * c / s1
    if not s2 > 0:
        raise ParameterError(f"need s2 = e + c^2/s1 > 0, got {s2}")
    return CubicPoly(
        c2=d - a - e,
        c1=a * e - a * d - d * e - b * b - c * c,
        c0=a * d * e + a * c * c + b * b * e,
    )


def solve_classified(cubic: CubicPoly) -> ClassifiedRoots:
    """Solve a saddle-point cubic and classify its roots by sign.

    The trigonometric three-real-root formula seeds the roots; each seed is
    then Newton-polished (improvement-gated).  Because wildly scaled
    parameters can make the two small roots cancel out of the depressed
    form, the best-conditioned polished root is also used to reconstruct
    its partners through the product/sum identities (divisions only), and
    whichever root set has the smaller residual wins.  A complex pair or a
    wrong sign pattern raises, signalling a cubic outside the admissible
    family.
    """
    c2, c1, c0 = cubic.c2, cubic.c1, cubic.c0
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0

    disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q + np.finfo(float).tiny
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc < -1e-10 * disc_scale:
        raise ClassificationError(
            "cubic has a complex conjugate root pair; not in the admissible family"
        )

    if p >= 0.0:
        # only reachable at the degenerate triple-root boundary
        seeds = [-shift] * 3
    else:
        radius = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * radius)
        theta = math.acos(min(1.0, max(-1.0, arg)))
        seeds = [
            radius * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift
            for k in range(3)
        ]

    polished = sorted(_newton(cubic, x) for x in seeds)
    candidates = [polished]

    # reconstruction: deflate by the dominant polished root (the stable
    # direction) and recover the partner pair from the product and
    # pairwise-sum identities, which are divisions and immune to the
    # cancellation that loses small roots in the depressed form
    anchor = max(polished, key=abs)
    if anchor != 0.0:
        pair_product = -c0 / anchor
        pair_sum = (c1 - pair_product) / anchor
        pair_disc = pair_sum * pair_sum - 4.0 * pair_product
        if pair_disc >= 0.0:
            sq = math.sqrt(pair_disc)
            t = 0.5 * (pair_sum + sq) if pair_sum >= 0 else 0.5 * (pair_sum - sq)
            if t != 0.0:
                rebuilt = sorted(
                    (anchor, _newton(cubic, t), _newton(cubic, pair_product / t))
                )
                candidates.append(rebuilt)

    def valid(roots):
        return roots[0] < 0.0 < roots[1] <= roots[2]

    def score(roots):
        return max(abs(cubic(x)) / (1.0 + abs(x) ** 3) for x in roots)

    roots = min(candidates, key=lambda r: (not valid(r), score(r)))
    if not valid(roots):
        raise ClassificationError(
            f"roots {roots} do not split into one negative and two positive"
        )
    neg, mid, top = roots
    xmax = max(abs(neg), abs(top))
    residual_scale = max(
        xmax**3 + abs(c2) * xmax * xmax + abs(c1) * xmax + abs(c0), 1.0
    )
    worst = max(abs(cubic(x)) for x in roots)
    if worst > 1e3 * ROOT_TOL * residual_scale:
        raise ClassificationError(f"root residual {worst:.3e} out of tolerance")
    return ClassifiedRoots(neg=neg, pos_min=mid, pos_max=top)


def _newton(cubic: CubicPoly, x: float) -> float:
    """Newton refinement (at most 30 steps) keeping the best iterate seen.

    Plain updates (no step damping) so a seed may transit an uphill stretch
    before settling; the smallest-residual iterate wins.
    """
    best, best_val = x, abs(cubic(x))
    for _ in range(30):
        slope = cubic.deriv(x)
        if slope == 0.0 or not math.isfinite(x):
            break
        x = x - cubic(x) / slope
        val = abs(cubic(x))
        if val < best_val:
            best, best_val = x, val
        if val == 0.0:
            break
    return best


def exact_preconditioner_roots() -> ClassifiedRoots:
    """Roots of x^3 - x^2 - 2x + 1, the endpoints every exact-preconditioner
    interval collapses to (about -1.2470, 0.4450, 1.8019)."""
    return solve_classified(CubicPoly(-1.0, -2.0, 1.0))


def _degenerate(sigma_min: float, sigma_max: float) -> bool:
    return sigma_min <= RANK_TOL * max(sigma_max, 1e-300)


def bounds_unpreconditioned(x: BlockExtremes) -> BoundIntervals:
    """Spectral inclusion intervals for the assembled (unpreconditioned) matrix.

    The negative interval runs from the negative root of the widest cubic to
    a closed-form quadratic endpoint; the positive interval runs between the
    small positive root of the narrow cubic and the large positive root of
    the wide one.  When either coupling block is row-rank-deficient the
    interior endpoints collapse to zero; that case is reported with a
    ``degenerate_interior`` warning instead of a refined bound.
    """
    warnings: list[str] = []

    r_cubic = cubic_from_params(
        x.mu_min_a, x.sigma_max_b, x.sigma_max_c, x.mu_max_d, x.mu_min_e
    )
    q_cubic = cubic_from_params(
        x.mu_max_a, x.sigma_max_b, x.sigma_max_c, x.mu_min_d, x.mu_max_e
    )
    neg_lo = solve_classified(r_cubic).neg
    pos_hi = solve_classified(q_cubic).pos_max

    if _degenerate(x.sigma_min_b, x.sigma_max_b):
        neg_hi = 0.0
        warnings.append("degenerate_interior")
    else:
        neg_hi = (
            x.mu_max_a - math.sqrt(x.mu_max_a**2 + 4.0 * x.sigma_min_b**2)
        ) / 2.0

    if _degenerate(x.sigma_min_c, x.sigma_max_c):
        pos_lo = 0.0
        if "degenerate_interior" not in warnings:
            warnings.append("degenerate_interior")
    else:
        p_cubic = cubic_from_params(
            x.mu_min_a, x.sigma_max_b, x.sigma_min_c, x.mu_max_d, 0.0
        )
        pos_lo = solve_classified(p_cubic).pos_min

    return BoundIntervals(
        negative=Interval(neg_lo, neg_hi),
        positive=Interval(pos_lo, pos_hi),
        provenance="unpreconditioned",
        warnings=tuple(warnings),
    )


def bounds_k0(x: BlockExtremes) -> BoundIntervals:
    """Inclusion intervals for the unregularized matrix (both blocks zero)."""
    base = bounds_unpreconditioned(x.without_regularization())
    return BoundIntervals(
        negative=base.negative,
        positive=base.positive,
        provenance="unpreconditioned-unregularized",
        warnings=base.warnings,
    )


def bounds_precond_exact(
    dims: tuple[int, int, int],
    d_zero: bool,
    e_zero: bool,
    nullity_k: int = 0,
) -> BoundIntervals:
    """Spectrum prediction under the exact Schur-complement preconditioner.

    With both regularization blocks zero the preconditioned spectrum is six
    exact values; with only the middle one zero it is three exact values
    plus three intervals with pinned counts driven by the nullity k of C^T;
    otherwise it is two intervals with golden-ratio outer endpoints.
    """
    n, m, p = dims
    if not (n >= m >= p >= 1):
        raise ParameterError(f"dims must satisfy n >= m >= p >= 1, got {dims}")
    if not 0 <= nullity_k <= p:
        raise ParameterError(f"nullity k = {nullity_k} out of range [0, {p}]")
    z = exact_preconditioner_roots()

    if d_zero and e_zero:
        if nullity_k != 0:
            raise ParameterError(
                "an unregularized tail block needs a full-row-rank C (k = 0)"
            )
        return BoundIntervals(
            negative=Interval(z.neg, GOLDEN_LOWER),
            positive=Interval(z.pos_min, z.pos_max),
            provenance="exact-preconditioner-unregularized",
            discrete=(
                (1.0, n - m),
                (GOLDEN_UPPER, m - p),
                (GOLDEN_LOWER, m - p),
                (z.neg, p),
                (z.pos_min, p),
                (z.pos_max, p),
            ),
            total_count=n + m + p,
        )

    if d_zero:
        k = nullity_k
        return BoundIntervals(
            negative=Interval(z.neg, GOLDEN_LOWER),
            positive=Interval(z.pos_min, z.pos_max),
            provenance="exact-preconditioner-middle-unregularized",
            discrete=(
                (1.0, n - m + k),
                (GOLDEN_UPPER, m - p + k),
                (GOLDEN_LOWER, m - p + k),
            ),
            interval_counts=(
                (Interval(z.neg, GOLDEN_LOWER), p - k),
                (Interval(z.pos_min, 1.0), p - k),
                (Interval(GOLDEN_UPPER, z.pos_max), p - k),
            ),
            total_count=n + m + p,
        )

    # both-regularized and middle-regularized cases share these intervals
    return BoundIntervals(
        negative=Interval(-GOLDEN_UPPER, GOLDEN_LOWER),
        positive=Interval(z.pos_min, z.pos_max),
        provenance="exact-preconditioner",
    )


def bounds_precond_inexact(
    consts: EquivalenceConstants,
    eta_d: float = 0.0,
    eta_e: float = 0.0,
    d_zero: bool = False,
    e_zero: bool = False,
) -> BoundIntervals:
    """Inclusion intervals under an approximate block-diagonal preconditioner.

    The three controlling cubics reuse the unpreconditioned patterns with
    block extremes replaced by their equivalence-constant envelopes: the
    coupling singular values land in
    [sqrt(alpha_i alpha_{i+1} / (1 + eta)), sqrt(beta_i beta_{i+1})] and the
    regularization blocks in [0, beta_i].  Case flags zero out the roles a
    vanished regularization block plays.  The report carries the simplified
    first-order upper-negative estimate -alpha0*alpha1/beta0 alongside the
    exact quadratic endpoint.
    """
    if eta_d < 0 or eta_e < 0:
        raise ParameterError("regularization ratios must be nonnegative")
    if d_zero and eta_d != 0.0:
        raise ParameterError("eta_d must be zero when the middle block vanishes")
    if e_zero and eta_e != 0.0:
        raise ParameterError("eta_e must be zero when the tail block vanishes")
    if not (np.isfinite(eta_d) and np.isfinite(eta_e)):
        raise ParameterError(
            "regularization ratios must be finite; rank-deficient couplings "
            "are outside this bound's hypotheses"
        )

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


@dataclass(frozen=True)
class EigenvalueVerdict:
    value: float
    ok: bool
    slack: float
    matched: str


@dataclass(frozen=True)
class ContainmentReport:
    """Per-eigenvalue verdicts of a computed spectrum against predicted bounds."""

    passed: bool
    verdicts: tuple[EigenvalueVerdict, ...]
    multiplicity_ok: bool | None
    interval_counts_ok: bool | None

    @property
    def worst_slack(self) -> float:
        if not self.verdicts:
            return math.inf
        return min(v.slack for v in self.verdicts)


def verify_containment(
    spectrum: Sequence[float],
    bounds: BoundIntervals,
    tol: float = 1e-9,
) -> ContainmentReport:
    """Check a computed spectrum against predicted bounds.

    Each eigenvalue is first matched against the discrete predictions
    (within ``CLUSTER_TOL * max(1, |value|)``), then against the negative and
    positive intervals inflated by ``tol * max(1, |endpoint|)``.  When the
    bounds declare multiplicities or per-interval counts, those tallies must
    match exactly.  An empty spectrum passes vacuously.
    """
    values = sorted(float(v) for v in spectrum)
    if not values:
        return ContainmentReport(True, (), None, None)

    discrete = bounds.discrete or ()
    discrete_hits = [0] * len(discrete)
    leftovers: list[float] = []
    verdicts: list[EigenvalueVerdict] = []

    neg, pos = bounds.negative, bounds.positive
    neg_infl = neg.inflate(tol)
    pos_infl = pos.inflate(tol)

    for value in values:
        matched = None
        for idx, (target, _mult) in enumerate(discrete):
            if abs(value - target) <= CLUSTER_TOL * max(1.0, abs(target)):
                discrete_hits[idx] += 1
                matched = f"discrete:{target:.6g}"
                slack = -abs(value - target)
                verdicts.append(EigenvalueVerdict(value, True, slack, matched))
                break
        if matched is not None:
            continue
        leftovers.append(value)
        in_neg = neg_infl.contains(value)
        in_pos = pos_infl.contains(value)
        if in_neg or in_pos:
            ref = neg if in_neg else pos
            slack = min(value - ref.lo, ref.hi - value)
            where = "negative-interval" if in_neg else "positive-interval"
            verdicts.append(EigenvalueVerdict(value, True, slack, where))
        else:
            gap = min(
                abs(value - neg.lo), abs(value - neg.hi),
                abs(value - pos.lo), abs(value - pos.hi),
            )
            verdicts.append(EigenvalueVerdict(value, False, -gap, "outside"))

    multiplicity_ok = None
    if discrete:
        multiplicity_ok = all(
            hits == mult for hits, (_v, mult) in zip(discrete_hits, discrete)
        )

    interval_counts_ok = None
    if bounds.interval_counts is not None:
        interval_counts_ok = True
        for sub, expected in bounds.interval_counts:
            sub_infl = sub.inflate(tol)
            got = sum(1 for v in leftovers if sub_infl.contains(v))
            if got != expected:
                interval_counts_ok = False

    passed = (
        all(v.ok for v in verdicts)
        and multiplicity_ok in (None, True)
        and interval_counts_ok in (None, True)
    )
    return ContainmentReport(
        passed=passed,
        verdicts=tuple(verdicts),
        multiplicity_ok=multiplicity_ok,
        interval_counts_ok=interval_counts_ok,
    )

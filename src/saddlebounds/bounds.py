"""Bound formulas for double saddle-point spectra.

Every interval endpoint produced here is either a closed-form quadratic
root or a root of the saddle cubic

    p(x) = (x - a)((x + d)(x - e) - c^2) - b^2 (x - e),

the characteristic polynomial of the 1x1x1 saddle-point matrix
[[a, b, 0], [b, -d, c], [0, c, e]], built from five nonnegative
parameters with a > 0 and positive nested pivots s1 = d + b^2/a,
s2 = e + c^2/s1.  Such cubics always have one negative and two positive
real roots, which is what makes the interval classification below well
defined.

Each theorem is stated once.  The quadratic endpoint, the negative root
-2 s^2 / (mu + sqrt(mu^2 + 4 s^2)) of x^2 - mu x - s^2, is written in the
form that loses no digits to cancellation when s << mu.  The unregularized
and inexact-preconditioner intervals are :func:`bounds_unpreconditioned`
applied to other block extremes: the unregularized ones with D and E
zeroed, the inexact ones with the equivalence envelope of the split matrix
U^-T K U^-1, itself a double saddle-point matrix
(:func:`bounds_precond_inexact` gives the mapping).  Both therefore share
its degenerate rule: a coupling whose lower singular value is at most
``RANK_TOL`` times its upper one gives a zero interior endpoint and a
``degenerate_interior`` warning.

The cubic is evaluated in that factored form, as a Sturm sequence
evaluates it, and each of its roots is found in its own bracket between
the critical points by safeguarded Newton steps (:func:`solve_classified`).
Companion-matrix eigenvalues are deliberately not used here so the test
suite can treat them as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClassificationError, ParameterError
from .spectral import BlockExtremes, below_rank_tol

ROOT_TOL = 1e-10
CLUSTER_TOL = 1e-8
CONTAINMENT_TOL = 1e-9

GOLDEN_UPPER = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LOWER = (1.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


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
    """The saddle cubic of five parameters, evaluated in factored form.

    It is the characteristic polynomial of the 1x1x1 saddle-point matrix
    [[a, b, 0], [b, -d, c], [0, c, e]],

        p(x) = (x - a)((x + d)(x - e) - c^2) - b^2 (x - e),

    which is how it evaluates itself and its derivative: the factored form
    keeps roots that are nearly multiple, where rounding the expanded
    coefficients would merge them.  Build it with :func:`cubic_from_params`,
    which checks the parameters, so its roots are one negative and two
    positive.  ``c2``, ``c1``, ``c0`` and ``coefficients`` are the derived
    monic coefficients x^3 + c2 x^2 + c1 x + c0.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def __call__(self, x: float) -> float:
        return ((x - self.a) * ((x + self.d) * (x - self.e) - self.c * self.c)
                - self.b * self.b * (x - self.e))

    def deriv(self, x: float) -> float:
        u, v, w = x - self.a, x + self.d, x - self.e
        return v * w - self.c * self.c + u * (v + w) - self.b * self.b

    @property
    def c2(self) -> float:
        return self.d - self.a - self.e

    @property
    def c1(self) -> float:
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        return a * e - a * d - d * e - b * b - c * c

    @property
    def c0(self) -> float:
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        return a * d * e + a * c * c + b * b * e

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
    measured against its approximation P_i as built, alpha_i P_i <= X_i <=
    beta_i P_i for X = (A, S1, S2), with 0 < alpha_i <= beta_i < inf.  No
    pair needs to straddle 1: the envelope of :func:`bounds_precond_inexact`
    holds for the raw constants.
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
            if not (0.0 < alpha <= beta < math.inf):
                raise ParameterError(
                    f"equivalence pair {idx} must satisfy 0 < alpha <= beta < inf, "
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
    return CubicPoly(float(a), float(b), float(c), float(d), float(e))


def solve_classified(cubic: CubicPoly) -> ClassifiedRoots:
    """Solve a saddle-point cubic and classify its roots by sign.

    The critical points x_max < x_min of p split the line into three
    brackets, each holding one root: (-F, min(x_max, 0)],
    [max(x_max, 0), x_min] and [x_min, F), with F the Fujiwara bound on the
    roots (p(0) > 0, so 0 separates the negative root from the positive
    pair).  Each root is found in its bracket by :func:`_bracketed_root`,
    started from its trigonometric three-real-root value.  When
    p(x_min) >= 0 in floating point, x_min cannot separate the positive
    pair, which is then returned as a double root at x_min.  A root
    residual beyond ``ROOT_TOL``'s certificate raises
    :class:`ClassificationError`.
    """
    a, b, c, d, e = cubic.a, cubic.b, cubic.c, cubic.d, cubic.e
    c2, c1, c0 = cubic.c2, cubic.c1, cubic.c0
    # sqrt(c2^2 - 3 c1), expanded into terms none of which is negative
    spread = math.sqrt(a * a - a * e + e * e + d * (a + d + e) + 3.0 * (b * b + c * c))
    t = -c2 - math.copysign(spread, c2)
    x_max, x_min = sorted((t / 3.0, c1 / t))
    far = 2.0 * max(abs(c2), math.sqrt(abs(c1)), (0.5 * abs(c0)) ** (1.0 / 3.0))

    # trigonometric seeds: the depressed cubic is y^3 - (spread^2 / 3) y + q
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    theta = math.acos(min(1.0, max(-1.0, -13.5 * q / spread**3)))
    top, mid, neg = (2.0 * spread / 3.0 * math.cos((theta - 2.0 * math.pi * k) / 3.0)
                     - c2 / 3.0 for k in range(3))

    neg = _bracketed_root(cubic, neg, -far, min(x_max, 0.0), rising=True)
    if cubic(x_min) >= 0.0:
        mid = top = x_min
    else:
        mid = _bracketed_root(cubic, mid, max(x_max, 0.0), x_min, rising=False)
        top = _bracketed_root(cubic, top, x_min, far, rising=True)

    xmax = max(abs(neg), abs(top))
    residual_scale = max(
        xmax**3 + abs(c2) * xmax * xmax + abs(c1) * xmax + abs(c0), 1.0
    )
    worst = max(abs(cubic(x)) for x in (neg, mid, top))
    if worst > 1e3 * ROOT_TOL * residual_scale:
        raise ClassificationError(f"root residual {worst:.3e} out of tolerance")
    return ClassifiedRoots(neg=neg, pos_min=mid, pos_max=top)


def _bracketed_root(cubic: CubicPoly, x: float, lo: float, hi: float, rising: bool) -> float:
    """The one root of ``cubic`` in [lo, hi], through which it rises (or
    falls): Newton steps from ``x`` clipped into the bracket, each iterate
    shrinking the bracket to its side of the root, and a bisection
    whenever a step would leave the bracket.  It returns the first Newton
    point within four units in the last place of its iterate."""
    x = min(max(x, lo), hi)
    for _ in range(100):
        value = cubic(x)
        if value == 0.0:
            break
        if (value < 0.0) == rising:
            lo = x
        else:
            hi = x
        slope = cubic.deriv(x)
        newton = x - value / slope if slope != 0.0 else math.nan
        if abs(newton - x) <= 4.0 * _EPS * abs(x):
            return newton
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
    return x


@cache
def exact_preconditioner_roots() -> ClassifiedRoots:
    """Roots of x^3 - x^2 - 2x + 1, the endpoints every exact-preconditioner
    interval collapses to (about -1.2470, 0.4450, 1.8019); solved once."""
    return solve_classified(cubic_from_params(1.0, 1.0, 1.0, 0.0, 0.0))


def bounds_unpreconditioned(x: BlockExtremes) -> BoundIntervals:
    """Spectral inclusion intervals for the assembled (unpreconditioned) matrix.

    The negative interval runs from the negative root of the widest cubic to
    the negative root of x^2 - mu_max_a x - sigma_min_b^2, written
    -2 s^2 / (mu + sqrt(mu^2 + 4 s^2)) so that no digits cancel when
    sigma_min_b << mu_max_a; the positive interval runs between the small
    positive root of the narrow cubic and the large positive root of the
    wide one.  When either coupling block is row-rank-deficient
    (sigma_min <= ``RANK_TOL`` * sigma_max) the interior endpoint it
    controls collapses to zero; that case is reported with a
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

    if below_rank_tol(x.sigma_min_b, x.sigma_max_b):
        neg_hi = 0.0
        warnings.append("degenerate_interior")
    else:
        s2 = x.sigma_min_b**2
        neg_hi = -2.0 * s2 / (x.mu_max_a + math.sqrt(x.mu_max_a**2 + 4.0 * s2))

    if below_rank_tol(x.sigma_min_c, x.sigma_max_c):
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
    return replace(bounds_unpreconditioned(x.without_regularization()),
                   provenance="unpreconditioned-unregularized")


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

    The split matrix U^-T K U^-1 (P = U^T U blockwise) is itself a double
    saddle-point matrix, so these are :func:`bounds_unpreconditioned`
    applied to its block extremes' equivalence envelope, which holds for
    the raw constants of the blocks as built.  With D <= eta_d B A^-1 B^T
    and E <= eta_e C S1^-1 C^T:

    * the leading block U0^-T A U0^-1 lies in [alpha0, beta0];
    * B P0^-1 B^T >= alpha0 B A^-1 B^T >= alpha0 S1 / (1 + eta_d)
      >= alpha0 alpha1 P1 / (1 + eta_d), and B P0^-1 B^T <= beta0 S1
      <= beta0 beta1 P1, so the first coupling's singular values lie in
      [sqrt(alpha0 alpha1 / (1 + eta_d)), sqrt(beta0 beta1)];
    * the same steps with (P1, S1, S2, P2) give the second coupling
      [sqrt(alpha1 alpha2 / (1 + eta_e)), sqrt(beta1 beta2)];
    * 0 <= D <= S1 <= beta1 P1 and 0 <= E <= S2 <= beta2 P2 put the
      regularization blocks in [0, beta1] and [0, beta2], or [0, 0] when
      the case flag says the block vanishes.

    The endpoints, the cancellation-free
    upper-negative one included, and the degenerate rule are therefore the
    unpreconditioned ones: an envelope whose lower coupling value is at most
    ``RANK_TOL`` times its upper one gets a zero interior endpoint and a
    ``degenerate_interior`` warning.  The report carries the simplified
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
    envelope = BlockExtremes(
        a0, b0,
        math.sqrt(a0 * a1 / (1.0 + eta_d)), math.sqrt(b0 * b1),
        math.sqrt(a1 * a2 / (1.0 + eta_e)), math.sqrt(b1 * b2),
        0.0, 0.0 if d_zero else b1,
        0.0, 0.0 if e_zero else b2,
    )
    case = {
        (False, False): "full",
        (True, False): "middle-zero",
        (False, True): "tail-zero",
        (True, True): "both-zero",
    }[(d_zero, e_zero)]
    return replace(
        bounds_unpreconditioned(envelope),
        provenance=f"inexact-preconditioner-{case}",
        upper_negative_estimate=-a0 * a1 / b0,
    )


class EigenvalueVerdict(NamedTuple):
    value: float
    ok: bool
    slack: float
    matched: str


# a verdict from its four fields in one tuple, with no Python-level call
_verdict = partial(tuple.__new__, EigenvalueVerdict)


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
        return min(map(attrgetter("slack"), self.verdicts))


def verify_containment(
    spectrum: Sequence[float],
    bounds: BoundIntervals,
    tol: float = CONTAINMENT_TOL,
) -> ContainmentReport:
    """Check a computed spectrum against predicted bounds.

    Each eigenvalue is first matched against the discrete predictions, in
    their order (within ``CLUSTER_TOL * max(1, |target|)``), then against
    the negative and positive intervals inflated by
    ``tol * max(1, |endpoint|)``.  When the bounds declare multiplicities
    or per-interval counts, those tallies must match exactly.  An empty
    spectrum passes vacuously.
    """
    values = np.sort(np.asarray(spectrum, dtype=float), kind="stable")
    if not values.size:
        return ContainmentReport(True, (), None, None)

    discrete = bounds.discrete or ()
    neg, pos = bounds.negative, bounds.positive
    # each value's label, as an index into names
    names = ("outside", "negative-interval", "positive-interval",
             *(f"discrete:{target:.6g}" for target, _mult in discrete))
    where = np.empty(values.size, dtype=np.intp)
    slack = np.empty(values.size)
    free = slice(None)  # the values matched to no discrete target
    discrete_hits = []
    if discrete:
        # one row per target; each value goes to the first target it is near
        targets = np.array([target for target, _mult in discrete])
        widths = np.array([CLUSTER_TOL * max(1.0, abs(target)) for target, _mult in discrete])
        dist = np.abs(values - targets[:, None])
        near = dist <= widths[:, None]
        first = near.argmax(axis=0)
        hit = near[first, np.arange(values.size)]
        discrete_hits = np.bincount(first[hit], minlength=len(discrete)).tolist()
        where[hit] = 3 + first[hit]
        slack[hit] = -dist[first[hit], hit.nonzero()[0]]
        free = ~hit

    leftovers = values[free]
    in_neg = _inside(leftovers, neg.inflate(tol))
    inside = in_neg | _inside(leftovers, pos.inflate(tol))
    ref_lo = np.where(in_neg, neg.lo, pos.lo)
    ref_hi = np.where(in_neg, neg.hi, pos.hi)
    inner = _first_min(leftovers - ref_lo, ref_hi - leftovers)
    where[free] = np.where(in_neg, 1, np.where(inside, 2, 0))
    if inside.all():
        slack[free] = inner
    else:
        gap = _first_min(*(np.abs(leftovers - end) for end in (neg.lo, neg.hi, pos.lo, pos.hi)))
        slack[free] = np.where(inside, inner, -gap)
    ok = where != 0
    verdicts = tuple(map(_verdict, zip(values.tolist(), ok.tolist(), slack.tolist(),
                                       map(names.__getitem__, where.tolist()))))

    multiplicity_ok = None
    if discrete:
        multiplicity_ok = all(
            hits == mult for hits, (_v, mult) in zip(discrete_hits, discrete)
        )

    interval_counts_ok = None
    if bounds.interval_counts is not None:
        interval_counts_ok = all(
            np.count_nonzero(_inside(leftovers, sub.inflate(tol))) == expected
            for sub, expected in bounds.interval_counts
        )

    passed = (
        bool(ok.all())
        and multiplicity_ok in (None, True)
        and interval_counts_ok in (None, True)
    )
    return ContainmentReport(
        passed=passed,
        verdicts=verdicts,
        multiplicity_ok=multiplicity_ok,
        interval_counts_ok=interval_counts_ok,
    )


def _inside(values: np.ndarray, interval: Interval) -> np.ndarray:
    """Elementwise :meth:`Interval.contains`."""
    return (interval.lo <= values) & (values <= interval.hi)


def _first_min(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Elementwise ``min(first, *rest)``, which keeps the earliest of equal
    values (so +0.0 before -0.0, as Python's ``min`` does)."""
    for other in rest:
        first = np.where(other < first, other, first)
    return first

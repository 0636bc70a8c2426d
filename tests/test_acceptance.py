"""Acceptance suite: one test per published criterion, each printing a
pass/fail line.  Tolerances are fixed here, not configurable."""

import math

import numpy as np
import pytest

from saddlebounds import (
    BlockExtremes,
    EquivalenceConstants,
    assemble,
    bounds_precond_exact,
    bounds_precond_inexact,
    bounds_unpreconditioned,
    build_approx,
    build_exact,
    cubic_from_params,
    distributed_context,
    equivalence_constants,
    full_spectrum,
    inertia,
    minres,
    nullity_system,
    poisson_boundary,
    poisson_distributed,
    random_system,
    schur_complements,
    solve_classified,
    split_preconditioned_matrix,
    tightness_lower_positive,
    tightness_upper_negative,
    validate,
    verify_containment,
)
from saddlebounds.bounds import exact_preconditioner_roots
from saddlebounds.precond import from_blocks
from saddlebounds.report import analyze

from helpers import companion_roots, random_valid_system

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_01_cubic_structure():
    rng = np.random.default_rng(1001)
    worst_residual = 0.0
    worst_oracle = 0.0
    for _ in range(1000):
        a, b, c = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 3))
        d = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 10.0))
        e = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 10.0))
        cubic = cubic_from_params(a, b, c, d, e)
        roots = solve_classified(cubic)
        assert roots.neg < 0.0 < roots.pos_min <= roots.pos_max
        for root in roots.astuple():
            worst_residual = max(
                worst_residual, abs(cubic(root)) / (1.0 + abs(root) ** 3)
            )
        oracle = companion_roots(cubic)
        for got, want in zip(sorted(roots.astuple()), oracle):
            worst_oracle = max(worst_oracle, abs(got - want) / max(1.0, abs(want)))
    _report(
        "criterion 1: cubic root structure over 1000 tuples",
        worst_residual <= 1e-10 and worst_oracle <= 1e-9,
        f"residual {worst_residual:.2e}, oracle gap {worst_oracle:.2e}",
    )


def test_criterion_02_inertia():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 31))
        m = int(rng.integers(2, min(n, 20) + 1))
        p = int(rng.integers(1, min(m, 10) + 1))
        system, _ = random_valid_system(rng, n, m, p)
        got = inertia(assemble(system).data).astuple()
        if got != (n + p, m, 0):
            ok = False
            break
    _report("criterion 2: inertia (n+p, m, 0) over 200 systems", ok)


def test_criterion_03_unpreconditioned_containment():
    rng = np.random.default_rng(1003)
    variants = [(False, False), (True, False), (False, True), (True, True)]
    worst = math.inf
    ok = True
    for i in range(200):
        d_zero, e_zero = variants[i % 4]
        n = int(rng.integers(4, 16))
        m = int(rng.integers(3, min(n, 12) + 1))
        p = int(rng.integers(2, min(m, 8) + 1))
        system, _ = random_valid_system(rng, n, m, p, d_zero=d_zero, e_zero=e_zero)
        iv = bounds_unpreconditioned(BlockExtremes.from_system(system))
        spectrum = full_spectrum(assemble(system).data)
        result = verify_containment(spectrum, iv, tol=1e-9)
        worst = min(worst, result.worst_slack)
        ok = ok and result.passed
    _report(
        "criterion 3: unpreconditioned containment over 200 systems",
        ok,
        f"worst slack {worst:.2e}",
    )


def test_criterion_04_tightness():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(10):
        a, b, d, c, e = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 5))
        neg_system = tightness_upper_negative(a, b, d, c, e)
        endpoint = bounds_unpreconditioned(
            BlockExtremes.from_system(neg_system)
        ).negative.hi
        spectrum = full_spectrum(assemble(neg_system).data)
        worst = max(worst, float(np.abs(spectrum - endpoint).min()))

        pos_system = tightness_lower_positive(a, b, c, d, e)
        endpoint = bounds_unpreconditioned(
            BlockExtremes.from_system(pos_system)
        ).positive.lo
        spectrum = full_spectrum(assemble(pos_system).data)
        worst = max(worst, float(np.abs(spectrum - endpoint).min()))
    _report(
        "criterion 4: tightness fixtures attain endpoints",
        worst <= 1e-10,
        f"worst attainment gap {worst:.2e}",
    )


def test_criterion_05_exact_preconditioner_unregularized():
    rng = np.random.default_rng(1005)
    system, _ = random_valid_system(rng, 10, 7, 4, d_zero=True, e_zero=True)
    op = build_exact(system)
    spectrum = full_spectrum(split_preconditioned_matrix(system, op))
    z = exact_preconditioner_roots()
    targets = np.array([1.0, GOLDEN, 1.0 - GOLDEN, z.neg, z.pos_min, z.pos_max])
    clustering = max(float(np.abs(targets - v).min()) for v in spectrum)

    matrix = assemble(system).data
    run = minres(matrix, op, np.ones(matrix.shape[0]), rtol=1e-10)
    _report(
        "criterion 5: six-value clustering and MINRES in <= 6 iterations",
        clustering <= 1e-8 and run.converged and run.iterations <= 6,
        f"cluster distance {clustering:.2e}, iterations {run.iterations}",
    )


def test_criterion_06_exact_preconditioner_counts():
    rng = np.random.default_rng(1006)
    ok = True
    for i in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(3, min(n, 9) + 1))
        p = int(rng.integers(2, min(m, 6) + 1))
        system, _ = random_valid_system(
            rng, n, m, p, d_zero=(i % 3 == 0), e_zero=(i % 4 == 0)
        )
        op = build_exact(system)
        values = full_spectrum(split_preconditioned_matrix(system, op))
        at_one = np.isclose(values, 1.0, atol=1e-8)
        counts = (
            int((values < 0).sum()),
            int(((values > 0) & (values < 1) & ~at_one).sum()),
            int(at_one.sum()),
            int(((values > 1) & ~at_one).sum()),
        )
        if counts != (m, p, n - m, m):
            ok = False
            break
    _report("criterion 6: preconditioned eigenvalue counts over 50 systems", ok)


def test_criterion_07_nullity_multiplicities():
    z = exact_preconditioner_roots()
    ok = True
    details = []
    for dims, k in (((9, 7, 5), 0), ((9, 7, 5), 1), ((9, 7, 5), 2),
                    ((8, 6, 4), 1), ((10, 6, 3), 2)):
        n, m, p = dims
        system = nullity_system(n, m, p, k, seed=500 + k)
        assert validate(system).c_nullity_k == k
        op = build_exact(system)
        values = full_spectrum(split_preconditioned_matrix(system, op))

        def count_at(target):
            return int(np.isclose(values, target, atol=1e-8).sum())

        mult_ok = (
            count_at(1.0) == n - m + k
            and count_at(GOLDEN) == m - p + k
            and count_at(1.0 - GOLDEN) == m - p + k
        )
        assigned = (
            np.isclose(values, 1.0, atol=1e-8)
            | np.isclose(values, GOLDEN, atol=1e-8)
            | np.isclose(values, 1.0 - GOLDEN, atol=1e-8)
        )
        rest = values[~assigned]
        in_neg = ((rest >= z.neg - 1e-9) & (rest < 1.0 - GOLDEN)).sum()
        in_mid = ((rest >= z.pos_min - 1e-9) & (rest < 1.0)).sum()
        in_top = ((rest > GOLDEN) & (rest <= z.pos_max + 1e-9)).sum()
        interval_ok = (
            int(in_neg) == p - k and int(in_mid) == p - k and int(in_top) == p - k
            and rest.size == 3 * (p - k)
        )
        ok = ok and mult_ok and interval_ok
        details.append(f"k={k}:{'ok' if mult_ok and interval_ok else 'bad'}")
    _report("criterion 7: nullity-driven multiplicities", ok, " ".join(details))


def test_criterion_08_regularized_preconditioner_intervals():
    rng = np.random.default_rng(1008)
    printed_ok = True
    computed_ok = True
    worst = math.inf
    iv = bounds_precond_exact((6, 5, 3), d_zero=False, e_zero=False)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(3, min(n, 9) + 1))
        p = int(rng.integers(2, min(m, 6) + 1))
        system, _ = random_valid_system(rng, n, m, p)
        assert system.D.any() and system.E.any()
        op = build_exact(system)
        values = full_spectrum(split_preconditioned_matrix(system, op))
        neg = values[values < 0]
        pos = values[values > 0]
        printed_ok = printed_ok and bool(
            (neg >= -1.6181).all() and (neg <= -0.6180).all()
            and (pos >= 0.4450).all() and (pos <= 1.8020).all()
        )
        result = verify_containment(values, iv, tol=1e-9)
        computed_ok = computed_ok and result.passed
        worst = min(worst, result.worst_slack)
    _report(
        "criterion 8: regularized intervals over 100 systems",
        printed_ok and computed_ok,
        f"worst slack {worst:.2e}",
    )


def test_criterion_09_inexact_bounds():
    rng = np.random.default_rng(1009)
    ok_containment = True
    ok_blocks = True
    for i in range(100):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, min(n, 8) + 1))
        p = int(rng.integers(2, min(m, 5) + 1))
        d_zero = i % 5 == 0
        e_zero = i % 7 == 0
        system, _ = random_valid_system(rng, n, m, p, d_zero=d_zero, e_zero=e_zero)
        strategy = "jacobi" if i % 2 == 0 else f"scaled:{0.25 + 0.5 * rng.random():.3f}"
        approx = build_approx(system, (strategy, strategy, strategy))
        exact = build_exact(system)

        measurements = [
            equivalence_constants(eb, ab)
            for eb, ab in zip(exact.blocks, approx.blocks)
        ]
        consts = EquivalenceConstants(
            measurements[0].alpha, measurements[0].beta,
            measurements[1].alpha, measurements[1].beta,
            measurements[2].alpha, measurements[2].beta,
        )
        pair = schur_complements(system)
        eta_d = 0.0 if d_zero else pair.eta_d
        eta_e = 0.0 if e_zero else pair.eta_e
        iv = bounds_precond_inexact(
            consts, eta_d=eta_d, eta_e=eta_e, d_zero=d_zero, e_zero=e_zero
        )

        normalized = from_blocks(
            [meas.scale * block for meas, block in zip(measurements, approx.blocks)],
            system.dims,
        )
        values = full_spectrum(split_preconditioned_matrix(system, normalized))
        ok_containment = ok_containment and verify_containment(
            values, iv, tol=1e-9
        ).passed

        split = split_preconditioned_matrix(system, normalized)
        lead = split[:n, :n]
        mid = split[n:n + m, :n]
        tail = split[n + m:, n:n + m]
        lead_vals = np.linalg.eigvalsh(lead)
        sv_mid = np.linalg.svd(mid, compute_uv=False)
        sv_tail = np.linalg.svd(tail, compute_uv=False)
        mid_reg = np.linalg.eigvalsh(-split[n:n + m, n:n + m])
        tail_reg = np.linalg.eigvalsh(split[n + m:, n + m:])
        a0, b0 = consts.alpha0, consts.beta0
        a1, b1 = consts.alpha1, consts.beta1
        a2, b2 = consts.alpha2, consts.beta2
        tol = 1e-9
        ok_blocks = ok_blocks and bool(
            lead_vals[0] >= a0 - tol and lead_vals[-1] <= b0 + tol
            and sv_mid[-1] >= math.sqrt(a0 * a1 / (1.0 + eta_d)) - tol
            and sv_mid[0] <= math.sqrt(b0 * b1) + tol
            and sv_tail[-1] >= math.sqrt(a1 * a2 / (1.0 + eta_e)) - tol
            and sv_tail[0] <= math.sqrt(b1 * b2) + tol
            and mid_reg[0] >= -tol and mid_reg[-1] <= b1 + tol
            and tail_reg[0] >= -tol and tail_reg[-1] <= b2 + tol
        )
    _report(
        "criterion 9: inexact bounds and block envelopes over 100 systems",
        ok_containment and ok_blocks,
        f"containment {ok_containment}, blocks {ok_blocks}",
    )


def test_criterion_10_exact_constant_collapse():
    consts = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    iv = bounds_precond_inexact(consts, eta_d=0.0, eta_e=0.0)
    tight = bounds_precond_exact((6, 4, 2), d_zero=False, e_zero=False)
    contains = (
        iv.negative.lo <= tight.negative.lo
        and iv.negative.hi >= tight.negative.hi - 1e-12
        and iv.positive.lo <= tight.positive.lo
        and iv.positive.hi >= tight.positive.hi
    )
    _report(
        "criterion 10: unit-constant collapse",
        abs(iv.positive.hi - 2.0) <= 1e-12
        and abs(iv.negative.lo - (-1.8794)) <= 1e-4
        and contains,
        f"upper {iv.positive.hi:.15f}, lower {iv.negative.lo:.6f}",
    )


@pytest.fixture(scope="module")
def distributed_16():
    h, beta = 2**-4, 1e-3
    system, fem = poisson_distributed(h, beta)
    return system, distributed_context(fem, beta)


def test_criterion_11_distributed_control(distributed_16):
    system, context = distributed_16
    report = analyze(
        system,
        scenarios=("prec-exact", "prec-inexact"),
        precond="pearson-wathen",
        context=context,
        tol=1e-9,
    )
    exact_entry, inexact_entry = report.scenarios

    values = np.array(exact_entry["spectrum"])
    neg = values[values < 0]
    pos = values[values > 0]
    exact_ok = bool(
        (neg >= -1.6181).all() and (neg <= -0.6180).all()
        and (pos >= 0.4450).all() and (pos <= 1.8020).all()
        and exact_entry["containment"]["status"] == "pass"
    )

    pw_raw = inexact_entry["precond"]["equivalence"][2]["raw"]
    constants_ok = pw_raw[0] >= 0.5 - 1e-6 and pw_raw[1] <= 1.0 + 1e-6

    ref = inexact_entry["reference_intervals"]
    ref_lo, ref_hi = ref["positive"]
    endpoints_ok = abs(ref_lo - 0.2929) <= 1e-3 and abs(ref_hi - 2.0) <= 1e-12
    ref_contained = inexact_entry["reference_containment"]["status"] == "pass"

    eta_ref = context.reference_regularization_ratio()
    eta_ok = 2.6e-8 <= eta_ref <= 2.6e-6

    measured_ok = inexact_entry["containment"]["status"] == "pass"

    _report(
        "criterion 11: distributed control at h=1/16",
        exact_ok and constants_ok and endpoints_ok and ref_contained
        and eta_ok and measured_ok,
        f"pw raw [{pw_raw[0]:.4f}, {pw_raw[1]:.4f}], "
        f"ref positive [{ref_lo:.5f}, {ref_hi:.3f}], eta {eta_ref:.3e}",
    )


def test_criterion_12_mesh_independence():
    counts = []
    for h in (2**-3, 2**-4, 2**-5):
        system, _ = poisson_distributed(h, 1e-3)
        op = build_exact(system)
        matrix = assemble(system).data
        run = minres(matrix, op, np.ones(matrix.shape[0]), rtol=1e-8)
        assert run.converged
        counts.append(run.iterations)
    _report(
        "criterion 12: mesh-independent iteration counts",
        len(set(counts)) == 1,
        f"iterations {counts}",
    )


def test_boundary_control_dropterm_tracking():
    h, beta = 2**-4, 1e-3
    system = poisson_boundary(h, beta)
    n, m, p = system.dims

    # unpreconditioned containment, as in criterion 3
    iv = bounds_unpreconditioned(BlockExtremes.from_system(system))
    spectrum = full_spectrum(assemble(system).data)
    unprec_ok = verify_containment(spectrum, iv, tol=1e-9).passed

    # exact-preconditioner counts, as in criterion 6
    op = build_exact(system)
    values = full_spectrum(split_preconditioned_matrix(system, op))
    at_one = np.isclose(values, 1.0, atol=1e-8)
    counts_ok = (
        int((values < 0).sum()),
        int(((values > 0) & (values < 1) & ~at_one).sum()),
        int(at_one.sum()),
        int(((values > 1) & ~at_one).sum()),
    ) == (m, p, n - m, m)

    # drop-term spectra track the exact ones away from the extremes; checked
    # in the regime where the kept block actually dominates the dropped one
    beta_dominant = 10.0
    dom_system = poisson_boundary(h, beta_dominant)
    dom_exact = full_spectrum(
        split_preconditioned_matrix(dom_system, build_exact(dom_system))
    )
    drop = build_approx(dom_system, ("exact", "exact", "drop-term"))
    dom_drop = full_spectrum(
        split_preconditioned_matrix(dom_system, drop)
    )
    rel = np.abs(dom_drop[1:-1] - dom_exact[1:-1]) / np.abs(dom_exact[1:-1])
    interior_ok = bool(rel.max() <= 0.10)

    _report(
        "boundary control: containment, counts, drop-term tracking",
        unprec_ok and counts_ok and interior_ok,
        f"interior max dev {rel.max():.3f}",
    )

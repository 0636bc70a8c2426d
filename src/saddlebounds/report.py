"""Analysis pipelines and machine-readable reports.

The CLI is a thin wrapper over :func:`analyze`, :func:`solve` and
:func:`plot_rows`.  Reports are plain JSON documents (``schema: 1``) that
round-trip losslessly; all CSV output formats floats with 17 significant
digits so re-parsing reproduces them bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .bounds import (
    CONTAINMENT_TOL,
    BoundIntervals,
    EquivalenceConstants,
    Interval,
    bounds_precond_exact,
    bounds_precond_inexact,
    bounds_unpreconditioned,
    verify_containment,
)
from .errors import DefinitenessError, ParameterError, SaddleBoundsError
from .krylov import RTOL_DEFAULT, check_stopping, minres
from .precond import (
    PoissonControlContext,
    build_approx,
    build_exact,
    equivalence_constants,
    from_blocks,  # unused here; perfbench's tracer wraps the name in this module
    split_preconditioned_matrix,
    strategy_tuple,
)
from .spectral import (
    ORACLE_CUTOFF,
    ZERO_TOL,
    SharedSchurPair,
    ValidationReport,
    full_spectrum,
    schur_complements,
    validate,
)
from .system import DoubleSaddleSystem, assemble, assemble_csr

SCHEMA_VERSION = 1
FLOAT_FMT = ".17g"

SCENARIOS = ("unprec", "prec-exact", "prec-inexact")


def fmt(value: float) -> str:
    return format(float(value), FLOAT_FMT)


def _json_float(value: float):
    """Finite floats pass through; infinities become strings so the report
    stays strict JSON."""
    value = float(value)
    return value if np.isfinite(value) else str(value)


def _interval_list(iv: Interval) -> list[float]:
    return [float(iv.lo), float(iv.hi)]


def intervals_to_dict(bounds: BoundIntervals) -> dict:
    out = {
        "negative": _interval_list(bounds.negative),
        "positive": _interval_list(bounds.positive),
        "provenance": bounds.provenance,
        "warnings": list(bounds.warnings),
    }
    if bounds.discrete is not None:
        out["discrete"] = [[float(v), int(k)] for v, k in bounds.discrete]
    if bounds.interval_counts is not None:
        out["interval_counts"] = [
            [_interval_list(iv), int(k)] for iv, k in bounds.interval_counts
        ]
    if bounds.total_count is not None:
        out["total_count"] = int(bounds.total_count)
    if bounds.upper_negative_estimate is not None:
        out["upper_negative_estimate"] = float(bounds.upper_negative_estimate)
    return out


def intervals_from_dict(data: dict) -> BoundIntervals:
    return BoundIntervals(
        negative=Interval(*data["negative"]),
        positive=Interval(*data["positive"]),
        provenance=data.get("provenance", ""),
        discrete=(
            tuple((float(v), int(k)) for v, k in data["discrete"])
            if "discrete" in data
            else None
        ),
        interval_counts=(
            tuple((Interval(*iv), int(k)) for iv, k in data["interval_counts"])
            if "interval_counts" in data
            else None
        ),
        total_count=data.get("total_count"),
        warnings=tuple(data.get("warnings", ())),
        upper_negative_estimate=data.get("upper_negative_estimate"),
    )


def _containment_dict(spectrum, bounds: BoundIntervals, tol: float) -> dict:
    report = verify_containment(spectrum, bounds, tol=tol)
    failed = [v.value for v in report.verdicts if not v.ok]
    return {
        "status": "pass" if report.passed else "fail",
        "checked": len(report.verdicts),
        "failed": len(failed),
        "failed_values": failed[:16],
        "worst_slack": _json_float(report.worst_slack),
        "multiplicity_ok": report.multiplicity_ok,
        "interval_counts_ok": report.interval_counts_ok,
        "tol": tol,
    }


def _spectrum_summary(values: np.ndarray) -> dict:
    scale = float(np.abs(values).max(initial=0.0))
    cut = ZERO_TOL * max(scale, 1.0)
    neg = values[values < -cut]
    pos = values[values > cut]
    summary = {
        "count": int(values.size),
        "inertia": [int(pos.size), int(neg.size), int(values.size - pos.size - neg.size)],
        "min": float(values.min()),
        "max": float(values.max()),
    }
    if neg.size:
        summary["negative_range"] = [float(neg.min()), float(neg.max())]
    if pos.size:
        summary["positive_range"] = [float(pos.min()), float(pos.max())]
    return summary


def _validation_dict(rep: ValidationReport) -> dict:
    return {
        "ok": rep.ok,
        "definiteness_ok": dict(rep.definiteness_ok),
        "kernel_conditions": list(rep.kernel_conditions),
        "schur_definite": list(rep.schur_definite),
        "b_full_row_rank": rep.b_full_row_rank,
        "c_full_row_rank": rep.c_full_row_rank,
        "c_nullity_k": rep.c_nullity_k,
    }


@dataclass
class AnalysisReport:
    """Everything one analysis run computed, JSON-serializable."""

    problem: dict
    dims: list[int]
    validation: dict
    scenarios: list[dict]
    extremes: dict | None = None
    spectrum: list[float] | None = None
    timings: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        if not self.validation.get("ok", False):
            return False
        for scenario in self.scenarios:
            containment = scenario.get("containment")
            if containment and containment.get("status") == "fail":
                return False
            if "error" in scenario:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "problem": self.problem,
            "dims": self.dims,
            "validation": self.validation,
            "extremes": self.extremes,
            "scenarios": self.scenarios,
            "spectrum": self.spectrum,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        # allow_nan=False enforces strict JSON; non-finite ratios are strings
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(
            schema=data["schema"],
            problem=data["problem"],
            dims=data["dims"],
            validation=data["validation"],
            extremes=data.get("extremes"),
            scenarios=data["scenarios"],
            spectrum=data.get("spectrum"),
            timings=data.get("timings", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def analyze(
    system: DoubleSaddleSystem,
    scenarios: Sequence[str] = ("unprec",),
    precond: str = "jacobi",
    context: PoissonControlContext | None = None,
    user_blocks=None,
    tol: float = CONTAINMENT_TOL,
    oracle_cutoff: int = ORACLE_CUTOFF,
    problem: dict | None = None,
) -> AnalysisReport:
    """Compute bounds, spectra, and containment verdicts for a system.

    ``scenarios`` picks any of ``unprec``, ``prec-exact``, ``prec-inexact``;
    the last uses ``precond`` to choose the approximation strategy.  Above
    ``oracle_cutoff`` the spectra are skipped and verdicts are reported as
    ``unverified``; bounds are emitted either way.  A sparse system is
    densified once, here: everything below is the dense oracle.  The dense
    Schur pair is built once, in :func:`validate`, and shared for the length
    of the call (:class:`~saddlebounds.spectral.SharedSchurPair`) with the
    preconditioner builds and the eta read; the last scenario that reads it
    releases it before its split spectra.  Each dense block is factored
    once: both exact preconditioners take S2's factor from the pair, the
    equivalence constants reuse the approximate preconditioner's factors,
    and the normalized spectrum comes from the inexact split matrix
    rescaled in place (see :func:`_split_spectrum`).
    """
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    if not scenarios:
        raise ParameterError("no scenario given")
    for name in scenarios:
        if name not in SCENARIOS:
            raise ParameterError(f"unknown scenario {name!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    strategies = strategy_tuple(precond) if "prec-inexact" in scenarios else None
    system = system.dense()
    # validate builds the Schur pair and each later reader gets it; the last
    # scenario that reads it (any but unprec) releases it after its last read
    last_reader = max(
        (i for i, name in enumerate(scenarios) if name != "unprec"), default=-1)
    with SharedSchurPair(system) as shared:
        validation = validate(system)
        extremes = validation.extremes
        report = AnalysisReport(
            problem=problem or {},
            dims=list(system.dims),
            validation=_validation_dict(validation),
            scenarios=[],
            extremes=None if extremes is None else asdict(extremes),
            timings=timings,
        )
        timings["validate"] = time.perf_counter() - t_start
        if last_reader < 0:
            shared.release()

        desk_scale = system.total <= oracle_cutoff
        spectrum = None
        if desk_scale:
            t0 = time.perf_counter()
            spectrum = full_spectrum(assemble(system).data, oracle_cutoff)
            report.spectrum = [float(v) for v in spectrum]
            timings["spectrum"] = time.perf_counter() - t0

        d_zero = not system.D.any()
        e_zero = not system.E.any()

        for i, name in enumerate(scenarios):
            t0 = time.perf_counter()
            release = shared.release if i == last_reader else _keep
            try:
                if name == "unprec":
                    entry = _scenario_unprec(extremes, spectrum, tol)
                elif name == "prec-exact":
                    entry = _scenario_prec_exact(
                        system, report.validation["c_nullity_k"],
                        d_zero, e_zero, tol, oracle_cutoff, release,
                    )
                else:
                    entry = _scenario_prec_inexact(
                        system, strategies, context, user_blocks,
                        d_zero, e_zero, tol, oracle_cutoff, release,
                    )
            except SaddleBoundsError as exc:
                entry = {"name": name, "error": f"{type(exc).__name__}: {exc}"}
            entry["name"] = name
            report.scenarios.append(entry)
            timings[name] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    return report


def _scenario_unprec(extremes, spectrum, tol) -> dict:
    if extremes is None:
        raise DefinitenessError("block extremes unavailable (leading block not SPD)")
    bounds = bounds_unpreconditioned(extremes)
    entry = {"intervals": intervals_to_dict(bounds)}
    if spectrum is None:
        entry["containment"] = {"status": "unverified"}
    else:
        entry["containment"] = _containment_dict(spectrum, bounds, tol)
        entry["spectrum_summary"] = _spectrum_summary(spectrum)
    return entry


def _keep() -> None:
    """The release of a scenario that is not the Schur pair's last reader."""


def _scenario_prec_exact(
    system, nullity_k, d_zero, e_zero, tol, oracle_cutoff, release
) -> dict:
    op = build_exact(system)
    release()
    k = nullity_k if (d_zero and not e_zero) else 0
    bounds = bounds_precond_exact(system.dims, d_zero=d_zero, e_zero=e_zero, nullity_k=k)
    entry = {
        "intervals": intervals_to_dict(bounds),
        "precond": {"strategy": list(op.strategy)},
    }
    if system.total > oracle_cutoff:
        entry["containment"] = {"status": "unverified"}
        return entry
    values, _ = _split_spectrum(system, op, oracle_cutoff)
    entry["spectrum"] = [float(v) for v in values]
    entry["spectrum_summary"] = _spectrum_summary(values)
    entry["containment"] = _containment_dict(values, bounds, tol)
    return entry


def _scenario_prec_inexact(
    system, strategies, context, user_blocks, d_zero, e_zero, tol, oracle_cutoff, release,
) -> dict:
    exact_op = build_exact(system)
    approx_op = build_approx(system, strategies, context=context, user_blocks=user_blocks)

    measurements = [
        equivalence_constants(exact_block, approx_block, factor)
        for exact_block, approx_block, factor in zip(
            exact_op.blocks, approx_op.blocks, approx_op._factors)
    ]
    del exact_op
    consts = EquivalenceConstants(
        alpha0=measurements[0].alpha, beta0=measurements[0].beta,
        alpha1=measurements[1].alpha, beta1=measurements[1].beta,
        alpha2=measurements[2].alpha, beta2=measurements[2].beta,
    )
    pair = schur_complements(system)
    eta_d = 0.0 if d_zero else pair.eta_d
    eta_e = 0.0 if e_zero else pair.eta_e
    del pair
    release()

    entry = {
        "precond": {
            "strategy": list(approx_op.strategy),
            "equivalence": [
                {
                    "raw": _interval_list(m.raw),
                    "alpha": m.alpha,
                    "beta": m.beta,
                    "scale": m.scale,
                }
                for m in measurements
            ],
            "eta_d": _json_float(eta_d),
            "eta_e": _json_float(eta_e),
        },
    }

    bounds = None
    if np.isfinite(eta_d) and np.isfinite(eta_e):
        bounds = bounds_precond_inexact(
            consts, eta_d=eta_d, eta_e=eta_e, d_zero=d_zero, e_zero=e_zero
        )
        entry["intervals"] = intervals_to_dict(bounds)
    else:
        entry["intervals"] = None
        entry["warnings"] = ["eta-not-finite: inexact bounds suppressed"]

    reference = _reference_intervals(strategies, context, d_zero, e_zero)
    if reference is not None:
        entry["reference_intervals"] = intervals_to_dict(reference)

    if system.total > oracle_cutoff:
        entry["containment"] = {"status": "unverified"}
        return entry

    # the normalized constants describe the rescaled blocks, so the measured
    # bounds are checked against the spectrum of that rescaled operator
    scales = [m.scale for m in measurements]
    values, norm_values = _split_spectrum(system, approx_op, oracle_cutoff, scales)
    entry["spectrum"] = [float(v) for v in values]
    entry["spectrum_summary"] = _spectrum_summary(values)
    if norm_values is not values:
        entry["normalization_scales"] = scales
        entry["spectrum_normalized"] = [float(v) for v in norm_values]

    if bounds is not None:
        entry["containment"] = _containment_dict(norm_values, bounds, tol)
    else:
        entry["containment"] = {"status": "unverified"}
    if reference is not None:
        entry["reference_containment"] = _containment_dict(values, reference, tol)
    return entry


def _split_spectrum(system, op, oracle_cutoff, scales=(1.0, 1.0, 1.0)):
    """Spectra of the split-preconditioned matrix of ``op`` and of the
    operator with block i scaled by ``scales[i]``; the second is the first
    array itself when every scale is 1.

    The factor of s P is sqrt(s) U, so the scaled operator's split matrix
    is this one with block (i, j) divided by sqrt(s_i s_j), which is done in
    place once the first spectrum is taken.  The matrix is dropped at once.
    """
    matrix = split_preconditioned_matrix(system, op, oracle_cutoff)
    values = full_spectrum(matrix, oracle_cutoff)
    if all(s == 1.0 for s in scales):
        return values, values
    n, m, _ = system.dims
    parts = (slice(0, n), slice(n, n + m), slice(n + m, system.total))
    for i, s_i in zip(parts, scales):
        for j, s_j in zip(parts, scales):
            matrix[i, j] /= math.sqrt(s_i * s_j)
    return values, full_spectrum(matrix, oracle_cutoff)


def _reference_intervals(strategies, context, d_zero, e_zero):
    """Published-recipe intervals for the distributed-control square-completion
    preconditioner: guaranteed equivalence constants plus the reference
    regularization-ratio scale of the problem family."""
    if context is None or strategies[2] != "pearson-wathen" or not d_zero or e_zero:
        return None
    lo, hi = context.assumed_constants()
    assumed = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, lo, hi)
    return bounds_precond_inexact(
        assumed,
        eta_d=0.0,
        eta_e=context.reference_regularization_ratio(),
        d_zero=True,
        e_zero=False,
    )


def solve(
    system: DoubleSaddleSystem,
    precond: str = "none",
    rtol: float = RTOL_DEFAULT,
    maxit: int | None = None,
    context: PoissonControlContext | None = None,
    user_blocks=None,
    problem: dict | None = None,
) -> dict:
    """Run (preconditioned) MINRES on the assembled system with b = ones.

    MINRES applies K in CSR form, built from the blocks without a dense K;
    sparse blocks stay sparse, and the preconditioner picks each block's
    factor from its type (see :mod:`saddlebounds.precond`).  The strategy
    name and the stopping rule are checked before any matrix is built.
    """
    check_stopping(rtol, maxit)
    strategies = None if precond == "none" else strategy_tuple(precond)
    matrix = assemble_csr(system)
    rhs = np.ones(matrix.shape[0])
    op = None
    if strategies is not None:
        op = build_approx(system, strategies, context=context, user_blocks=user_blocks)
    result = minres(matrix, op, rhs, rtol=rtol, maxit=maxit)
    residual = float(
        np.linalg.norm(matrix @ result.solution - rhs) / np.linalg.norm(rhs)
    )
    return {
        "schema": SCHEMA_VERSION,
        "problem": problem or {},
        "precond": precond,
        "rtol": rtol,
        "iterations": result.iterations,
        "converged": result.converged,
        "breakdown": result.breakdown,
        "final_relative_residual": result.relative_history[-1],
        "true_relative_residual": residual,
        "residual_history": list(result.residual_history),
    }


def solve_rows(solve_data: dict) -> list[str]:
    """CSV rows (iteration, relative residual) for a solve report."""
    history = solve_data["residual_history"]
    base = history[0] if history and history[0] != 0 else 1.0
    rows = ["iteration,relative_residual"]
    for i, value in enumerate(history):
        rows.append(f"{i},{fmt(value / base)}")
    return rows


def plot_rows(
    reports: Sequence[AnalysisReport], scenario: str | None = None
) -> list[str]:
    """Eigenvalue-index CSV rows with bound lines as constant columns.

    One ``eigenvalue`` column per report (suffixed ``_2``, ``_3``, ... past
    the first); bound columns come from the first report that carries
    intervals for the selected scenario.  Deterministic layout: rows are
    eigenvalue indices, shorter spectra leave cells empty.
    """
    spectra: list[list[float]] = []
    bounds_values = None
    for report in reports:
        entry, values = pick_scenario(report, scenario)
        if entry is None:
            continue
        spectra.append(values or [])
        if bounds_values is None and entry.get("intervals"):
            iv = entry["intervals"]
            bounds_values = iv["negative"] + iv["positive"]

    header = ["index"]
    header.append("eigenvalue")
    for extra in range(2, len(spectra) + 1):
        header.append(f"eigenvalue_{extra}")
    header += ["bound_neg_lo", "bound_neg_hi", "bound_pos_lo", "bound_pos_hi"]
    rows = [",".join(header)]
    if not spectra:
        return rows
    if bounds_values is None:
        bounds_values = [float("nan")] * 4
    length = max(len(s) for s in spectra)
    for i in range(length):
        cells = [str(i)]
        for values in spectra:
            cells.append(fmt(values[i]) if i < len(values) else "")
        cells.extend(fmt(v) for v in bounds_values)
        rows.append(",".join(cells))
    return rows


def pick_scenario(report: AnalysisReport, scenario: str | None):
    """The selected scenario entry of a report (the first when ``scenario``
    is None; None when the report lacks it) and the spectrum to plot for it:
    the entry's own, or the spectrum of K for an ``unprec`` entry, else None.
    """
    entry = next((e for e in report.scenarios
                  if scenario is None or e.get("name") == scenario), None)
    if entry is None:
        return None, None
    values = entry.get("spectrum")
    if values is None and entry.get("name") == "unprec":
        values = report.spectrum
    return entry, values

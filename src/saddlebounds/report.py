"""Analysis pipelines and machine-readable reports.

The CLI is a thin wrapper over :func:`analyze`, :func:`solve` and
:func:`plot_rows`.  Reports are plain JSON documents (``schema: 2``) that
round-trip losslessly; all CSV output formats floats with 17 significant
digits so re-parsing reproduces them bit for bit.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import modal, spectral
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
from .krylov import RESIDUAL_GAP, RTOL_DEFAULT, check_stopping, minres
from .precond import (
    SQUARE_COMPLETION_CONSTANTS,
    PoissonControlContext,
    build_approx,
    build_exact,
    equivalence_constants,
    from_blocks,  # unused here; perfbench's tracer wraps the name in this module
    split_preconditioned_matrix,
    strategy_tuple,
)
from .spectral import (
    ZERO_TOL,
    ValidationReport,
    full_spectrum,
    regularization_ratio,
    schur_complements,
    validate,
)
from .system import DoubleSaddleSystem, assemble, assemble_csr

SCHEMA_VERSION = 2
FLOAT_FMT = ".17g"

SCENARIOS = ("unprec", "prec-exact", "prec-inexact")


def fmt(value: float) -> str:
    return format(float(value), FLOAT_FMT)


# the C string escaper json.dumps uses with ensure_ascii
_json_str = json.encoder.encode_basestring_ascii


def _plain_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` for
    a document of plain values: dicts with string keys, lists, tuples,
    strings, None, bools, ints and floats.  Each container is written by
    one join; the standard library's indenting encoder is pure Python and
    yields every token from a generator, and on the desk-random reports it
    took about 1.5 times as long (550 against 360 us a report, most of both
    in the floats' repr).  A non-finite float raises the same
    ``ValueError``; any other value, or a key that is not a string, raises
    ``TypeError``.
    """
    if isinstance(value, float):  # first: spectra are most of a report
        if value - value == 0.0:
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_plain_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_str(k) + ": " + _plain_json(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"{type(value).__name__} is not a plain JSON value")


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


def _containment_dict(spectrum, bounds: BoundIntervals, tol: float, method: str) -> dict:
    """The verdict of ``bounds`` on ``spectrum``, which the ``method``
    oracle (``modal`` or ``dense``) took."""
    report = verify_containment(spectrum, bounds, tol=tol)
    failed = [v.value for v in report.verdicts if not v.ok]
    return {
        "status": "pass" if report.passed else "fail",
        "method": method,
        "checked": len(report.verdicts),
        "failed": len(failed),
        "failed_values": failed[:16],
        "worst_slack": _json_float(report.worst_slack),
        "multiplicity_ok": report.multiplicity_ok,
        "interval_counts_ok": report.interval_counts_ok,
        "tol": tol,
    }


def _spectrum_summary(values: np.ndarray) -> dict:
    """Count, inertia, extremes and sign ranges of a nonempty spectrum in
    ascending order, as :func:`full_spectrum` gives it; values within
    ``ZERO_TOL * max(1, max|v|)`` of zero count as zero."""
    size = values.size
    lo, hi = values[0].item(), values[-1].item()
    cut = ZERO_TOL * max(abs(lo), abs(hi), 1.0)
    n_neg = int(np.searchsorted(values, -cut, side="left"))
    n_pos = size - int(np.searchsorted(values, cut, side="right"))
    summary = {
        "count": size,
        "inertia": [n_pos, n_neg, size - n_pos - n_neg],
        "min": lo,
        "max": hi,
    }
    if n_neg:
        summary["negative_range"] = [lo, values[n_neg - 1].item()]
    if n_pos:
        summary["positive_range"] = [values[size - n_pos].item(), hi]
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
        # allow_nan=False enforces strict JSON; non-finite ratios are strings.
        # _plain_json writes the same text faster; json.dumps takes the rest
        data = self.to_dict()
        try:
            return _plain_json(data) + "\n"
        except TypeError:
            return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"

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
    problem: dict | None = None,
) -> AnalysisReport:
    """Compute bounds, spectra, and containment verdicts for a system.

    ``scenarios`` picks any of ``unprec``, ``prec-exact``, ``prec-inexact``;
    the last uses ``precond`` to choose the approximation strategy.  Bounds
    are emitted either way.  Each spectrum they are checked against comes
    from one of two oracles, which each verified ``containment`` and
    ``reference_containment`` names as its ``method``:

    * ``modal``: a system on the uniform Q1 grid, recognized from its
      stored entries before it is densified
      (:func:`~saddlebounds.modal.recognize`), takes K's spectrum, and the
      split spectrum of each operator whose strategies the modal oracle
      covers, from one tridiagonal eigensolve each, at any size;
    * ``dense``: any other spectrum, up to ``ORACLE_CUTOFF``; above it the
      verdict is ``unverified`` and no N x N matrix is formed.

    Everything that feeds the bounds is measured densely whatever the
    oracle: validation and the block extremes, the Schur pair, the
    operators, the equivalence constants and the eta values.  A sparse
    system, and each sparse user block, is densified once, here, after the
    modal oracle has looked at it: everything below is the dense oracle,
    which factors each user block once, densely.  The dense Schur pair is
    built once, in :func:`validate`, and kept by the system
    (:func:`~saddlebounds.spectral.schur_complements`), so the
    preconditioner builds and the eta read, which takes its Grams and
    :func:`validate`'s rank verdicts, get that pair; the dense copy of a
    sparse system, and its pair, die when the call returns.  K's spectrum
    is taken before :func:`validate`, so no pair is alive during a dense
    N x N eigensolve.  Each dense block is factored once: both exact
    preconditioners take S2's factor from the pair, and the equivalence
    constants reuse the approximate preconditioner's factors.  The inexact
    bounds use the raw equivalence constants of the approximation as
    built, so each preconditioned scenario takes one spectrum, of its own
    split matrix, and checks both its bounds and any reference intervals
    against it (:func:`_split_verdicts`).  A dense K and each dense split
    matrix are formed only to be eigensolved, so they are handed over
    (``full_spectrum(..., overwrite=True)``) and each spectrum holds one
    N x N array, not two.
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
    oracle = modal.recognize(system, context)
    system = system.dense()
    if user_blocks is not None:
        user_blocks = [b.toarray() if sp.issparse(b) else b for b in user_blocks]
    # K's spectrum first, so that no Schur pair is alive during its N x N
    # eigensolve: on a dense system the pair validate builds stays with it
    spectrum = None
    t0 = time.perf_counter()
    if oracle is not None:
        spectrum = oracle.spectrum()
    elif system.total <= spectral.ORACLE_CUTOFF:
        spectrum = full_spectrum(assemble(system).data, overwrite=True)
    if spectrum is not None:
        timings["spectrum"] = time.perf_counter() - t0
    method = "dense" if oracle is None else "modal"

    t0 = time.perf_counter()
    validation = validate(system)
    extremes = validation.extremes
    report = AnalysisReport(
        problem=problem or {},
        dims=list(system.dims),
        validation=_validation_dict(validation),
        scenarios=[],
        extremes=None if extremes is None else dict(vars(extremes)),
        spectrum=None if spectrum is None else spectrum.tolist(),
        timings=timings,
    )
    timings["validate"] = time.perf_counter() - t0

    split_spectra = _SplitSpectra(system, oracle)

    for name in scenarios:
        t0 = time.perf_counter()
        try:
            if name == "unprec":
                entry = _scenario_unprec(validation, spectrum, method, tol)
            elif name == "prec-exact":
                entry = _scenario_prec_exact(
                    system, validation.c_nullity_k, tol, split_spectra)
            else:
                entry = _scenario_prec_inexact(
                    system, validation, strategies, context, user_blocks, tol,
                    split_spectra)
        except SaddleBoundsError as exc:
            entry = {"name": name, "error": f"{type(exc).__name__}: {exc}"}
        entry["name"] = name
        report.scenarios.append(entry)
        timings[name] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    return report


def _scenario_unprec(validation, spectrum, method, tol) -> dict:
    if validation.extremes is None:
        failed = ", ".join(name for name, ok in validation.definiteness_ok.items() if not ok)
        raise DefinitenessError(f"block extremes unavailable (definiteness fails: {failed})")
    bounds = bounds_unpreconditioned(validation.extremes)
    entry = {"intervals": intervals_to_dict(bounds)}
    if spectrum is None:
        entry["containment"] = {"status": "unverified"}
    else:
        entry["containment"] = _containment_dict(spectrum, bounds, tol, method)
        entry["spectrum_summary"] = _spectrum_summary(spectrum)
    return entry


def _scenario_prec_exact(system, nullity_k, tol, split_spectra) -> dict:
    op = build_exact(system)
    k = nullity_k if (system.d_zero and not system.e_zero) else 0
    bounds = bounds_precond_exact(system.dims, d_zero=system.d_zero, e_zero=system.e_zero,
                                  nullity_k=k)
    entry = {
        "intervals": intervals_to_dict(bounds),
        "precond": {"strategy": list(op.strategy)},
    }
    return _split_verdicts(entry, op, bounds, tol, split_spectra)


def _scenario_prec_inexact(
    system, validation, strategies, context, user_blocks, tol, split_spectra,
) -> dict:
    exact_op = build_exact(system)
    approx_op = build_approx(system, strategies, context=context, user_blocks=user_blocks)

    equivalence = [
        equivalence_constants(exact_block, approx_block, factor)
        for exact_block, approx_block, factor in zip(
            exact_op.blocks, approx_op.blocks, approx_op._factors)
    ]
    consts = EquivalenceConstants(*(end for iv in equivalence for end in iv))
    pair = schur_complements(system)
    eta_d = regularization_ratio(system.D, pair.gram_b, validation.b_full_row_rank)
    eta_e = regularization_ratio(system.E, pair.gram_c, validation.c_full_row_rank)

    entry = {
        "precond": {
            "strategy": list(approx_op.strategy),
            "equivalence": [_interval_list(iv) for iv in equivalence],
            "eta_d": _json_float(eta_d),
            "eta_e": _json_float(eta_e),
        },
    }

    bounds = None
    warnings = []
    if np.isfinite(eta_d) and np.isfinite(eta_e):
        bounds = bounds_precond_inexact(
            consts, eta_d=eta_d, eta_e=eta_e, d_zero=system.d_zero, e_zero=system.e_zero
        )
        entry["intervals"] = intervals_to_dict(bounds)
    else:
        entry["intervals"] = None
        warnings.append("eta-not-finite: inexact bounds suppressed")

    reference = _reference_intervals(system, strategies, context, warnings)
    if reference is not None:
        entry["reference_intervals"] = intervals_to_dict(reference)
    if warnings:
        entry["warnings"] = warnings
    return _split_verdicts(entry, approx_op, bounds, tol, split_spectra, reference)


class _SplitSpectra:
    """The split spectra of one analysis, each taken once: from the modal
    oracle when the system was recognized and it covers the operator's
    strategies, else from the dense split matrix up to ``ORACLE_CUTOFF``.

    The split matrix of a dense system is a function of the operator's
    factors alone (:func:`split_preconditioned_matrix`), so an operator
    whose factors are the very objects of one seen before (an ``exact``
    ``prec-inexact`` after ``prec-exact``) takes its spectrum, bit for bit
    the one it would form.
    """

    def __init__(self, system: DoubleSaddleSystem, oracle: modal.ModalOracle | None):
        self.system = system
        self.oracle = oracle
        self.known: list = []  # (operator, spectrum, method)

    def of(self, op):
        """(spectrum, method) for ``op``, or None when neither oracle
        takes it."""
        for other, values, method in self.known:
            if all(map(operator.is_, other._factors, op._factors)):
                return values, method
        values, method = None, "modal"
        if self.oracle is not None:
            values = self.oracle.split_spectrum(op.strategy)
        if values is None:
            if self.system.total > spectral.ORACLE_CUTOFF:
                return None
            values, method = full_spectrum(
                split_preconditioned_matrix(self.system, op), overwrite=True), "dense"
        self.known.append((op, values, method))
        return values, method


def _split_verdicts(entry, op, bounds, tol, split_spectra, reference=None) -> dict:
    """The tail both preconditioned scenarios share: ``entry`` gets the
    split spectrum of ``op`` (:class:`_SplitSpectra`), its summary, and the
    containment verdicts on it of ``bounds`` (``unverified`` when None) and
    of ``reference`` when given, each naming the oracle that took the
    spectrum.  When neither oracle takes it (a spectrum the modal oracle
    does not cover, above ``ORACLE_CUTOFF``) ``entry`` is marked
    ``unverified`` and no split matrix is formed.  Returns ``entry``.
    """
    found = split_spectra.of(op)
    if found is None:
        entry["containment"] = {"status": "unverified"}
        return entry
    values, method = found
    entry["spectrum"] = values.tolist()
    entry["spectrum_summary"] = _spectrum_summary(values)
    if bounds is not None:
        entry["containment"] = _containment_dict(values, bounds, tol, method)
    else:
        entry["containment"] = {"status": "unverified"}
    if reference is not None:
        entry["reference_containment"] = _containment_dict(values, reference, tol, method)
    return entry


def _reference_intervals(system, strategies, context, warnings: list):
    """Published-recipe intervals for the distributed-control square-completion
    preconditioner: guaranteed equivalence constants plus the reference
    regularization-ratio scale of the problem family.  A reference ratio
    that is not finite (the context's stiffness has a zero generalized
    eigenvalue) gives no intervals and appends a warning to ``warnings``."""
    if (context is None or strategies[2] != "pearson-wathen" or not system.d_zero
            or system.e_zero):
        return None
    eta_e = context.reference_regularization_ratio()
    if not np.isfinite(eta_e):
        warnings.append("reference-eta-not-finite: reference intervals suppressed")
        return None
    assumed = EquivalenceConstants(1.0, 1.0, 1.0, 1.0, *SQUARE_COMPLETION_CONSTANTS)
    return bounds_precond_inexact(assumed, eta_d=0.0, eta_e=eta_e, d_zero=True, e_zero=False)


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

    MINRES stops on the P^-1-norm residual (``residual_norm``; P = I for
    ``none``), and ``stop`` says why it stopped (``rtol``, ``maxit`` or
    ``breakdown:<kind>``); ``converged`` is ``stop == "rtol"``.  The true
    relative 2-norm residual can be far larger: when it exceeds
    ``RESIDUAL_GAP * rtol``, ``warnings`` holds a ``residual-gap`` entry.
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
    warnings = []
    if residual > RESIDUAL_GAP * rtol:
        warnings.append({"kind": "residual-gap", "true_relative_residual": residual,
                         "limit": RESIDUAL_GAP * rtol})
    return {
        "schema": SCHEMA_VERSION,
        "problem": problem or {},
        "precond": precond,
        "rtol": rtol,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop": result.stop,
        "breakdown": result.breakdown,
        "residual_norm": "P^-1",
        "final_relative_residual": result.relative_history[-1],
        "true_relative_residual": residual,
        "warnings": warnings,
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

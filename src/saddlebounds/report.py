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
from functools import cached_property
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
    check_context,
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


def _validation_dict(rep: ValidationReport, method: str) -> dict:
    """The validation section; ``method`` names the oracle that measured it."""
    return {
        "ok": rep.ok,
        "method": method,
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
    are emitted either way.  Each quantity comes from one of two oracles,
    which each verified ``containment`` and ``reference_containment``, and
    ``validation``, names as its ``method``:

    * ``modal``: a system on the uniform Q1 grid, recognized from its
      stored entries (:func:`~saddlebounds.modal.recognize`), takes K's
      spectrum from one tridiagonal eigensolve at any size.  When its
      validation, measured on the mode values, passes, it also takes the
      block extremes and the eta values from them, and for each operator
      whose strategies the modal oracle covers
      (:meth:`~saddlebounds.modal.ModalOracle.covers`) the equivalence
      constants and the split spectrum; no operator is built for those.
      With a recognized context the reference ratio is a mode value too.
      Such a system with covered strategies is never densified.
    * ``dense``: everything else.  An unrecognized system, and each sparse
      user block, is densified here; a recognized one is densified on the
      first dense quantity it needs (:class:`_Sources`): its whole
      validation and everything after it when the modal validation fails,
      so its verdicts and typed errors are those of the dense path, and
      else the operators of strategies the modal oracle does not cover
      (``jacobi``, ``user``), their equivalence constants and split
      spectra.  A dense spectrum is taken up to ``ORACLE_CUTOFF``; above
      it the verdict is ``unverified`` and no N x N matrix is formed.

    On the dense path the Schur pair is built once, by the first reader
    (:func:`validate` on a dense system), and kept by the system
    (:func:`~saddlebounds.spectral.schur_complements`), so the
    preconditioner builds and the eta read, which takes its Grams and the
    validation's rank verdicts, get that pair; a dense copy of a sparse
    system, and its pair, die when the call returns.  K's spectrum is taken
    before the validation, so no pair is alive during a dense N x N
    eigensolve.  Each dense block is factored once: both exact
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
    if oracle is None:
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
    sources = _Sources(system, oracle)
    validation = sources.validation()
    extremes = validation.extremes
    report = AnalysisReport(
        problem=problem or {},
        dims=list(system.dims),
        validation=_validation_dict(validation, "dense" if sources.modal is None else "modal"),
        scenarios=[],
        extremes=None if extremes is None else dict(vars(extremes)),
        spectrum=None if spectrum is None else spectrum.tolist(),
        timings=timings,
    )
    timings["validate"] = time.perf_counter() - t0

    for name in scenarios:
        t0 = time.perf_counter()
        try:
            if name == "unprec":
                entry = _scenario_unprec(validation, spectrum, method, tol)
            elif name == "prec-exact":
                entry = _scenario_prec_exact(validation.c_nullity_k, tol, sources)
            else:
                entry = _scenario_prec_inexact(
                    validation, strategies, context, user_blocks, tol, sources)
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


def _scenario_prec_exact(nullity_k, tol, sources) -> dict:
    system = sources.system
    strategies = ("exact", "exact", "exact")
    op = None if sources.covers(strategies) else build_exact(sources.dense)
    k = nullity_k if (system.d_zero and not system.e_zero) else 0
    bounds = bounds_precond_exact(system.dims, d_zero=system.d_zero, e_zero=system.e_zero,
                                  nullity_k=k)
    entry = {
        "intervals": intervals_to_dict(bounds),
        "precond": {"strategy": list(strategies)},
    }
    return _split_verdicts(entry, strategies, op, bounds, tol, sources)


def _scenario_prec_inexact(validation, strategies, context, user_blocks, tol, sources) -> dict:
    system = sources.system
    if sources.covers(strategies):
        check_context(context, system.dims[2])
        op, equivalence = None, sources.modal.equivalence(strategies)
    else:
        exact_op = build_exact(sources.dense)
        op = build_approx(sources.dense, strategies, context=context, user_blocks=user_blocks)
        equivalence = [
            equivalence_constants(exact_block, approx_block, factor)
            for exact_block, approx_block, factor in zip(
                exact_op.blocks, op.blocks, op._factors)
        ]
    consts = EquivalenceConstants(*(end for iv in equivalence for end in iv))
    eta_d, eta_e = sources.etas(validation)

    entry = {
        "precond": {
            "strategy": list(strategies),
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

    reference = _reference_intervals(strategies, context, warnings, sources)
    if reference is not None:
        entry["reference_intervals"] = intervals_to_dict(reference)
    if warnings:
        entry["warnings"] = warnings
    return _split_verdicts(entry, strategies, op, bounds, tol, sources, reference)


class _Sources:
    """Where one analysis takes each quantity that feeds its bounds and
    verdicts, each taken once.

    ``system`` is the system as given when the modal oracle recognized it,
    else its dense copy; ``dense`` is the dense copy, made on first use, so
    a recognized system that needs no dense quantity is never densified.
    ``modal`` is the modal oracle once its validation has passed, else
    None: then it also takes the eta values, the reference ratio of a
    recognized context, and the equivalence constants and split spectrum of
    each covered operator, which is never built.

    A split spectrum is taken from the modal oracle for covered strategies,
    or, for an operator that was built, from the modal oracle when the
    system was recognized and it covers the operator's strategies, else
    from the dense split matrix up to ``ORACLE_CUTOFF``.  The split matrix
    of a dense system is a function of the operator's factors alone
    (:func:`split_preconditioned_matrix`), so an operator whose factors are
    the very objects of one seen before (an ``exact`` ``prec-inexact``
    after ``prec-exact``) takes its spectrum, bit for bit the one it would
    form.
    """

    def __init__(self, system: DoubleSaddleSystem, oracle: modal.ModalOracle | None):
        self.system = system
        self.oracle = oracle
        self.modal: modal.ModalOracle | None = None
        self.modal_spectra: dict = {}  # strategies -> (spectrum, "modal")
        self.known: list = []  # (operator, spectrum, method)

    @cached_property
    def dense(self) -> DoubleSaddleSystem:
        return self.system.dense()

    def validation(self) -> ValidationReport:
        """The modal validation when it passes, else the dense one."""
        if self.oracle is not None:
            report = self.oracle.validation()
            if report.ok:
                self.modal = self.oracle
                return report
        return validate(self.dense)

    def covers(self, strategies) -> bool:
        """Whether the modal oracle takes the operator ``strategies`` build."""
        return self.modal is not None and self.modal.covers(strategies)

    def etas(self, validation: ValidationReport) -> tuple[float, float]:
        """eta_D and eta_E, which take the validation's row-rank verdicts."""
        ranks = validation.b_full_row_rank, validation.c_full_row_rank
        if self.modal is not None:
            return self.modal.etas(*ranks)
        pair = schur_complements(self.dense)
        return (regularization_ratio(self.dense.D, pair.gram_b, ranks[0]),
                regularization_ratio(self.dense.E, pair.gram_c, ranks[1]))

    def reference_ratio(self, context: PoissonControlContext) -> float:
        ratio = None if self.modal is None else self.modal.reference_ratio()
        return context.reference_regularization_ratio() if ratio is None else ratio

    def split(self, strategies, op):
        """(spectrum, method) of the split matrix of ``op``, or of the
        covered ``strategies`` when ``op`` is None; None when neither
        oracle takes it."""
        if op is None:
            if strategies not in self.modal_spectra:
                self.modal_spectra[strategies] = (
                    self.modal.split_spectrum(strategies), "modal")
            return self.modal_spectra[strategies]
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
                split_preconditioned_matrix(self.dense, op), overwrite=True), "dense"
        self.known.append((op, values, method))
        return values, method


def _split_verdicts(entry, strategies, op, bounds, tol, sources, reference=None) -> dict:
    """The tail both preconditioned scenarios share: ``entry`` gets the
    split spectrum of ``op``, or of the covered ``strategies`` when ``op``
    is None (:meth:`_Sources.split`), its summary, and the containment
    verdicts on it of ``bounds`` (``unverified`` when None) and of
    ``reference`` when given, each naming the oracle that took the
    spectrum.  When neither oracle takes it (a spectrum the modal oracle
    does not cover, above ``ORACLE_CUTOFF``) ``entry`` is marked
    ``unverified`` and no split matrix is formed.  Returns ``entry``.
    """
    found = sources.split(strategies, op)
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


def _reference_intervals(strategies, context, warnings: list, sources):
    """Published-recipe intervals for the distributed-control square-completion
    preconditioner: guaranteed equivalence constants plus the reference
    regularization-ratio scale of the problem family
    (:meth:`_Sources.reference_ratio`).  A reference ratio that is not
    finite (the context's stiffness has a zero generalized eigenvalue)
    gives no intervals and appends a warning to ``warnings``."""
    system = sources.system
    if (context is None or strategies[2] != "pearson-wathen" or not system.d_zero
            or system.e_zero):
        return None
    eta_e = sources.reference_ratio(context)
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

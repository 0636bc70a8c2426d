"""Per-layer spans taken from outside the package.

For the length of a traced run, :func:`instrument` replaces the names that
``saddlebounds.report.analyze`` and ``solve`` look up in their module with
timing wrappers, plus ``BlockExtremes.from_system``,
``PreconditionerOperator.apply_inverse``, ``AnalysisReport.to_json`` and
the Schur-complement builder that the preconditioners call.  The matrix
``solve`` hands to ``minres`` is swapped for a timing callable, which
``minres`` accepts as an operator.  Every original is restored on exit; no
source file changes.

Spans are kept in memory as ``[name, parent, start, end]`` and reduced to
per-layer metrics when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import saddlebounds.precond as precond_mod
import saddlebounds.report as report_mod
from saddlebounds.precond import PreconditionerOperator
from saddlebounds.report import AnalysisReport
from saddlebounds.spectral import BlockExtremes

OP = "op"
GENERATE = "problems.generate"

# names looked up in saddlebounds.report, and the span each becomes
REPORT_SPANS = {
    "validate": "system.validate",
    "assemble": "system.assemble",
    "full_spectrum": "spectral.full_spectrum",
    "schur_complements": "spectral.schur",
    "build_exact": "precond.build",
    "build_approx": "precond.build",
    "from_blocks": "precond.build",
    "split_preconditioned_matrix": "precond.split",
    "equivalence_constants": "precond.equivalence",
    "bounds_unpreconditioned": "bounds.intervals",
    "bounds_precond_exact": "bounds.intervals",
    "bounds_precond_inexact": "bounds.intervals",
    "verify_containment": "bounds.containment",
    "minres": "krylov.minres",
}
# the preconditioner builders form both Schur complements themselves
PRECOND_SPANS = {"schur_complements": "spectral.schur"}

# spans whose calls, with the MINRES iterations, must repeat exactly in
# every cycle of a run with a fixed seed
REPEATING_CALLS = ("spectral.schur", "spectral.full_spectrum", "krylov.psolve")

# slack for summing child durations that were each rounded once
_SUM_SLACK = 1e-9


class Tracer:
    """A span stack with calls counted per span name and extra tallies."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def repeating_counts(self) -> dict[str, int]:
        counts = {name: self.calls[name] for name in REPEATING_CALLS}
        counts["krylov.iterations"] = self.tallies["krylov.iterations"]
        return counts

    # --- reduction -------------------------------------------------------------

    def _durations_and_child_sums(self):
        durations = [end - start for _, _, start, end in self.spans]
        child_sums = [0.0] * len(self.spans)
        for (_, parent, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child_sums[parent] += duration
        return durations, child_sums

    def self_check(self) -> list[str]:
        """Violations of span nesting: a child longer than its parent, or
        children summing to more than the parent."""
        durations, child_sums = self._durations_and_child_sums()
        problems = []
        for i, (name, parent, _, _) in enumerate(self.spans):
            if parent >= 0 and durations[i] > durations[parent]:
                problems.append(f"{name} longer than parent {self.spans[parent][0]}")
            if child_sums[i] > durations[i] + _SUM_SLACK:
                problems.append(f"children of {name} sum past it")
        return problems[:20]

    def busy(self) -> dict[str, dict[str, float]]:
        """Total and self time and call count per span name."""
        durations, child_sums = self._durations_and_child_sums()
        table: dict[str, dict[str, float]] = {}
        for (name, _, _, _), duration, children in zip(self.spans, durations, child_sums):
            row = table.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += duration
            row["self_s"] += duration - children
            row["calls"] += 1
        return table

    def tree(self) -> dict[str, dict[str, float]]:
        """Busy time and calls per span path, such as ``op/precond.build/spectral.schur``."""
        durations, _ = self._durations_and_child_sums()
        paths: list[str] = []
        table: dict[str, dict[str, float]] = {}
        for (name, parent, _, _), duration in zip(self.spans, durations):
            path = name if parent < 0 else f"{paths[parent]}/{name}"
            paths.append(path)
            row = table.setdefault(path, {"total_s": 0.0, "calls": 0})
            row["total_s"] += duration
            row["calls"] += 1
        return table


def _stored_bytes(matrix) -> int:
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    # scipy.sparse: the arrays a matvec streams through
    return sum(int(getattr(matrix, part).nbytes)
               for part in ("data", "indices", "indptr") if hasattr(matrix, part))


def _traced_minres(tracer: Tracer, minres, solutions: list | None):
    def run(operator, *args, **kwargs):
        if not callable(operator):
            matrix, nbytes = operator, _stored_bytes(operator)

            def matvec(v):
                index = tracer.open("krylov.matvec")
                try:
                    return matrix @ v
                finally:
                    tracer.close(index)
                    tracer.tallies["krylov.matvec_bytes"] += nbytes

            operator = matvec
        result = minres(operator, *args, **kwargs)
        tracer.tallies["krylov.iterations"] += result.iterations
        if solutions is not None:
            solutions.append(result.solution)
        return result

    return tracer.wrap(run, "krylov.minres")


def _capturing_minres(minres, solutions: list):
    def run(*args, **kwargs):
        result = minres(*args, **kwargs)
        solutions.append(result.solution)
        return result

    run.__wrapped__ = minres
    return run


@contextmanager
def instrument(tracer: Tracer | None, solutions: list | None = None):
    """Install the timing wrappers (when ``tracer`` is given) and the capture
    of every MINRES solution into ``solutions``; restore everything on exit.

    Names the package no longer defines are skipped and yielded, so a
    refactor that moves a layer shows up as a missing span, not a crash.
    """
    saved = []
    missing = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        if tracer is None:
            if solutions is not None:
                patch(report_mod, "minres", _capturing_minres(report_mod.minres, solutions))
            yield missing
            return
        for module, spans in ((report_mod, REPORT_SPANS), (precond_mod, PRECOND_SPANS)):
            for attr, name in spans.items():
                if attr not in module.__dict__:
                    missing.append(f"{module.__name__}.{attr}")
                elif attr == "minres":
                    patch(module, attr, _traced_minres(tracer, module.minres, solutions))
                else:
                    on_result = None
                    if name == "bounds.containment":
                        def on_result(report):
                            tracer.tallies["bounds.eigs_checked"] += len(report.verdicts)
                    patch(module, attr, tracer.wrap(module.__dict__[attr], name, on_result))
        from_system = BlockExtremes.__dict__["from_system"]
        patch(BlockExtremes, "from_system",
              classmethod(tracer.wrap(from_system.__func__, "spectral.extremes")))
        patch(PreconditionerOperator, "apply_inverse",
              tracer.wrap(PreconditionerOperator.apply_inverse, "krylov.psolve"))
        patch(AnalysisReport, "to_json",
              tracer.wrap(AnalysisReport.to_json, "report.to_json"))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int, iterations_by_strategy: dict) -> dict[str, float]:
    """Per-layer metrics: busy seconds and counts per top-level call.

    ``report.self_s`` is top-level call time minus its child spans, and
    ``precond.build_self_s`` build time minus the Schur builds inside it.
    """
    busy = tracer.busy()

    def total(name):
        return busy.get(name, {}).get("total_s", 0.0) / ops

    def calls(name):
        return busy.get(name, {}).get("calls", 0) / ops

    def self_time(name):
        return busy.get(name, {}).get("self_s", 0.0) / ops

    metrics = {
        "problems.generate_s": total(GENERATE),
        "system.validate_s": total("system.validate"),
        "system.validate_calls": calls("system.validate"),
        "system.assemble_s": total("system.assemble"),
        "spectral.extremes_s": total("spectral.extremes"),
        "spectral.schur_s": total("spectral.schur"),
        "spectral.schur_calls": calls("spectral.schur"),
        "spectral.full_spectrum_s": total("spectral.full_spectrum"),
        "spectral.full_spectrum_calls": calls("spectral.full_spectrum"),
        "precond.build_s": total("precond.build"),
        "precond.build_self_s": self_time("precond.build"),
        "precond.build_calls": calls("precond.build"),
        "precond.split_s": total("precond.split"),
        "precond.split_calls": calls("precond.split"),
        "precond.equivalence_s": total("precond.equivalence"),
        "bounds.intervals_s": total("bounds.intervals"),
        "bounds.containment_s": total("bounds.containment"),
        "bounds.eigs_checked": tracer.tallies["bounds.eigs_checked"] / ops,
        "krylov.minres_s": total("krylov.minres"),
        "krylov.iterations": tracer.tallies["krylov.iterations"] / ops,
        "krylov.matvec_s": total("krylov.matvec"),
        "krylov.psolve_s": total("krylov.psolve"),
        "krylov.psolve_calls": calls("krylov.psolve"),
        "krylov.matvec_gb_computed": tracer.tallies["krylov.matvec_bytes"] / 1e9 / ops,
        "report.self_s": self_time(OP),
        "report.to_json_s": total("report.to_json"),
    }
    for strategy, count in iterations_by_strategy.items():
        metrics[f"krylov.iterations.{strategy}"] = count
    return metrics

"""The benchmark's workloads: seeded inputs, one top-level call each, and
the check that call's output must pass.

A workload is a fixed *cycle* of calls.  The runner repeats whole cycles,
so every run covers each input equally often and the per-layer counts of a
cycle repeat exactly for a given seed.  Each call's input is generated just
before the call, outside its timer, so no two calls share a system object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from saddlebounds.problems import (
    distributed_context,
    poisson_boundary,
    poisson_distributed,
    random_system,
)
from saddlebounds.report import SCENARIOS, analyze, solve
from saddlebounds.spectral import BlockExtremes
from saddlebounds.system import assemble

BETA = 1e-3
ANALYZE_H = 1 / 24
SOLVE_H = 1 / 32
SOLVE_RTOL = 1e-8
# MINRES stops on the preconditioned residual at SOLVE_RTOL; its iterate
# agrees with a dense direct solve to about 5e-8 on the fem-solve system
SOLUTION_AGREEMENT = 1e-6

DESK_N = range(6, 60)
# D,E != 0 | D = 0 | D = E = 0: the three prec-exact branches
DESK_REGULARIZATION = ("regularized", "d-zero", "unregularized")
DESK_STRATEGIES = ("jacobi", "exact", "scaled:0.5")
SOLVE_STRATEGIES = ("pearson-wathen", "exact", "jacobi")
# steps of the two-dimensional R2 sequence (powers of the inverse plastic
# number), which spreads (m, p) evenly over their ranges
_R2 = (0.7548776662466927, 0.5698402909980532)


@dataclass(frozen=True)
class Call:
    """One top-level call of a workload.

    ``make`` generates the call's input and returns the keyword arguments
    of ``analyze`` or ``solve``; ``kind`` names which of the two it feeds.
    """

    label: str
    kind: str
    make: Callable[[], dict]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *stream])


# --- desk-random ------------------------------------------------------------


@dataclass(frozen=True)
class DeskInput:
    """Everything that determines one desk-random system."""

    dims: tuple[int, int, int]
    regularization: str
    strategy: str
    system_seed: int
    extremes: BlockExtremes


def _desk_extremes(rng: np.random.Generator, regularization: str) -> BlockExtremes:
    def pair(lo_range, spread):
        lo = rng.uniform(*lo_range)
        return lo, lo * rng.uniform(*spread)

    def semidefinite(zero):
        if zero:
            return 0.0, 0.0
        hi = rng.uniform(0.1, 1.0)
        return hi * rng.uniform(0.0, 0.5), hi

    return BlockExtremes(
        *pair((0.2, 1.0), (1.5, 8.0)),
        *pair((0.2, 0.8), (1.5, 5.0)),
        *pair((0.2, 0.8), (1.5, 5.0)),
        *semidefinite(regularization != "regularized"),
        *semidefinite(regularization == "unregularized"),
    )


def desk_inputs(seed: int) -> list[DeskInput]:
    """The seeded desk-random stream: one cycle of 54 inputs, one per n in
    [6, 60).

    The regularization rotates with n and the inexact strategy with n // 3,
    so every nine consecutive n cover all nine (regularization, strategy)
    pairs.  m in [3, n] and p in [2, m] follow a fixed low-discrepancy
    pattern, so every cycle has the same sizes and its cost hardly depends
    on the seed.  The seed draws the block extremes and the systems, and
    it shuffles the order.
    """
    rng = _rng(seed, 0)
    inputs = []
    for j, n in enumerate(DESK_N):
        m = 3 + int((0.5 + j * _R2[0]) % 1.0 * (n - 2))
        p = 2 + int((0.5 + j * _R2[1]) % 1.0 * (m - 1))
        regularization = DESK_REGULARIZATION[n % 3]
        inputs.append(DeskInput(
            (n, m, p), regularization, DESK_STRATEGIES[(n // 3) % 3],
            int(rng.integers(2**31)), _desk_extremes(rng, regularization),
        ))
    return [inputs[i] for i in rng.permutation(len(inputs))]


def _desk_call(item: DeskInput) -> Call:
    def make():
        n, m, p = item.dims
        return {
            "system": random_system(n, m, p, item.system_seed, item.extremes),
            "scenarios": SCENARIOS,
            "precond": item.strategy,
            "problem": {"kind": "random", "dims": list(item.dims),
                        "seed": item.system_seed},
        }

    n, m, p = item.dims
    return Call(f"{n},{m},{p}/{item.regularization}/{item.strategy}", "analyze", make)


# --- fem-analyze and fem-solve -----------------------------------------------


def _distributed(h: float) -> tuple:
    system, fem = poisson_distributed(h, BETA)
    return system, distributed_context(fem, BETA)


def _fem_analyze_call(label: str) -> Call:
    def make():
        if label == "poisson-dist":
            system, context = _distributed(ANALYZE_H)
            precond = "pearson-wathen"
        else:
            system, context = poisson_boundary(ANALYZE_H, BETA), None
            precond = "jacobi"
        return {
            "system": system,
            "scenarios": SCENARIOS,
            "precond": precond,
            "context": context,
            "problem": {"kind": label, "h": ANALYZE_H, "beta": BETA},
        }

    return Call(label, "analyze", make)


def _fem_solve_call(strategy: str) -> Call:
    def make():
        system, context = _distributed(SOLVE_H)
        return {
            "system": system,
            "precond": strategy,
            "rtol": SOLVE_RTOL,
            "context": context,
            "problem": {"kind": "poisson-dist", "h": SOLVE_H, "beta": BETA},
        }

    return Call(strategy, "solve", make)


def solve_reference() -> np.ndarray:
    """Dense direct solution of the fem-solve system with b = ones."""
    system, _ = _distributed(SOLVE_H)
    matrix = assemble(system).data
    return np.linalg.solve(matrix, np.ones(matrix.shape[0]))


# --- workload table -----------------------------------------------------------


def _shuffled(labels, seed):
    return [labels[i] for i in _rng(seed, 1).permutation(len(labels))]


def cycle(workload: str, seed: int) -> list[Call]:
    """The calls of one cycle of ``workload``, in the seed's order."""
    if workload == "desk-random":
        return [_desk_call(item) for item in desk_inputs(seed)]
    if workload == "fem-analyze":
        return [_fem_analyze_call(label)
                for label in _shuffled(("poisson-dist", "poisson-bnd"), seed)]
    if workload == "fem-solve":
        return [_fem_solve_call(s) for s in _shuffled(SOLVE_STRATEGIES, seed)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_call(workload: str, seed: int) -> Call:
    """The untimed set-up call.  It is fixed per workload, not drawn from the
    seed, so that set-up time does not depend on which call comes first."""
    if workload == "fem-analyze":
        return _fem_analyze_call("poisson-bnd")
    if workload == "fem-solve":
        return _fem_solve_call("pearson-wathen")
    return cycle(workload, seed)[0]


# --- the top-level call and its checks ------------------------------------------


def run_call(kind: str, kwargs: dict):
    """Make one top-level call: ``analyze`` plus ``AnalysisReport.to_json``
    (what ``saddlebounds analyze`` does), or ``solve``.

    Returns ``(report, json_text)`` for analyze and ``(data, None)`` for solve.
    """
    if kind == "analyze":
        report = analyze(**kwargs)
        return report, report.to_json()
    return solve(**kwargs), None


def check_analyze(report, text) -> str | None:
    """Why an analyze result fails its check, or None when it passes."""
    if not report.passed:
        return "report did not pass"
    for entry in report.scenarios:
        if entry.get("containment", {}).get("status") == "unverified":
            return f"scenario {entry.get('name')} unverified"
    if len(report.scenarios) != len(SCENARIOS):
        return "missing scenarios"
    if not text:
        return "empty JSON"
    return None


def check_solve(data: dict) -> str | None:
    """The in-loop part of the solve check; the comparison with the dense
    direct solution is :func:`check_solution`."""
    if not data["converged"]:
        return f"MINRES did not converge in {data['iterations']} iterations"
    return None


def check_solution(solution: np.ndarray, reference: np.ndarray) -> str | None:
    err = float(np.linalg.norm(solution - reference) / np.linalg.norm(reference))
    if not err <= SOLUTION_AGREEMENT:
        return f"solution differs from the direct solve by {err:.3g}"
    return None


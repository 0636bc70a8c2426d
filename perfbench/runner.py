"""The measurement loop, set-up samples, the ungated reference pass and
the result record.

One process makes every timed call, one after another (a closed loop with
a single caller) and starts no threads of its own.  BLAS runs with the
thread count ``spec.BLAS_THREADS`` gives the workload.  Whole cycles of a
workload are repeated until ``seconds`` have passed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from saddlebounds.errors import SaddleBoundsError

from perfbench import spec, workloads
from perfbench.tracer import GENERATE, OP, Tracer, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# set-up is sampled in this process and in this many fresh child processes
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60


def environment(loadavg: tuple[float, float, float]) -> dict:
    """What the numbers depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in spec.THREAD_VARS},
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }


def setup(workload: str, seed: int, started: float) -> float:
    """Generate the warm-up input and make the warm-up call; return the
    seconds since ``started``, which the caller takes before importing the
    package."""
    call = workloads.warmup_call(workload, seed)
    try:
        workloads.run_call(call.kind, call.make())
    except SaddleBoundsError:
        pass  # the same input fails again, and is counted, in the timed loop
    return time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, tracer: Tracer | None = None) -> dict:
    """Repeat whole cycles of ``workload`` for about ``seconds``.

    Only the top-level call is timed; generating its input and checking
    its output are not.  Stops at the cycle boundary nearest ``seconds``.
    """
    calls = workloads.cycle(workload, seed)
    durations: list[float] = []
    failures: list[dict] = []
    iterations: dict[str, list[int]] = {}
    solutions: list = []
    pending: list[tuple[int, str, np.ndarray]] = []
    cycle_counts: list[dict] = []
    cycles = 0
    with instrument(tracer, solutions) as missing:
        start = time.perf_counter()
        while True:
            for call in calls:
                index = len(durations)
                if tracer is not None:
                    span = tracer.open(GENERATE)
                kwargs = call.make()
                if tracer is not None:
                    tracer.close(span)
                    span = tracer.open(OP)
                solutions.clear()
                t0 = time.perf_counter()
                try:
                    result, text = workloads.run_call(call.kind, kwargs)
                    error = None
                except SaddleBoundsError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                durations.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.close(span)
                del kwargs
                if error is None and call.kind == "analyze":
                    error = workloads.check_analyze(result, text)
                elif error is None:
                    error = workloads.check_solve(result)
                    iterations.setdefault(call.label, []).append(result["iterations"])
                    pending.append((index, call.label, solutions.pop()))
                if error is not None:
                    failures.append({"index": index, "label": call.label, "reason": error})
            cycles += 1
            if tracer is not None:
                cycle_counts.append(tracer.repeating_counts())
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / cycles >= seconds:
                break
    return {
        "durations": durations,
        "failures": failures,
        "iterations": iterations,
        "pending_solutions": pending,
        "cycles": cycles,
        "calls_per_cycle": len(calls),
        "wall_s": elapsed,
        "cycle_counts": cycle_counts,
        "unwrapped": missing,
    }


def check_solutions(run: dict) -> None:
    """Compare every MINRES solution with one dense direct solve."""
    pending = run.pop("pending_solutions")
    if not pending:
        return
    reference = workloads.solve_reference()
    for index, label, solution in pending:
        error = workloads.check_solution(solution, reference)
        if error is not None:
            run["failures"].append({"index": index, "label": label, "reason": error})


def _cycle_count_problems(cycle_counts: list[dict]) -> list[str]:
    per_cycle = [
        {k: now[k] - before.get(k, 0) for k in now}
        for before, now in zip([{}] + cycle_counts[:-1], cycle_counts)
    ]
    if any(counts != per_cycle[0] for counts in per_cycle):
        return [f"counts differ between cycles: {per_cycle}"]
    return []


def _passed(run: dict) -> int:
    return len(run["durations"]) - len({f["index"] for f in run["failures"]})


def end_to_end(run: dict, setup_samples: list[float], peak_rss_mb: float) -> dict:
    """``ops_per_s`` is passing calls over the summed time of all calls.
    ``op_s.p50`` is the median, over the calls of a cycle, of each call's
    mean time across the run's cycles.

    Means, not medians, over the run: the machine's speed drifts in phases
    of several seconds, and a mean averages the phases a run sees where a
    median picks one of them.
    """
    durations = run["durations"]
    per_cycle = run["calls_per_cycle"]
    passed = _passed(run)
    return {
        "ops_per_s": passed / sum(durations),
        "op_s.p50": statistics.median(
            statistics.fmean(durations[k::per_cycle]) for k in range(per_cycle)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": passed / len(durations),
    }


def _child(workload: str, seed: int, role: str, seconds: float, env=None) -> dict:
    """Run this benchmark in a child process and return its last JSON line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--role", role]
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_pass(workload: str, seed: int) -> dict:
    """The ungated reference pass: one cycle of the same workload with the
    BLAS threading the gated run does not use.  That is one thread for a
    workload that keeps the default, and the default for one pinned to a
    single thread."""
    env = {k: v for k, v in os.environ.items() if k not in spec.THREAD_VARS}
    if workload not in spec.BLAS_THREADS:
        env.update({var: "1" for var in spec.THREAD_VARS})
    return _child(workload, seed, "reference", 1, env)


def per_layer(tracer: Tracer, run: dict) -> dict:
    strategies = {s: 0 for s in workloads.SOLVE_STRATEGIES}
    for label, counts in run["iterations"].items():
        strategies[label] = int(statistics.median(counts))
    metrics = layer_metrics(tracer, len(run["durations"]), strategies)
    metrics["trace.ops_per_s"] = _passed(run) / sum(run["durations"])
    return metrics


def _with_units(values: dict, table: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def main_run(workload: str, seed: int, seconds: int, trace: bool,
             started: float, loadavg: tuple) -> tuple[dict, dict]:
    """The gated run.  Returns the contract summary and the full record."""
    env = environment(loadavg)
    setup_samples = [setup(workload, seed, started)]
    tracer = Tracer() if trace else None
    run = measure(workload, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_solutions(run)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "not_measured": spec.NOT_MEASURED,
        "cycles": run["cycles"],
        "calls_per_cycle": run["calls_per_cycle"],
        "wall_s": run["wall_s"],
        "durations_s": run["durations"],
        "failures": run["failures"][:20],
        "iterations": {k: sorted(set(v)) for k, v in run["iterations"].items()},
        "unwrapped": run["unwrapped"],
    }
    problems: list[str] = []
    if trace:
        problems = tracer.self_check() + _cycle_count_problems(run["cycle_counts"])
        metrics = _with_units(per_layer(tracer, run), spec.PER_LAYER)
        record["trace_checks"] = problems
        record["span_tree"] = tracer.tree()
        record["reference_pass"] = reference_pass(workload, seed)
    else:
        for _ in range(SETUP_CHILDREN):
            setup_samples.append(_child(workload, seed, "setup", seconds)["setup_s"])
        metrics = _with_units(end_to_end(run, setup_samples, peak_rss_mb), spec.END_TO_END)
        record["setup_samples_s"] = setup_samples
    record["metrics"] = metrics

    attempted = len(run["durations"])
    failed = attempted - _passed(run)
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["summary"] = {k: summary[k] for k in ("correct", "attempted", "failed")}
    return summary, record


def reference_run(workload: str, seed: int, seconds: int, started: float) -> dict:
    """Body of the reference child: untimed set-up, a short untraced
    measurement and its checks."""
    setup_s = setup(workload, seed, started)
    run = measure(workload, seed, seconds)
    check_solutions(run)
    values = end_to_end(run, [setup_s], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {
        "threads": {var: os.environ.get(var) for var in spec.THREAD_VARS},
        "seconds": seconds,
        "attempted": len(run["durations"]),
        "failed": len(run["durations"]) - _passed(run),
        **values,
    }


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path

"""What the benchmark measures, and why: the source of ``BENCHMARK.json``.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
``BENCHMARK.json`` from this file; a test checks the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# BLAS threads for the gated runs of a workload; a workload not listed keeps
# the library default (2 on a 2-vCPU machine).  On desk-random's blocks of
# at most 177 rows two OpenBLAS 0.3.31 threads only add wake-up stalls: on a
# shared 2-vCPU Xeon VM one input took 0.023 to 0.239 s across four
# identical calls, and ops_per_s spread by 32 % across five seeds.
BLAS_THREADS = {"desk-random": 1}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = [
    {
        "name": "desk-random",
        "why": "analyze on 54 seeded random systems, n in [6,60): per-call "
        "overhead in bounds, report and the number of precond and spectral calls; "
        "all three prec-exact branches",
    },
    {
        "name": "fem-analyze",
        "why": "analyze on Q1 Poisson control at h=1/24 (distributed with "
        "pearson-wathen, boundary with jacobi): dense validation, Schur, split "
        "assembly and eigvalsh",
    },
    {
        "name": "fem-solve",
        "why": "solve at h=1/32 with pearson-wathen, exact and jacobi: the only "
        "MINRES workload; build-bound for the first two, iteration-bound for jacobi",
    },
]

# The time bounds are wide because a shared 2-vCPU Xeon VM drifts in speed:
# calls on one input vary by up to 20 % over a few seconds, and a fem-solve
# jacobi call (459 matvecs on a 66 MB dense matrix) takes 3.2 s to 4.7 s as
# other work on the host takes or leaves the shared cache.  Across seeds,
# 30 s runs spread ops_per_s by up to 14 % (interquartile range over median).
END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "passed_frac", "unit": "1", "better": "higher", "bound": 0.001},
]

_PER_LAYER_UNITS = {
    "problems.generate_s": "s/op",
    "system.validate_s": "s/op",
    "system.validate_calls": "count/op",
    "system.assemble_s": "s/op",
    "spectral.extremes_s": "s/op",
    "spectral.schur_s": "s/op",
    "spectral.schur_calls": "count/op",
    "spectral.full_spectrum_s": "s/op",
    "spectral.full_spectrum_calls": "count/op",
    "precond.build_s": "s/op",
    "precond.build_self_s": "s/op",
    "precond.build_calls": "count/op",
    "precond.split_s": "s/op",
    "precond.split_calls": "count/op",
    "precond.equivalence_s": "s/op",
    "bounds.intervals_s": "s/op",
    "bounds.containment_s": "s/op",
    "bounds.eigs_checked": "count/op",
    "krylov.minres_s": "s/op",
    "krylov.iterations": "count/op",
    "krylov.iterations.pearson-wathen": "count",
    "krylov.iterations.exact": "count",
    "krylov.iterations.jacobi": "count",
    "krylov.matvec_s": "s/op",
    "krylov.psolve_s": "s/op",
    "krylov.psolve_calls": "count/op",
    "krylov.matvec_gb_computed": "GB/op",
    "report.self_s": "s/op",
    "report.to_json_s": "s/op",
    "trace.ops_per_s": "1/s",
}

PER_LAYER = [
    {"name": name, "unit": unit, "better": "higher" if unit == "1/s" else "lower"}
    for name, unit in _PER_LAYER_UNITS.items()
]

# BENCHMARK.json has a fixed set of keys, so what is left out is recorded
# here, in every result file and in the README beside this file
NOT_MEASURED = {
    "io": "thin wrapper over Matrix-Market files; process start-up would "
    "dominate its timing",
    "cli": "thin wrapper over analyze and solve; process start-up would "
    "dominate its timing",
    "spectral.lanczos": "the Lanczos extremes path needs a block larger than "
    "4,096, i.e. h <= 1/66, which is too heavy for a benchmark run of tens of seconds",
    "tier-1 wall time": "measures the test suite, not users' work",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render())
    print(target)

"""Benchmark entry point.

    python3 perfbench/run.py --workload fem-solve --seed 1 --seconds 30 --trace 0

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The full record, environment included, goes to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import spec  # noqa: E402  (standard library only)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up samples and the reference pass run as child
    # processes of the gated run
    parser.add_argument("--role", choices=("main", "setup", "reference"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "saddlebounds" / "__init__.py").is_file():
        print(f"error: no saddlebounds package under {SRC}", file=sys.stderr)
        return 2

    if args.role != "reference" and args.workload in spec.BLAS_THREADS:
        # read by OpenBLAS when numpy loads it, below
        threads = str(spec.BLAS_THREADS[args.workload])
        os.environ.update({var: threads for var in spec.THREAD_VARS})

    started = time.perf_counter()
    import saddlebounds

    if not Path(saddlebounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: saddlebounds imported from {saddlebounds.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import runner

    if args.role == "setup":
        print(json.dumps({"setup_s": runner.setup(args.workload, args.seed, started)}))
        return 0
    if args.role == "reference":
        print(json.dumps(runner.reference_run(args.workload, args.seed,
                                              args.seconds, started)))
        return 0

    summary, record = runner.main_run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), started, loadavg)
    path = runner.write_record(record)
    env = record["environment"]
    print(f"# workload {args.workload}, seed {args.seed}, {record['cycles']} cycles "
          f"of {record['calls_per_cycle']} calls in {record['wall_s']:.1f} s, "
          f"trace {args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, nproc {env['nproc']}, "
          f"threads {env['threads']}, load {env['loadavg_at_start']}")
    if record["iterations"]:
        print(f"# MINRES iterations per strategy: {record['iterations']}")
    if "reference_pass" in record:
        ref = record["reference_pass"]
        print(f"# reference pass (ungated), threads {ref['threads']}: "
              f"ops_per_s {ref['ops_per_s']:.4g} 1/s, op_s.p50 {ref['op_s.p50']:.4g} s, "
              f"setup_s {ref['setup_s']:.4g} s")
    for failure in record["failures"]:
        print(f"# failed: {failure}")
    for problem in record.get("trace_checks", []):
        print(f"# trace check: {problem}")
    print(f"# record: {path.relative_to(ROOT)}")
    _print_metrics(summary["metrics"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

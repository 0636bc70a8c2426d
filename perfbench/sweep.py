"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/sweep.json
    python3 perfbench/sweep.py --workloads fem-solve --seeds 1-5 --traced 0

For each workload and seed it runs ``run.py`` once, untraced, one run at a
time.  For every end-to-end metric it reports the median and the distance
between the first and third quartiles as a share of the median (the
spread), beside the metric's bound.  With ``--traced N`` it also makes two
traced runs on each of the first N seeds: it checks that the repeating
counts are identical across the two, and it reports the tracing overhead,
one minus traced over untraced median ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import spec  # noqa: E402

REPEATING = ("spectral.schur_calls", "spectral.full_spectrum_calls",
             "krylov.iterations", "krylov.psolve_calls")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{command} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(runs: list[dict]) -> dict:
    stats = {}
    for metric in spec.END_TO_END:
        values = [r["metrics"][metric["name"]] for r in runs]
        row = spread(values)
        row["bound"] = metric["bound"]
        row["within_third_of_bound"] = row["spread"] < metric["bound"] / 3
        stats[metric["name"]] = row
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--traced", type=int, default=1,
                        help="seeds to trace twice for counts and overhead")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, runs[-1]["correct"], runs[-1]["metrics"], flush=True)
        record = HERE / "out" / f"{workload}-seed{seeds[-1]}-trace0.json"
        entry = {"runs": runs, "stats": summarize(runs),
                 "environment": json.loads(record.read_text())["environment"]}
        for name, row in entry["stats"].items():
            print(f"  {workload} {name}: median {row['median']:.6g} spread "
                  f"{row['spread']:.4f} bound {row['bound']}"
                  f"{'' if row['within_third_of_bound'] else '  <-- not below bound/3'}",
                  flush=True)
        traced = []
        for seed in seeds[: args.traced]:
            pair = [run_once(workload, seed, args.seconds, 1) for _ in range(2)]
            counts = [{k: r["metrics"][k] for k in REPEATING} for r in pair]
            traced.append({"seed": seed, "runs": pair, "counts_repeat": counts[0] == counts[1]})
            print(f"  {workload} traced seed {seed}: counts {counts[0]} "
                  f"repeat {counts[0] == counts[1]}", flush=True)
        if traced:
            traced_ops = statistics.median(
                r["metrics"]["trace.ops_per_s"] for t in traced for r in t["runs"])
            entry["traced"] = traced
            entry["tracing_overhead"] = 1 - traced_ops / entry["stats"]["ops_per_s"]["median"]
            print(f"  {workload} tracing overhead {entry['tracing_overhead']:.4f}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

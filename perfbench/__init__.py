"""The saddlebounds benchmark: workloads, per-layer tracing and the runner.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see README.md beside this file.
"""

"""Tests of the benchmark's own code (not of the package it measures)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import saddlebounds.precond as precond_mod
import saddlebounds.report as report_mod
from saddlebounds.precond import PreconditionerOperator
from saddlebounds.spectral import BlockExtremes

from perfbench import spec, workloads
from perfbench.tracer import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_same_seed_same_desk_stream_other_seed_other_stream():
    first, again, other = (workloads.desk_inputs(s) for s in (3, 3, 4))
    assert first == again
    assert first != other
    a = workloads.cycle("desk-random", 3)[0].make()["system"]
    b = workloads.cycle("desk-random", 3)[0].make()["system"]
    for block in "ABCDE":
        np.testing.assert_array_equal(getattr(a, block), getattr(b, block))


def test_desk_stream_covers_sizes_and_branches():
    inputs = workloads.desk_inputs(0)
    assert sorted({i.dims[0] for i in inputs}) == list(workloads.DESK_N)
    for item in inputs:
        n, m, p = item.dims
        assert n >= m >= 3 and m >= p >= 2
    pairs = {(i.regularization, i.strategy) for i in inputs}
    assert len(pairs) == len(workloads.DESK_REGULARIZATION) * len(workloads.DESK_STRATEGIES)


def test_seed_orders_fem_calls():
    orders = {tuple(c.label for c in workloads.cycle("fem-solve", s)) for s in range(12)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(workloads.SOLVE_STRATEGIES) for o in orders)


def test_benchmark_json_matches_spec_and_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert text == spec.render()
    data = json.loads(text)
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in data[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    # 4 + 22 runs per workload, with their set-up, must fit in 3420 s
    assert (4 + 22 * len(data["workloads"])) * data["run_seconds"] < 0.7 * 3420


def test_tracer_nesting_check():
    tracer = Tracer()
    op = tracer.open("op")
    child = tracer.open("child")
    time.sleep(0.001)
    tracer.close(child)
    tracer.close(op)
    assert tracer.self_check() == []
    # a child stretched past its parent is reported
    tracer.spans[1][3] = tracer.spans[0][3] + 1.0
    problems = tracer.self_check()
    assert any("longer than parent" in p for p in problems)
    assert any("sum past" in p for p in problems)


def test_instrument_restores_every_patched_name():
    before = (dict(vars(report_mod)), dict(vars(precond_mod)),
              BlockExtremes.__dict__["from_system"],
              PreconditionerOperator.__dict__["apply_inverse"])
    with instrument(Tracer(), []) as missing:
        assert missing == []
        assert report_mod.validate is not before[0]["validate"]
    after = (dict(vars(report_mod)), dict(vars(precond_mod)),
             BlockExtremes.__dict__["from_system"],
             PreconditionerOperator.__dict__["apply_inverse"])
    assert after == before


def test_traced_solve_counts_layers():
    from saddlebounds.problems import random_system

    extremes = BlockExtremes(0.5, 3.0, 0.4, 2.0, 0.3, 1.5, 0.1, 0.5, 0.1, 0.4)
    system = random_system(8, 6, 4, seed=7, extremes=extremes)
    tracer, solutions = Tracer(), []
    with instrument(tracer, solutions):
        data = report_mod.solve(system, precond="exact", rtol=1e-10)
    assert len(solutions) == 1
    assert tracer.calls["spectral.schur"] == 1
    assert tracer.calls["precond.build"] == 1
    assert tracer.tallies["krylov.iterations"] == data["iterations"]
    # one preconditioner solve before the loop and one per iteration
    assert tracer.calls["krylov.psolve"] == data["iterations"] + 1
    assert tracer.calls["krylov.matvec"] == data["iterations"]
    assert tracer.self_check() == []


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(trace):
    done = subprocess.run(
        RUN + ["--workload", "desk-random", "--seed", "5", "--seconds", "1",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert result["metrics"]["spectral.schur_calls"]["value"] == 4
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec.END_TO_END)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

"""Tests of the benchmark itself, not of timings: the gate counts a faulty op
as failed, traced counts repeat exactly, JSON and table reports reduce
alike, inputs depend only on the seed, and a checkout without the program
exits non-zero without printing a result."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import run
import tracer
import workloads

RUN = [sys.executable, str(run.HERE / "run.py")]


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


@pytest.fixture(scope="module")
def small_round(cli):
    ops = workloads.make_round("small-verdicts", run.PIN_SEED, 0)
    with run.workload_env(workloads.ENV["small-verdicts"]):
        return ops, [run.run_op(cli.main, op) for op in ops]


def test_fault_injection_counts_as_failed(cli, small_round, monkeypatch):
    ops, clean = small_round
    monkeypatch.setenv(workloads.FAULT_ENV, "1")
    with run.workload_env(workloads.ENV["small-verdicts"]):  # scrubs the switch
        again = run.run_op(cli.main, ops[0])
    assert run.judge([ops[:1]], [[again]], oracle.Gate()) == []
    target = next(i for i, op in enumerate(ops) if op.command == "verify-fock")
    with run.workload_env({workloads.FAULT_ENV: "1"}):
        faulty = run.run_op(cli.main, ops[target])
    outcomes = clean[:target] + [faulty] + clean[target + 1:]
    pins = json.loads(run.PINS.read_text())["small-verdicts"]
    assert run.judge([ops], [clean], oracle.Gate(pins)) == []
    failures = run.judge([ops], [outcomes], oracle.Gate(pins))
    assert len(failures) == 1 and f"op {target} " in failures[0]
    assert len(failures) / len(ops) == 1 / 32  # the failed_ratio the run prints


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def test_gate_catches_every_perturbed_value(small_round):
    ops, outcomes = small_round
    checked = 0
    for op, out in zip(ops, outcomes):
        if "table" in op.argv:
            continue
        for path, value in _leaves(json.loads(out.stdout)):
            if path[0] in ("command", "x", "rho", "s_var", "note", "kind", "seed"):
                continue
            if isinstance(value, bool):
                wrong = not value
            elif isinstance(value, str) and path[-1] != "target":
                wrong = str(Fraction(value) + 1)
            else:
                continue
            report = json.loads(out.stdout)
            node = report
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = wrong
            assert oracle.Gate().check(op, out.exit, json.dumps(report)), (op.argv, path)
            checked += 1
    assert checked > 100


def test_json_and_table_reports_reduce_alike(cli, small_round):
    ops, _ = small_round
    for op in ops:
        argv = tuple(a for a in op.argv if a not in ("--format", "table"))
        as_json = run.run_op(cli.main, workloads.Op(argv))
        as_table = run.run_op(cli.main, workloads.Op(argv + ("--format", "table")))
        assert oracle.from_json(as_json.stdout) == oracle.from_table(as_table.stdout), argv


def _traced(seed: int) -> dict:
    done = subprocess.run(
        RUN + ["--workload", "small-verdicts", "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first, second = _traced(4), _traced(4)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _, _ in tracer.PER_LAYER}
    counts = {name: first["metrics"][name]["value"] for name in tracer.EXACT_COUNTS}
    assert counts == {name: second["metrics"][name]["value"] for name in tracer.EXACT_COUNTS}
    assert all(value > 0 for value in counts.values())


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 7, 30) == workloads.rounds(name, 7, 30)
        assert workloads.make_round(name, 7, 0) != workloads.make_round(name, 8, 0)
        assert workloads.make_round(name, 7, 0) != workloads.make_round(name, 7, 1)
    pins = json.loads(run.PINS.read_text())
    for name in workloads.WORKLOADS:
        ops = workloads.make_round(name, run.PIN_SEED, 0)
        assert [pins[name][f"0/{i}"][0] for i in range(len(ops))] == [list(op.argv) for op in ops]


def test_ops_avoid_flags_that_may_be_deleted():
    for name in workloads.WORKLOADS:
        for ops in workloads.rounds(name, 3, 30):
            for op in ops:
                assert "--jobs" not in op.argv
                if op.command in ("partitions", "cumulants", "fid-check"):
                    assert "--seed" not in op.argv


def test_small_verdicts_rounds_share_one_mix():
    for ops in workloads.rounds("small-verdicts", 5, 10):
        assert len(ops) == workloads.SMALL_ROUND_OPS
        assert sum("table" in op.argv for op in ops) == workloads.SMALL_TABLE_OPS
        assert sum(op.expect_exit == 1 for op in ops) == workloads.SMALL_FAILING_OPS
        assert {op.command for op in ops} == set(oracle.CHECKED)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(v) for v in range(1, 19)]) == (44, 8.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-verdicts", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

"""Every report of a fixed set of command lines, pinned as a digest of its
exit code, stdout and stderr.

The set covers every command and every spec kind, orders up to 14 (30 for
``cumulants``), the table format, the fault switch (exit 1) and usage errors
(exit 2).  argparse's usage lines depend on the interpreter version, so the
digest leaves them out and keeps every other stderr line; the reports were
pinned from a commit whose arithmetic ran on ``Fraction``.  Rewrite the pins
only for an intended change of a report:

    PYTHONPATH=src python tests/test_pinned_reports.py > tests/pinned_reports.json
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from freecommutant.cli import main

PINS = Path(__file__).resolve().parent / "pinned_reports.json"

_X = ("semicircle(1)", "semicircle(1/2)", "free-poisson(1)", "free-poisson(2/3)",
      "atomic(1/3:-1,2/3:2)", "atomic(1/4:-1/2,1/2:1,1/4:3)", "atomic(1/2:0,1/2:1)",
      "cumulants[1/2,1,-1/3,0,2]", "cumulants[0,1/2,1/3,-1/5,1/7,0,1/11]",
      "rho-moments[" + ",".join(["1/2", "1", "0", "-1/3", "2"] * 6) + "]")
_RHO = ("atomic(1:1)", "atomic(1/3:-1,2/3:2)", "atomic(1/4:-2,1/2:1/2,1/4:3)",
        "atomic(1/6:-1,1/3:1/3,1/2:2)",
        "rho-moments[" + ",".join(["0", "1", "-1/2", "2/3", "0"] * 6) + "]",
        "rho-moments[" + ",".join(["1", "1/3", "0", "-1/5", "1/7"] * 6) + "]")


def cases() -> list[tuple[dict[str, str], list[str]]]:
    """(environment, argv) of every pinned command line."""
    cap = {"FREECOMMUTANT_MAX_ORDER": "30"}
    fault = {"FREECOMMUTANT_INJECT_FAULT": "1"}
    out: list[tuple[dict[str, str], list[str]]] = []
    for i, x in enumerate(_X):
        out.append(({}, ["verify-additivity", "--x", x, "--max-order", str(3 + i % 4)]))
        out.append(({}, ["freeness-witness", "--x", x, "--s-var", ("1", "1/3", "2")[i % 3]]))
        out.append(({}, ["freeness-witness", "--x", x, "--format", "table"]))
        out.append(({}, ["cancellation", "--x", x, "--max-order", str(2 + i % 5),
                         "--s-var", ("1", "3/2")[i % 2]]))
        out.append(({}, ["verify-closed-form", "--x", x, "--max-order", str(4 + i % 5)]))
        out.append((cap, ["cumulants", "--x", x, "--max-order", "14"]))
        out.append((cap, ["cumulants", "--x", x, "--max-order", "30", "--format", "table"]))
        out.append(({}, ["cumulants", "--x", x]))
    for x in _X[2:6]:
        out.append((cap, ["verify-additivity", "--x", x, "--max-order", "10",
                          "--s-var", "1/2"]))
        out.append((cap, ["cancellation", "--x", x, "--max-order", "10", "--format", "table"]))
        out.append((cap, ["verify-closed-form", "--x", x, "--max-order", "14"]))
    for i, rho in enumerate(_RHO):
        out.append(({}, ["verify-fock", "--rho", rho, "--max-order", str(1 + i)]))
        out.append((cap, ["verify-fock", "--rho", rho, "--max-order", "14"]))
        out.append((cap, ["verify-fock", "--rho", rho, "--max-order", "13", "--format", "table"]))
        out.append(({}, ["fid-check", "--rho", rho, "--size", str(1 + i % 4)]))
        out.append((cap, ["fid-check", "--rho", rho, "--size", "7"]))
    for seq in ("cumulants[0,1,0,-1]", "cumulants[0,1,0,2,0,5]", "cumulants[1,1,1,1,1,1]",
                "rho-moments[1,2,3,4,5,6]"):
        out.append(({}, ["fid-check", "--sequence", seq, "--size", "2"]))
        out.append(({}, ["fid-check", "--sequence", seq, "--rho", "atomic(1:1)",
                         "--size", "3", "--format", "table"]))
    for kind in ("all", "nc", "nc-irreducible", "interval", "interval-min2"):
        out.append(({}, ["partitions", "--n", "4", "--kind", kind]))
    out.append(({}, ["partitions", "--n", "5", "--kind", "nc", "--format", "table"]))
    for argv in (["verify-additivity", "--x", "free-poisson(1)", "--max-order", "4"],
                 ["freeness-witness", "--x", "atomic(1/3:-1,2/3:2)"],
                 ["cancellation", "--x", "semicircle(2)", "--max-order", "4"],
                 ["verify-closed-form", "--x", "free-poisson(1)", "--max-order", "4"],
                 ["verify-fock", "--rho", "atomic(1/2:1,1/2:2)", "--max-order", "4"],
                 ["fid-check", "--rho", "atomic(1:1)", "--size", "2"]):
        out.append((fault, argv))
    for env, argv in (
            ({}, ["verify-additivity", "--x", "free-poisson(1)", "--max-order", "9"]),
            ({}, ["cumulants", "--x", "bogus(1)"]),
            ({}, ["cumulants", "--x", "atomic(1/2:1,1/3:2)"]),
            ({}, ["cancellation", "--x", "free-poisson(1)", "--max-order", "1"]),
            ({}, ["verify-fock", "--rho", "rho-moments[1,2]", "--max-order", "4"]),
            ({}, ["verify-fock", "--rho", "free-poisson(1)"]),
            ({}, ["fid-check"]),
            ({}, ["fid-check", "--rho", "atomic(1:1)", "--size", "5"]),
            ({}, ["verify-closed-form", "--x", "cumulants[1,,2]"]),
            (cap, ["cumulants", "--x", "free-poisson(1)", "--max-order", "31"]),
            ({}, ["verify-additivity", "--x", "free-poisson(1)", "--s-var", "abc"]),
            ({}, ["verify-fock", "--rho", "atomic(1:1)", "--max-order", "0"]),
            ({}, ["partitions", "--n", "4", "--kind", "bogus"]),
            ({}, ["no-such-command"]),
            ({}, [])):
        out.append((env, argv))
    return out


def digest(env: dict[str, str], argv: list[str]) -> str:
    """sha256 of the exit code, stdout and the stderr lines that are not
    argparse usage, of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    clean = {k: v for k, v in os.environ.items()
             if k not in ("FREECOMMUTANT_MAX_ORDER", "FREECOMMUTANT_INJECT_FAULT")}
    with mock.patch.dict(os.environ, {**clean, **env, "COLUMNS": "80"}, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    kept = [line for line in err.getvalue().splitlines()
            if not line.startswith(("usage:", " "))]
    blob = json.dumps([code, out.getvalue(), kept])
    return hashlib.sha256(blob.encode()).hexdigest()


def _key(env: dict[str, str], argv: list[str]) -> str:
    return " ".join([f"{k}={v}" for k, v in sorted(env.items())] + argv)


@functools.cache
def pins() -> dict[str, str]:
    return json.loads(PINS.read_text())


def test_enough_cases_and_all_pinned():
    keys = [_key(env, argv) for env, argv in cases()]
    assert len(keys) >= 150
    assert len(set(keys)) == len(keys)
    assert sorted(pins()) == sorted(keys)


@pytest.mark.parametrize("env,argv", cases(), ids=[_key(e, a)[:80] for e, a in cases()])
def test_report_is_pinned(env, argv):
    assert digest(env, argv) == pins()[_key(env, argv)]


if __name__ == "__main__":
    json.dump({_key(env, argv): digest(env, argv) for env, argv in cases()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

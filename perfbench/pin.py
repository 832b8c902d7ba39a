"""Rewrite pinned.json: the checked values of round 0 of every workload at
the pinned seed, taken from the program in this checkout.

    python3 perfbench/pin.py

Values are pinned only if every op also passes the closed-form and
cross-route checks, so a pin never records a wrong answer.  Rerun it only
when the generators change; a program change that moves a pinned value is
a failure to investigate, not a pin to refresh.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    cli = run.load_program()
    pins = {}
    for name in workloads.WORKLOADS:
        ops = workloads.make_round(name, run.PIN_SEED, 0)
        with run.workload_env(workloads.ENV[name]):
            outcomes = [run.run_op(cli.main, op) for op in ops]
        gate = oracle.Gate()
        pins[name] = {}
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            problems = [out.error] if out.error else gate.check(op, out.exit, out.stdout)
            if problems:
                print(f"not pinning {' '.join(op.argv)}: {problems}", file=sys.stderr)
                return 1
            values = oracle.checked_values(op, oracle.parse(op, out.stdout))
            pins[name][f"0/{i}"] = [list(op.argv), out.exit, values]
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the freecommutant CLI.

    python3 perfbench/run.py --workload additivity-deep --seed 0 --seconds 30 --trace 0

Every op is one in-process call to ``freecommutant.cli.main(argv)`` with
stdout captured; inputs come from a seeded generator (workloads.py) and every
report is checked exactly (oracle.py).  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it runs the same op list once
untraced and once traced (tracer.py) and reports the per-layer metrics.
The last line of stdout is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PIN_SEED = 0
PINS = HERE / "pinned.json"
SPANS_DIR = HERE / "out"
SETUP_PROBES = 5
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class ProgramError(Exception):
    """The program under test cannot be loaded from this checkout."""


def load_program():
    """Import ``freecommutant.cli`` from this checkout's ``src`` and refuse
    any other copy, so a stale install is never timed."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import freecommutant
        import freecommutant.cli as cli
    except ImportError as exc:
        raise ProgramError(f"cannot import freecommutant from {src}: {exc}") from exc
    location = Path(freecommutant.__file__).resolve()
    if src not in location.parents:
        raise ProgramError(f"freecommutant resolves to {location}, outside {src}")
    return cli


@contextlib.contextmanager
def workload_env(settings: dict):
    """The environment of a workload's ops: the fault switch and the order
    cap removed, then the workload's own settings."""
    saved = dict(os.environ)
    os.environ.pop(workloads.FAULT_ENV, None)
    os.environ.pop(workloads.ORDER_CAP_ENV, None)
    os.environ.update(settings)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


@dataclass
class Outcome:
    seconds: float
    exit: int | None
    stdout: str
    error: str = ""


def run_op(main, op: workloads.Op, trace: tracer.Tracer | None = None) -> Outcome:
    out = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        span = trace.open(tracer.OP_SPAN) if trace is not None else None
        start = perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            code, error = None, f"raised {exc!r}"
        elapsed = perf_counter() - start
        if trace is not None:
            trace.close(span)
    return Outcome(elapsed, code, out.getvalue(), error)


def run_pass(main, rounds, trace: tracer.Tracer | None = None):
    """Run every round; returns outcomes, round wall times and each round's
    span range."""
    outcomes, walls, bounds = [], [], []
    for ops in rounds:
        first = len(trace) if trace is not None else 0
        start = perf_counter()
        outcomes.append([run_op(main, op, trace) for op in ops])
        walls.append(perf_counter() - start)
        bounds.append((first, len(trace) if trace is not None else 0))
    return outcomes, walls, bounds


def judge(rounds, outcomes, gate: oracle.Gate) -> list[str]:
    """One line per failed op."""
    failures = []
    for r, (ops, outs) in enumerate(zip(rounds, outcomes)):
        for i, (op, out) in enumerate(zip(ops, outs)):
            problems = [out.error] if out.error else gate.check(op, out.exit, out.stdout, f"{r}/{i}")
            if problems:
                failures.append(f"round {r} op {i} {' '.join(op.argv)}: {'; '.join(problems)}")
    return failures


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    pct = 100 * (n - 10) // n
    return pct, xs[math.ceil(pct * n / 100) - 1]


def setup_seconds(args, settings: dict) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time from process
    start through import and input generation to the point where the first
    op would run (the probe prints "ready" there and exits)."""
    env = {k: v for k, v in os.environ.items()
           if k not in (workloads.FAULT_ENV, workloads.ORDER_CAP_ENV)}
    env.update(settings)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as probe:
            line = probe.stdout.readline()
            times.append(perf_counter() - start)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise ProgramError("setup probe did not reach the first op")
    return statistics.median(times)


def _git_sha() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"  # a checkout without git metadata


def stamp(args, rounds) -> dict:
    import freecommutant
    sources = sorted((ROOT / "src" / "freecommutant").glob("*.py"))
    return {
        "git_sha": _git_sha(),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "program": str(Path(freecommutant.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "ops_per_pass": sum(len(ops) for ops in rounds),
    }


def end_to_end(cli, args, rounds, settings, gate):
    setup = setup_seconds(args, settings)
    with workload_env(settings):
        outcomes, walls, _ = run_pass(cli.main, rounds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [o.seconds for outs in outcomes for o in outs]
    pct, tail_s = tail(latencies)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        # The lower median is always one op's latency: operator-chain has two
        # op kinds in equal numbers, and the mean of the two middle ops would
        # straddle the gap between them.
        "op_p50_s": statistics.median_low(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mib": rss_mib,
    }
    notes = [f"op_tail_s is p{pct} of {len(latencies)} ops;"
             f" wall_s is the median of {len(walls)} rounds;"
             f" setup_s is the median of {SETUP_PROBES} fresh interpreters"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, judge(rounds, outcomes, gate), len(latencies), notes


def per_layer(cli, args, rounds, settings, gate):
    with workload_env(settings):
        outcomes, walls, _ = run_pass(cli.main, rounds)
        trace = tracer.Tracer()
        undo = tracer.install(trace)
        try:
            traced, traced_walls, bounds = run_pass(cli.main, rounds, trace)
        finally:
            tracer.uninstall(undo)
    values = tracer.layer_metrics(trace, bounds)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    trace.write(spans)
    notes = [f"per-layer values are medians over {len(rounds)} rounds;"
             f" {len(trace)} spans written to {spans.relative_to(ROOT)}"]
    growth, order8 = values["commutator.order_growth"], values["commutator.order8_s"]
    if growth > 1:
        notes.append(f"derived: a round's sequence work stays within 10 s up to order"
                     f" {max_order_within(10.0, order8, growth)}"
                     f" (order-8 time {order8:.3f} s, growth x{growth:.2f} per order)")
    units = {name: unit for name, unit, _better in tracer.PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failures = judge(rounds, outcomes, gate) + judge(rounds, traced, gate)
    return metrics, failures, 2 * sum(len(ops) for ops in rounds), notes


def max_order_within(budget: float, order8_s: float, growth: float) -> int:
    """Highest order n whose orders 8..n fit in the budget when each order
    costs ``growth`` times the one before (ROADMAP's "max order within 10 s",
    derived from commutator.order_growth; it moves in whole steps)."""
    order, step, total = 8, order8_s, order8_s
    while total + step * growth <= budget:
        step *= growth
        total += step
        order += 1
    return order


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=PIN_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_program()
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = workloads.ENV[args.workload]
    rounds = workloads.rounds(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    print("stamp: " + json.dumps(stamp(args, rounds)))
    pins = json.loads(PINS.read_text())[args.workload] if args.seed == PIN_SEED else {}
    gate = oracle.Gate(pins)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, failures, attempted, notes = measure(cli, args, rounds, settings, gate)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_ratio: {len(failures) / attempted:.6f} ({len(failures)} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

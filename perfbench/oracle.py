"""Correctness gate: every op's exit code and exact values, checked against
closed forms computed here, the report's own cross-route equalities, the
s+i[s,x] sequence shared by two ops, and (for the pinned seed) stored values.

Reports are compared field by field, never by a digest, so a report that
gains keys still passes.  JSON and ``--format table`` output are both
reduced to one shape, a :class:`Report` of strings, before checking.
"""

from __future__ import annotations

import ast
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb

from workloads import Law, Op, atomic_moments


@dataclass
class Report:
    """Scalars and rows of one report, every value rendered as a string the
    way the table format renders it (lists joined by single spaces)."""

    scalars: dict[str, str]
    rows: list[dict[str, str]]


def _cell(value) -> str:
    return " ".join(str(v) for v in value) if isinstance(value, list) else str(value)


def from_json(text: str) -> Report:
    scalars, rows = {}, []
    for key, value in json.loads(text).items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = [{k: _cell(v) for k, v in row.items()} for row in value]
        else:
            scalars[key] = _cell(value)
    return Report(scalars, rows)


def from_table(text: str) -> Report:
    scalars, rows, header = {}, [], None
    for line in text.splitlines():
        if header is None and ": " in line:
            key, value = line.split(": ", 1)
            scalars[key] = value
        elif header is None:
            header = re.split(r" {2,}", line.strip())
        else:
            rows.append(dict(zip(header, re.split(r" {2,}", line.strip()))))
    return Report(scalars, rows)


def parse(op: Op, stdout: str) -> Report:
    return from_table(stdout) if "table" in op.argv else from_json(stdout)


# Fields whose exact values are checked and pinned, per command: (scalar
# keys, row keys).  Keys a report adds later are ignored.
CHECKED = {
    "verify-additivity": (("hypothesis_met", "holds"), ("n", "lhs", "rhs_s", "rhs_c", "holds")),
    "freeness-witness": (("witness", "expected", "holds"), ()),
    "cancellation": (("holds",), ("n", "k", "value", "holds")),
    "verify-closed-form": (("holds",), ("n", "closed_form", "expansion", "holds")),
    "verify-fock": (("adjointness", "holds"), ("n", "model", "composition", "closed_form", "holds")),
    "fid-check": (("holds",), ("target", "cumulants", "order", "psd", "failure_index", "pivots")),
    "partitions": (("count", "partitions"), ()),
    "cumulants": (("cumulants", "moments"), ()),
}


def checked_values(op: Op, report: Report) -> list:
    keys, row_keys = CHECKED[op.command]
    return [[report.scalars.get(k) for k in keys],
            [[row.get(k) for k in row_keys] for row in report.rows]]


# ---------------------------------------------------------------- closed forms

def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


PARTITION_COUNTS = {
    "all": _bell,
    "nc": _catalan,
    "interval": lambda n: 2 ** (n - 1),
    "interval-min2": lambda n: _fibonacci(n - 1),
    "nc-irreducible": lambda n: _catalan(n - 1),
}


def law_moments(law: Law, order: int) -> list:
    """m_0..m_order where a closed form is known here, else None entries."""
    if law.kind == "atomic":
        return atomic_moments(law.params, order)
    if law.kind == "semicircle":
        v = law.params[0]
        return [_catalan(k // 2) * v ** (k // 2) if k % 2 == 0 else Q(0)
                for k in range(order + 1)]
    if law.kind == "free-poisson":
        lam = law.params[0]
        narayana = [Q(1)] + [
            sum((Q(comb(n, k) * comb(n, k - 1), n) * lam ** k for k in range(1, n + 1)), Q(0))
            for n in range(1, order + 1)
        ]
        return narayana
    k1, k2, k3 = low_cumulants(law)
    low = [Q(1), k1, k2 + k1 ** 2, k3 + 3 * k1 * k2 + k1 ** 3]
    return (low + [None] * order)[:order + 1]


def law_cumulants(law: Law, order: int) -> list:
    """kappa_1..kappa_order where a closed form is known here, else None."""
    if law.kind == "semicircle":
        return [law.params[0] if k == 2 else Q(0) for k in range(1, order + 1)]
    if law.kind == "free-poisson":
        return [law.params[0]] * order
    if law.kind in ("cumulants", "rho-moments"):
        return (list(law.params) + [Q(0)] * order)[:order]
    m = atomic_moments(law.params, 3)
    low = [m[1], m[2] - m[1] ** 2, m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3]
    return (low + [None] * order)[:order]


def low_cumulants(law: Law) -> tuple[Q, Q, Q]:
    """kappa_1..kappa_3; free and classical cumulants agree to order 3."""
    return tuple(law_cumulants(law, 3))


def driven_cumulants(rho: Law) -> tuple[Q, Q, Q]:
    """kappa_1..kappa_3 of the compound free Poisson law driven by rho."""
    if rho.kind == "atomic":
        return tuple(atomic_moments(rho.params, 3)[1:])
    return tuple(rho.params[:3])


def _series_mul(a: list, b: list, order: int) -> list:
    out = [Q(0)] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def satisfies_r_transform(kappas: list[Q], moments: list[Q]) -> bool:
    """Whether C(z M(z)) = M(z) up to z^order, where M(z) = sum m_n z^n and
    C(z) = 1 + sum kappa_n z^n: the free moment-cumulant relation as a power
    series identity, a route that shares nothing with the program's
    first-block recursion."""
    order = len(kappas)
    w = [Q(0)] + moments[:order]
    acc = [kappas[-1]]
    for k in reversed(kappas[:-1]):
        acc = _series_mul(w, acc, order)
        acc[0] += k
    total = _series_mul(w, acc, order)
    total[0] += 1
    return total == moments[:order + 1]


def _det(rows: list[list[Q]]) -> Q:
    total = Q(0)
    n = len(rows)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Q(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def hankel_oracle(kappas: list[Q], size: int) -> tuple[bool, list[Q | None]]:
    """PSD verdict of [kappa_{i+j+2}] by Sylvester's criterion over every
    principal minor, and the elimination pivots as ratios of leading minors
    (None where a leading minor vanishes and the ratio is undefined)."""
    h = [[kappas[i + j + 1] for j in range(size)] for i in range(size)]
    psd = all(
        _det([[h[i][j] for j in idx] for i in idx]) >= 0
        for r in range(1, size + 1) for idx in itertools.combinations(range(size), r)
    )
    leading = [Q(1)] + [_det([row[:k] for row in h[:k]]) for k in range(1, size + 1)]
    pivots = [leading[k + 1] / leading[k] if leading[k] else None for k in range(size)]
    return psd, pivots


def _partition_ok(blocks: list[list[int]], n: int, kind: str) -> bool:
    if sorted(e for b in blocks for e in b) != list(range(1, n + 1)):
        return False
    contiguous = all(b == list(range(b[0], b[0] + len(b))) for b in blocks)
    crossing = any(
        a < b < c < d
        for p, q in itertools.permutations(blocks, 2)
        for a, c in itertools.combinations(p, 2) for b, d in itertools.combinations(q, 2)
    )
    return {
        "all": True,
        "nc": not crossing,
        "interval": contiguous,
        "interval-min2": contiguous and all(len(b) >= 2 for b in blocks),
        "nc-irreducible": not crossing and any(1 in b and n in b for b in blocks),
    }[kind]


# ---------------------------------------------------------------- checks

def _q(text) -> Q | None:
    try:
        return Q(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _qs(text: str) -> list:
    return [_q(t) for t in (text or "").split()]


class Gate:
    """Checks op outcomes; holds the s+i[s,x] sequences that ops sharing a
    key must agree on, and the pinned values when the seed is pinned."""

    def __init__(self, pins: dict | None = None):
        self.pins = pins or {}
        self.shared: dict[str, list] = {}

    def check(self, op: Op, exit_code: int | None, stdout: str,
              pin_key: str | None = None) -> list[str]:
        """Problems with one outcome; an empty list means the op passed."""
        if exit_code != op.expect_exit:
            return [f"exit {exit_code}, expected {op.expect_exit}"]
        try:
            report = parse(op, stdout)
            problems = _CHECKS[op.command](self, op, report)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError,
                SyntaxError) as exc:
            return [f"unreadable report: {exc!r}"]
        if pin_key in self.pins and self.pins[pin_key] != [list(op.argv), exit_code,
                                                           checked_values(op, report)]:
            problems.append("differs from the pinned values")
        return problems

    def share(self, op: Op, sequence: list) -> list[str]:
        """The first s+i[s,x] sequence reported under the op's share key is
        the one every later op with that key must report."""
        if not op.share:
            return []
        first = self.shared.setdefault(op.share, sequence)
        return [] if first == sequence else ["s+i[s,x] differs between ops of one driver"]


def _holds(report: Report, rows: list[dict]) -> list[str]:
    problems = [f"row n={r.get('n')} does not hold" for r in rows if r.get("holds") != "True"]
    if report.scalars.get("holds") != "True":
        problems.append("report does not hold")
    return problems


def _orders(rows: list[dict], order: int) -> list[str]:
    got = [r.get("n") for r in rows]
    return [] if got == [str(n) for n in range(1, order + 1)] else [f"orders {got}"]


def _check_additivity(gate: Gate, op: Op, report: Report) -> list[str]:
    rows = report.rows
    problems = _holds(report, rows) + _orders(rows, op.order)
    if report.scalars.get("hypothesis_met") != "True":
        problems.append("hypothesis not met")
    kappa2_x = low_cumulants(op.x)[1]
    for r in rows:
        n, lhs, rhs_s, rhs_c = int(r["n"]), _q(r["lhs"]), _q(r["rhs_s"]), _q(r["rhs_c"])
        if lhs != rhs_s + rhs_c:
            problems.append(f"n={n}: lhs != rhs_s + rhs_c")
        if rhs_s != (op.s_var if n == 2 else 0):
            problems.append(f"n={n}: rhs_s is not kappa_n(s)")
        if n == 1 and lhs != 0:
            problems.append("kappa_1(s+i[s,x]) != 0")
        if n == 2 and rhs_c != 2 * op.s_var * kappa2_x:
            problems.append("kappa_2(i[s,x]) != 2 kappa_2(s) kappa_2(x)")
    return problems + gate.share(op, [r["lhs"] for r in rows])


def _check_witness(gate: Gate, op: Op, report: Report) -> list[str]:
    expected = op.s_var ** 2 * low_cumulants(op.x)[1]
    s = report.scalars
    problems = _holds(report, [])
    if _q(s["witness"]) != expected or _q(s["expected"]) != expected:
        problems.append("witness != kappa_2(s)^2 kappa_2(x)")
    return problems


def _check_cancellation(gate: Gate, op: Op, report: Report) -> list[str]:
    rows = report.rows
    problems = _holds(report, rows)
    cells = [[str(n), str(k)] for n in range(2, op.order + 1) for k in range(1, n)]
    if [[r.get("n"), r.get("k")] for r in rows] != cells:
        problems.append("cells are not 2 <= n <= max_order, 1 <= k < n")
    if any(_q(r["value"]) != 0 for r in rows):
        problems.append("a cancellation sum is nonzero")
    return problems


def _partner_closed_forms(kappas: tuple[Q, Q, Q]) -> dict[int, Q]:
    """kappa_1..3 of x+i[x,s] for standard s: kappa_1(x), 3 kappa_2(x), 4 kappa_3(x)."""
    k1, k2, k3 = kappas
    return {1: k1, 2: 3 * k2, 3: 4 * k3}


def _check_closed_form(gate: Gate, op: Op, report: Report) -> list[str]:
    rows = report.rows
    problems = _holds(report, rows) + _orders(rows, op.order)
    known = _partner_closed_forms(low_cumulants(op.x))
    for r in rows:
        n, closed = int(r["n"]), _q(r["closed_form"])
        if closed != _q(r["expansion"]):
            problems.append(f"n={n}: closed form != expansion")
        if n in known and closed != known[n]:
            problems.append(f"n={n}: kappa_n(x+i[x,s]) off its closed form")
    return problems


def _check_fock(gate: Gate, op: Op, report: Report) -> list[str]:
    rows = report.rows
    problems = _holds(report, rows) + _orders(rows, op.order)
    adjoint = "True" if op.rho.kind == "atomic" else "None"
    if report.scalars.get("adjointness") != adjoint:
        problems.append(f"adjointness {report.scalars.get('adjointness')}, expected {adjoint}")
    known = _partner_closed_forms(driven_cumulants(op.rho))
    for r in rows:
        n, model = int(r["n"]), _q(r["model"])
        if not model == _q(r["composition"]) == _q(r["closed_form"]):
            problems.append(f"n={n}: model, composition and closed form disagree")
        if n in known and model != known[n]:
            problems.append(f"n={n}: kappa_n(x+i[x,s]) off its closed form")
    return problems


def _check_fid(gate: Gate, op: Op, report: Report) -> list[str]:
    size = op.order
    targets = (["sequence"] if op.sequence else []) + (["x+i[x,s]", "s+i[s,x]"] if op.rho else [])
    rows = report.rows
    if [r.get("target") for r in rows] != targets:
        return [f"targets {[r.get('target') for r in rows]}, expected {targets}"]
    problems = []
    all_psd = True
    for r in rows:
        target, kappas, pivots = r["target"], _qs(r["cumulants"]), _qs(r["pivots"])
        if len(kappas) != 2 * size or r.get("order") != str(2 * size):
            problems.append(f"{target}: not 2*size cumulants")
            continue
        psd, exact = hankel_oracle(kappas, size)
        all_psd = all_psd and psd
        if r["psd"] != str(psd):
            problems.append(f"{target}: psd {r['psd']}, Sylvester says {psd}")
        expected_len = size if psd else len(pivots)
        failure = "None" if psd else str(len(pivots) - 1)
        if len(pivots) != expected_len or r.get("failure_index") != failure:
            problems.append(f"{target}: pivots or failure index inconsistent")
        if any(e is not None and e != p for p, e in zip(pivots, exact)):
            problems.append(f"{target}: a pivot is not a ratio of leading minors")
        if target == "sequence":
            if kappas != list(op.sequence) or psd != (op.expect_exit == 0):
                problems.append("sequence entry differs from the input")
        elif target == "x+i[x,s]":
            known = _partner_closed_forms(driven_cumulants(op.rho))
            if kappas[:3] != [known[1], known[2], known[3]] or not psd:
                problems.append("x+i[x,s]: off its closed forms or not PSD")
        else:
            k2 = driven_cumulants(op.rho)[1]
            if kappas[:2] != [0, 1 + 2 * k2] or not psd:
                problems.append("s+i[s,x]: kappa_1 != 0, kappa_2 != 1 + 2 kappa_2(x) or not PSD")
            problems += gate.share(op, r["cumulants"].split())
    if report.scalars.get("holds") != str(all_psd):
        problems.append("holds flag disagrees with the entries")
    return problems


def _check_partitions(gate: Gate, op: Op, report: Report) -> list[str]:
    n, kind = op.order, op.kind
    listed = ast.literal_eval("[" + report.scalars["partitions"].replace("]] [[", "]], [[") + "]")
    expected = PARTITION_COUNTS[kind](n)
    problems = []
    if int(report.scalars["count"]) != expected or len(listed) != expected:
        problems.append(f"count {report.scalars['count']}, expected {expected}")
    if len({str(p) for p in listed}) != len(listed):
        problems.append("a partition is listed twice")
    if not all(_partition_ok(p, n, kind) for p in listed):
        problems.append(f"a listed partition is not of kind {kind}")
    return problems


def _check_cumulants(gate: Gate, op: Op, report: Report) -> list[str]:
    kappas, moments = _qs(report.scalars["cumulants"]), _qs(report.scalars["moments"])
    want_k = law_cumulants(op.x, op.order)
    want_m = law_moments(op.x, op.order)
    problems = []
    if len(kappas) != op.order or len(moments) != op.order + 1:
        return [f"{len(kappas)} cumulants and {len(moments)} moments for order {op.order}"]
    if any(w is not None and w != g for w, g in zip(want_k, kappas)):
        problems.append("a cumulant is off its closed form")
    if any(w is not None and w != g for w, g in zip(want_m, moments)):
        problems.append("a moment is off its closed form")
    if not satisfies_r_transform(kappas, moments):
        problems.append("moments and cumulants violate C(z M(z)) = M(z)")
    return problems


_CHECKS = {
    "verify-additivity": _check_additivity,
    "freeness-witness": _check_witness,
    "cancellation": _check_cancellation,
    "verify-closed-form": _check_closed_form,
    "verify-fock": _check_fock,
    "fid-check": _check_fid,
    "partitions": _check_partitions,
    "cumulants": _check_cumulants,
}

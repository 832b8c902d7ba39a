"""Command-line verification front end.

Distribution specs are exact-rational strings; every command emits a
deterministic report (JSON by default, or an aligned table carrying the same
rationals) and exits 0 iff every checked identity holds, 1 on the first
counterexample, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .commutator import (
    DistributionPair,
    cancellation_sums,
    closed_form_cumulants,
    cumulant_sequence_of,
    freeness_witness,
    perturbed_partner,
    sum_with_commutator,
    verify_additivity,
)
from .cumulants import (
    CumulantSequence,
    MomentSequence,
    format_rational,
    moments_from_cumulants,
)
from .errors import FreeCommutantError, SizeLimitError, SpecSyntaxError
from .fid import compound_poisson_from_rho, hankel_fid_check
from .fock import (
    ADJOINT_PAIRS,
    composition_formula_cumulants,
    model_cumulants,
    verify_adjointness,
)
from .partitions import PartitionKind, iter_partitions

FAULT_ENV = "FREECOMMUTANT_INJECT_FAULT"
ORDER_CAP_ENV = "FREECOMMUTANT_MAX_ORDER"
DEFAULT_ORDER_CAP = 8

# Bell / Catalan / 2^(n-1) growth: at these sizes the ``partitions`` command,
# which holds every partition in its report, takes at most about 4.5 s and
# 250 MiB on a 2-CPU machine.
ENUMERATION_CAPS = {
    PartitionKind.ALL: 10,
    PartitionKind.NC: 11,
    PartitionKind.INTERVAL: 17,
    PartitionKind.INTERVAL_MIN2: 24,
    PartitionKind.NC_IRREDUCIBLE: 12,
}

# (kind, opening, closing) of each spec form that parse_spec accepts
_SPEC_FORMS = (("semicircle", "(", ")"), ("free-poisson", "(", ")"), ("atomic", "(", ")"),
               ("cumulants", "[", "]"), ("rho-moments", "[", "]"))


@dataclass(frozen=True)
class DistributionSpec:
    """Parsed form of a distribution spec string."""

    kind: str
    numbers: tuple[Fraction, ...] = ()
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    def cumulants(self, order: int) -> CumulantSequence:
        if self.kind == "semicircle":
            return CumulantSequence.semicircular(self.numbers[0], order)
        if self.kind == "free-poisson":
            return CumulantSequence.free_poisson(self.numbers[0], order)
        if self.kind == "atomic":
            return CumulantSequence.from_atoms(self.atoms, order)
        if self.kind == "cumulants":
            padded = list(self.numbers[:order])
            padded += [Fraction(0)] * (order - len(padded))
            return CumulantSequence(padded)
        if self.kind == "rho-moments":
            return compound_poisson_from_rho(self.rho(order), order)
        raise SpecSyntaxError(f"unknown spec kind {self.kind}", 0)

    def rho(self, order: int) -> MomentSequence:
        if self.kind == "atomic":
            return MomentSequence.from_atoms(self.atoms, order)
        if self.kind == "rho-moments":
            if len(self.numbers) < order:
                raise SpecSyntaxError(
                    f"rho-moments lists {len(self.numbers)} moments, need {order}", 0)
            return MomentSequence((Fraction(1),) + self.numbers[:order])
        raise SpecSyntaxError(
            f"spec kind {self.kind} does not describe a driving measure", 0)


def _literal(text: str) -> Fraction:
    """An exact rational literal: an integer, p/q or a decimal such as 0.25.
    Exponent notation is refused, since a literal like 1e10000000 alone takes
    seconds to expand; a literal longer than the interpreter's
    string-to-integer limit fails in ``Fraction`` itself."""
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted")
    return Fraction(text)


def _parse_rational(text: str, offset: int) -> Fraction:
    try:
        return _literal(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecSyntaxError(f"bad rational literal {text.strip()!r}: {exc}", offset) from exc


def parse_spec(text: str) -> DistributionSpec:
    """Parse one of:

    semicircle(v) | free-poisson(l) | atomic(w1:a1, ...) |
    cumulants[c1, ...] | rho-moments[m1, ...]
    """
    src = text.strip()
    for head, open_c, close_c in _SPEC_FORMS:
        if src.startswith(head + open_c):
            if not src.endswith(close_c):
                raise SpecSyntaxError(f"expected closing {close_c!r}", len(src))
            body = src[len(head) + 1:-1]
            offset = len(head) + 1
            if head == "atomic":
                atoms = []
                for piece in body.split(","):
                    if ":" not in piece:
                        raise SpecSyntaxError("atomic entries are weight:atom", offset)
                    w_text, a_text = piece.split(":", 1)
                    atoms.append((
                        _parse_rational(w_text, offset),
                        _parse_rational(a_text, offset + len(w_text) + 1),
                    ))
                    offset += len(piece) + 1
                if any(w <= 0 for w, _ in atoms):
                    raise SpecSyntaxError("atomic weights must be positive", len(head) + 1)
                if sum(w for w, _ in atoms) != 1:
                    raise SpecSyntaxError("atomic weights must sum to 1", len(head) + 1)
                return DistributionSpec("atomic", atoms=tuple(atoms))
            numbers = []
            for piece in body.split(","):
                if not piece.strip():
                    raise SpecSyntaxError("empty entry", offset)
                numbers.append(_parse_rational(piece, offset))
                offset += len(piece) + 1
            if head in ("semicircle", "free-poisson") and len(numbers) != 1:
                raise SpecSyntaxError(f"{head} takes exactly one parameter", len(head) + 1)
            return DistributionSpec(head, numbers=tuple(numbers))
    raise SpecSyntaxError(f"expected one of {', '.join(f[0] for f in _SPEC_FORMS)}", 0)


def _fault_active() -> bool:
    return os.environ.get(FAULT_ENV) == "1"


def _perturb(value: Fraction) -> Fraction:
    return value + 1 if _fault_active() else value


def _positive_int(text: str) -> int:
    """Type of ``--max-order`` and ``--size``: an integer of at least 1, so
    that no verdict is taken over an empty range."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """Type of ``--s-var``: an exact rational literal such as 2 or 1/3."""
    try:
        return _literal(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational, got {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` of a process and reused:
    parsing leaves it unchanged.  Each subcommand carries its handler as the
    ``handler`` default."""
    parser = argparse.ArgumentParser(
        prog="freecommutant",
        description="Exact verification of commutator-distribution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, x=False, s_var=False, rho=False, order=None):
        p.set_defaults(handler=handler)
        if x:
            p.add_argument("--x", required=True, help="distribution spec for x")
        if s_var:
            p.add_argument("--s-var", type=_rational, default="1",
                           help="variance of the semicircular s")
        if rho:
            p.add_argument("--rho", required=True,
                           help="driving measure: atomic(...) or rho-moments[...]")
        if order is not None:
            p.add_argument("--max-order", type=_positive_int, default=order)
        p.add_argument("--format", choices=("json", "table"), default="json")

    common(sub.add_parser("verify-additivity",
                          help="kappa_n(s+i[s,x]) vs kappa_n(s)+kappa_n(i[s,x])"),
           _cmd_verify_additivity, x=True, s_var=True, order=6)
    common(sub.add_parser("freeness-witness", help="kappa_4(s, i[s,x], i[s,x], s)"),
           _cmd_freeness_witness, x=True, s_var=True)
    common(sub.add_parser("cancellation", help="the signed double sums that must vanish"),
           _cmd_cancellation, x=True, s_var=True, order=5)
    common(sub.add_parser("verify-closed-form",
                          help="closed form for kappa_n(x+i[x,s]) vs full expansion"),
           _cmd_verify_closed_form, x=True, order=6)
    common(sub.add_parser("verify-fock",
                          help="operator model vs composition sums vs closed form"),
           _cmd_verify_fock, rho=True, order=6)
    fid = sub.add_parser("fid-check", help="truncated Hankel positivity witnesses")
    fid.add_argument("--rho", help="driving measure for x (atomic or rho-moments)")
    fid.add_argument("--sequence", help="literal cumulants[...] to check directly")
    fid.add_argument("--size", type=_positive_int, default=3)
    common(fid, _cmd_fid_check)
    parts = sub.add_parser("partitions", help="enumerate a partition family")
    parts.add_argument("--n", type=int, required=True)
    parts.add_argument("--kind", required=True,
                       choices=[k.value for k in PartitionKind])
    common(parts, _cmd_partitions)
    common(sub.add_parser("cumulants", help="cumulant and moment table of a spec"),
           _cmd_cumulants, x=True, order=8)
    return parser


def _order_or_die(requested: int, source: str = "--max-order") -> int:
    """The order, unless it is above the cap that ``FREECOMMUTANT_MAX_ORDER``
    sets (8 when unset), the only cap on an order: the library computes any
    order it is asked for.  ``source`` names the option in the message."""
    raw = os.environ.get(ORDER_CAP_ENV)
    try:
        cap = DEFAULT_ORDER_CAP if raw is None else int(raw)
    except ValueError:
        raise FreeCommutantError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise FreeCommutantError(f"{ORDER_CAP_ENV} must be positive, got {cap}")
    if requested > cap:
        raise FreeCommutantError(
            f"order {requested} (from {source}) exceeds the cap {cap};"
            f" raise it via {ORDER_CAP_ENV}"
        )
    if requested > DEFAULT_ORDER_CAP:
        print(
            f"note: order {requested} is above the default cap {DEFAULT_ORDER_CAP}",
            file=sys.stderr,
        )
    return requested


def _pair_from_args(args, order: int) -> DistributionPair:
    return DistributionPair.standard(parse_spec(args.x).cumulants(order), args.s_var, order)


def _cmd_verify_additivity(args) -> dict:
    order = _order_or_die(args.max_order)
    pair = _pair_from_args(args, order)
    reports = verify_additivity(pair, order)
    if _fault_active():
        reports[0] = replace(reports[0], lhs=reports[0].lhs + 1)
    return {
        "x": args.x,
        "s_var": format_rational(args.s_var),
        "max_order": order,
        "hypothesis_met": pair.dist_s.is_semicircular,
        "holds": all(r.holds for r in reports),
        "reports": [r.to_json() for r in reports],
    }


def _cmd_freeness_witness(args) -> dict:
    pair = _pair_from_args(args, 4)
    witness = _perturb(freeness_witness(pair))
    expected = pair.dist_s.kappa(2) ** 2 * pair.dist_x.kappa(2)
    return {
        "x": args.x,
        "s_var": format_rational(args.s_var),
        "witness": format_rational(witness),
        "expected": format_rational(expected),
        "holds": witness == expected,
        "note": "a nonzero witness certifies that s and i[s,x] are not free",
    }


def _cmd_cancellation(args) -> dict:
    order = _order_or_die(args.max_order)
    if order < 2:
        raise FreeCommutantError("cancellation sums start at order 2; pass --max-order >= 2")
    pair = _pair_from_args(args, order)
    entries = []
    # coefficients of t^0..t^n in kappa_n(s + t(sx - xs)); the command's s
    # is semicircular, so every k in 1..n-1 must vanish
    for n, coeffs in enumerate(cancellation_sums(pair, order)[1:], start=2):
        for k in range(1, n):
            v = coeffs[k] if entries else _perturb(coeffs[k])
            entries.append({"n": n, "k": k, "value": format_rational(v), "holds": v == 0})
    return {
        "x": args.x,
        "s_var": format_rational(args.s_var),
        "max_order": order,
        "holds": all(e["holds"] for e in entries),
        "entries": entries,
    }


def _agreement(**routes) -> tuple[bool, list[dict]]:
    """One row per order n = 1, 2, ... with each route's value, holding when
    all routes agree; the fault switch perturbs the first route at n = 1."""
    entries = []
    for n, values in enumerate(zip(*routes.values()), start=1):
        if n == 1:
            values = (_perturb(values[0]),) + values[1:]
        entries.append({"n": n, **dict(zip(routes, map(format_rational, values))),
                        "holds": all(v == values[0] for v in values)})
    return all(e["holds"] for e in entries), entries


def _cmd_verify_closed_form(args) -> dict:
    order = _order_or_die(args.max_order)
    dist_x = parse_spec(args.x).cumulants(order)
    pair = DistributionPair.standard(dist_x, 1, max_order=order)
    expansion = cumulant_sequence_of(perturbed_partner(), pair, order).values
    ok, entries = _agreement(closed_form=closed_form_cumulants(order, dist_x), expansion=expansion)
    return {"x": args.x, "max_order": order, "holds": ok, "entries": entries}


def _cmd_verify_fock(args) -> dict:
    order = _order_or_die(args.max_order)
    spec = parse_spec(args.rho)
    rho = spec.rho(order)
    ok, entries = _agreement(
        model=model_cumulants(order, rho),
        composition=composition_formula_cumulants(order, rho),
        closed_form=closed_form_cumulants(order, compound_poisson_from_rho(rho, order)))
    # None unless the spec is a measure, the only rho whose pairing is an inner product
    adjoint = verify_adjointness(ADJOINT_PAIRS) if spec.kind == "atomic" else None
    return {
        "rho": args.rho,
        "max_order": order,
        "holds": ok and adjoint is not False,
        "adjointness": adjoint,
        "entries": entries,
    }


def _cmd_fid_check(args) -> dict:
    if not (args.rho or args.sequence):
        raise FreeCommutantError("fid-check needs --rho and/or --sequence")
    size = args.size
    # the Hankel matrix is size x size, so --size is capped like an order
    order = _order_or_die(2 * size, "2 * --size")
    checks: list[tuple[str, CumulantSequence]] = []
    if args.sequence:
        checks.append(("sequence", parse_spec(args.sequence).cumulants(order)))
    if args.rho:
        rho = parse_spec(args.rho).rho(order)
        dist_x = compound_poisson_from_rho(rho, order)
        checks.append(("x+i[x,s]", CumulantSequence(closed_form_cumulants(order, dist_x))))
        pair = DistributionPair.standard(dist_x, 1, max_order=order)
        checks.append(("s+i[s,x]",
                       cumulant_sequence_of(sum_with_commutator(), pair, order)))
    if _fault_active():
        name, seq = checks[0]
        values = list(seq.values)
        values[1] = -abs(values[1]) - 1  # force a negative leading pivot
        checks[0] = (name, CumulantSequence(values))
    entries = [{"target": target, "cumulants": seq.to_json(),
                **hankel_fid_check(seq, size).to_json()} for target, seq in checks]
    return {"size": size, "holds": all(e["psd"] for e in entries), "entries": entries}


def _cmd_partitions(args) -> dict:
    kind = PartitionKind(args.kind)
    cap = ENUMERATION_CAPS[kind]
    if not 1 <= args.n <= cap:
        raise SizeLimitError(
            f"enumeration of {kind.value} partitions supports 1 <= n <= {cap}, got {args.n}")
    parts = [p.to_json() for p in iter_partitions(args.n, kind)]
    return {"n": args.n, "kind": kind.value, "count": len(parts), "partitions": parts}


def _cmd_cumulants(args) -> dict:
    order = _order_or_die(args.max_order)
    spec = parse_spec(args.x)
    # an atomic spec gives its cumulants and its moments directly, each
    # without the O(N^3) transform; the others give only their cumulants
    seq = spec.cumulants(order)
    moments = spec.rho(order) if spec.kind == "atomic" else moments_from_cumulants(seq, order)
    return {
        "x": args.x,
        "max_order": order,
        "cumulants": seq.to_json(),
        "moments": moments.to_json(),
    }


def _render_table(payload: dict) -> str:
    lines = []
    rows_key = None
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows_key = key
            continue
        if isinstance(value, list):
            lines.append(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{key}: {value}")
    if rows_key:
        rows = payload[rows_key]
        headers = list(rows[0].keys())
        table = [headers] + [
            [" ".join(map(str, r[h])) if isinstance(r[h], list) else str(r[h])
             for h in headers]
            for r in rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = {"command": args.command, **args.handler(args)}
    except FreeCommutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "table":
        sys.stdout.write(_render_table(payload))
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0 if payload.get("holds", True) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

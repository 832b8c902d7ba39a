"""Seeded op lists for the benchmark's three workloads.

An op is one ``freecommutant`` command line plus the facts the correctness
gate needs to judge its report.  A workload is a list of rounds; every round
of a workload has the same shape but draws fresh inputs, so no round repeats
the work of another and no process-wide cache can turn a round into a lookup.
The program receives only the generated argv.

The generators never pass ``--jobs``, and never pass ``--seed`` to
``partitions``, ``cumulants`` or ``fid-check``: those flags may be deleted,
and deleting them must not turn benchmark ops into failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction as Q

WORKLOADS = ("additivity-deep", "operator-chain", "small-verdicts")

# Seconds one round took on 2 CPUs at the commit that defined the benchmark,
# and the share of --seconds a run of each workload is sized to: the deep
# additivity ops are few and long, so they get the most time; the short ops
# settle soonest.  A run executes round(seconds * RUN_SHARE / ROUND_S)
# rounds, so the op list is fixed for a given --seconds: a faster program
# finishes sooner instead of running a longer list, and every percentile is
# taken over the same number of ops.
ROUND_S = {"additivity-deep": 8.0, "operator-chain": 3.7, "small-verdicts": 0.9}
RUN_SHARE = {"additivity-deep": 4 / 3, "operator-chain": 1.0, "small-verdicts": 2 / 3}

# Variables removed from the environment of every op, then the per-workload
# settings.  The fault switch perturbs reports on purpose; only the
# benchmark's own test turns it on.
FAULT_ENV = "FREECOMMUTANT_INJECT_FAULT"
ORDER_CAP_ENV = "FREECOMMUTANT_MAX_ORDER"
ENV = {
    "additivity-deep": {},
    # verify-fock --max-order 13 is above the default order cap of 8.
    "operator-chain": {ORDER_CAP_ENV: "30"},
    "small-verdicts": {},
}


@dataclass(frozen=True)
class Law:
    """A distribution spec in structured form.

    ``params`` holds one rational for semicircle/free-poisson, (weight, atom)
    pairs for atomic, and the listed numbers for cumulants/rho-moments.
    """

    kind: str
    params: tuple

    def spec(self) -> str:
        if self.kind == "atomic":
            return "atomic(" + ",".join(f"{w}:{a}" for w, a in self.params) + ")"
        if self.kind in ("cumulants", "rho-moments"):
            return f"{self.kind}[" + ",".join(str(v) for v in self.params) + "]"
        return f"{self.kind}({self.params[0]})"


@dataclass(frozen=True)
class Op:
    """One command line and what its report must satisfy."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    x: Law | None = None            # --x
    rho: Law | None = None          # --rho
    s_var: Q = Q(1)                 # --s-var (1 when not passed)
    order: int = 0                  # --max-order, --size or --n
    kind: str = ""                  # partitions --kind
    sequence: tuple[Q, ...] = ()    # fid-check --sequence cumulants; PSD iff exit 0
    share: str = ""                 # ops with one key report one s+i[s,x] sequence

    @property
    def command(self) -> str:
        return self.argv[0]


def rounds(workload: str, seed: int, seconds: int) -> list[list[Op]]:
    """The fixed op list of one run."""
    count = max(1, round(seconds * RUN_SHARE[workload] / ROUND_S[workload]))
    return [make_round(workload, seed, r) for r in range(count)]


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _ROUND_MAKERS[workload](rng, f"{seed}/{index}")


def atomic_moments(atoms, order: int) -> list[Q]:
    """m_0..m_order of a finite atomic measure."""
    return [sum((w * a ** k for w, a in atoms), Q(0)) for k in range(order + 1)]


# Small rationals keep every draw of one workload at a similar cost.
_WEIGHTS2 = (Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4))
_WEIGHTS3 = ((Q(1, 4), Q(1, 2), Q(1, 4)), (Q(1, 3), Q(1, 3), Q(1, 3)),
             (Q(1, 2), Q(1, 4), Q(1, 4)), (Q(1, 6), Q(1, 3), Q(1, 2)))
_NEG = (Q(-2), Q(-1), Q(-1, 2))
_POS = (Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3))
_VARIANCES = (Q(1, 3), Q(1, 2), Q(3, 2), Q(2), Q(3))
_SMALL = (Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2))


def _atomic(rng: random.Random, count: int = 2) -> Law:
    """An atomic law with one negative atom and count-1 positive ones."""
    a_neg = rng.choice(_NEG)
    positives = rng.sample([a for a in _POS if a != -a_neg], count - 1)
    atoms = sorted([a_neg] + positives)
    if count == 2:
        w = rng.choice(_WEIGHTS2)
        weights = (w, 1 - w)
    else:
        weights = rng.choice(_WEIGHTS3)
    return Law("atomic", tuple(zip(weights, atoms)))


def _compound_poisson(rho: Law, order: int) -> Law:
    """x with kappa_n(x) = m_n(rho), as the spec the CLI accepts."""
    return Law("rho-moments", tuple(atomic_moments(rho.params, order)[1:]))


# (weight, negative atom, positive atom) of the additivity drivers: two
# integer atoms with a nonzero mean.  A centred driver makes every kappa_1
# block vanish and runs twice as fast; these seven cost within 10% of each
# other, so a round's cost does not hinge on the draw.
_DEEP_DRIVERS = (
    (Q(1, 3), -1, 2), (Q(1, 3), -1, 3), (Q(1, 3), -2, 3), (Q(1, 2), -1, 2),
    (Q(1, 2), -2, 1), (Q(1, 2), -2, 3), (Q(2, 3), -2, 1),
)


def _deep_driver(rng: random.Random) -> Law:
    w, a_neg, a_pos = rng.choice(_DEEP_DRIVERS)
    return Law("atomic", ((w, Q(a_neg)), (1 - w, Q(a_pos))))


def _additivity_deep(rng: random.Random, key: str) -> list[Op]:
    rho = _deep_driver(rng)
    cfp = _compound_poisson(rho, 8)
    s_var = rng.choice((Q(1, 2), Q(3, 2), Q(2), Q(3)))
    return [
        # The first two ops rebuild the same order-8 cumulant sequence of
        # s+i[s,x] (x compound free Poisson over rho, standard s), so reuse
        # of work across calls shows here.
        Op(("verify-additivity", "--x", cfp.spec(), "--max-order", "8"),
           x=cfp, order=8, share=key),
        Op(("fid-check", "--rho", rho.spec(), "--size", "4"),
           rho=rho, order=4, share=key),
        Op(("cancellation", "--x", rho.spec(), "--s-var", str(s_var), "--max-order", "8"),
           x=rho, s_var=s_var, order=8),
    ]


def _operator_chain(rng: random.Random, key: str) -> list[Op]:
    rho = _atomic(rng, rng.choice((2, 3)))
    return [
        Op(("verify-fock", "--rho", rho.spec(), "--max-order", "13"), rho=rho, order=13),
        Op(("cumulants", "--x", rho.spec(), "--max-order", "30"), x=rho, order=30),
    ]


_LAW_KINDS = ("semicircle", "free-poisson", "atomic", "cumulants", "rho-moments")


def _law(rng: random.Random, kind: str) -> Law:
    if kind == "semicircle":
        return Law(kind, (rng.choice(_VARIANCES),))
    if kind == "free-poisson":
        return Law(kind, (rng.choice((Q(1, 2), Q(1), Q(2), Q(3))),))
    if kind == "atomic":
        return _atomic(rng, rng.choice((2, 3)))
    if kind == "cumulants":
        return Law(kind, tuple(rng.choice(_SMALL) for _ in range(4)))
    return _compound_poisson(_atomic(rng), 8)


def _fid_sequence(rng: random.Random, size: int, variant: str) -> tuple[Q, ...]:
    """Cumulants kappa_1..kappa_{2 size} whose Hankel matrix [kappa_{i+j+2}]
    is PSD ("psd": shifted moments of a positive measure), or fails at the
    first pivot ("neg0": kappa_2 < 0) or the second ("neg1": kappa_2 > 0,
    kappa_3 != 0, kappa_4 = 0)."""
    first = rng.choice(_SMALL)
    if variant == "psd":
        scale = rng.choice(_VARIANCES)
        shifted = atomic_moments(_atomic(rng).params, 2 * size - 2)
        return (first,) + tuple(scale * m for m in shifted)
    rest = tuple(rng.choice(_SMALL) for _ in range(2 * size - 4))
    if variant == "neg0":
        return (first, -rng.choice(_VARIANCES), rng.choice(_SMALL), rng.choice(_SMALL)) + rest
    return (first, rng.choice(_VARIANCES), rng.choice((Q(-1), Q(1, 2), Q(2))), Q(0)) + rest


_X_COMMANDS = ("verify-additivity", "freeness-witness", "cancellation",
               "verify-closed-form", "cumulants")
_PARTITION_KINDS = ("all", "nc", "interval", "interval-min2", "nc-irreducible")
SMALL_ROUND_OPS = 32
SMALL_TABLE_OPS = 8      # ops per round rendered with --format table
SMALL_FAILING_OPS = 2    # ops per round designed to exit 1


def _x_op(rng: random.Random, command: str, order: int, law: Law) -> Op:
    s_var = Q(1) if command in ("verify-closed-form", "cumulants") else rng.choice(_VARIANCES)
    argv = (command, "--x", law.spec())
    if command not in ("verify-closed-form", "cumulants"):
        argv += ("--s-var", str(s_var))
    if command == "freeness-witness":
        return Op(argv, x=law, s_var=s_var)
    return Op(argv + ("--max-order", str(order)), x=law, s_var=s_var, order=order)


def _fock_op(rng: random.Random, order: int, formal: bool) -> Op:
    if formal:  # a formal moment sequence: no adjointness check
        rho = Law("rho-moments", tuple(rng.choice(_SMALL) for _ in range(order + 1)))
    else:
        rho = _atomic(rng, rng.choice((2, 3)))
    return Op(("verify-fock", "--rho", rho.spec(), "--max-order", str(order)),
              rho=rho, order=order)


def _fid_op(rng: random.Random, variant: str) -> Op:
    if variant == "rho":
        rho = _atomic(rng)
        return Op(("fid-check", "--rho", rho.spec(), "--size", "3"), rho=rho, order=3)
    size = 3 if variant == "psd" else 2
    seq = _fid_sequence(rng, size, variant)
    return Op(("fid-check", "--sequence", Law("cumulants", seq).spec(), "--size", str(size)),
              expect_exit=0 if variant == "psd" else 1, order=size, sequence=seq)


def _small_verdicts(rng: random.Random, key: str) -> list[Op]:
    """32 short ops in seeded order, every round with the same mix: each
    --x command at orders 3, 4, 5 and 6 over a deck holding every spec kind
    four times; verify-fock at orders 3-6, one of them on a formal moment
    sequence; partitions at n = 3-6; and fid-check once on --rho, once on a
    PSD --sequence and twice on non-PSD sequences (the SMALL_FAILING_OPS
    designed to exit 1).  SMALL_TABLE_OPS of them render tables."""
    kinds = [k for k in _LAW_KINDS for _ in range(4)]
    rng.shuffle(kinds)
    ops = [_x_op(rng, c, order, _law(rng, kinds.pop()))
           for c in _X_COMMANDS for order in (3, 4, 5, 6)]
    formal = rng.randint(3, 6)
    ops += [_fock_op(rng, order, order == formal) for order in (3, 4, 5, 6)]
    ops += [Op(("partitions", "--n", str(n), "--kind", kind), order=n, kind=kind)
            for n, kind in zip((3, 4, 5, 6), rng.sample(_PARTITION_KINDS, 4))]
    ops += [_fid_op(rng, v) for v in ("rho", "psd", "neg0", "neg1")]
    rng.shuffle(ops)
    for i in rng.sample(range(len(ops)), SMALL_TABLE_OPS):
        ops[i] = replace(ops[i], argv=ops[i].argv + ("--format", "table"))
    return ops


_ROUND_MAKERS = {
    "additivity-deep": _additivity_deep,
    "operator-chain": _operator_chain,
    "small-verdicts": _small_verdicts,
}

"""Operator model on a tensor space driven by the moments of one measure.

States are finite rational combinations of elementary tensors of powers of a
single random variable Y; slot j of a basis tensor carries Y^e for a stored
exponent e (0 means the constant 1).  Six operators act by appending,
multiplying into the last slot, or contracting against a moment of Y, split
into two families whose vacuum moments add up to the cumulants of x + i[x,s]
when the cumulants of x are the moments of the driving measure; so do the
paper's sums over compositions, computed here by a first-block recursion.
Values are exact: ``FockVector`` states hold ``Fraction`` coefficients, or
ints over dilated moments in the adjointness checks.  The vacuum moments
come from a two-level recursion read off the operator table, not from a
walk over states; it and the first-block recursion run on integer
numerators of the dilated moments and divide once per output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .cumulants import (
    MomentSequence,
    as_fraction,
    composition_series,
    dilate,
    first_block_sum,
    format_rational,
)
from .errors import DomainError, TruncationError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class OperatorName(Enum):
    XHAT = "xhat"
    XSHAT = "xshat"
    SXHAT = "sxhat"
    XTILDE = "xtilde"
    XSTILDE = "xstilde"
    SXTILDE = "sxtilde"


HAT_SUM = (OperatorName.XHAT, OperatorName.XSHAT, OperatorName.SXHAT)
TILDE_SUM = (OperatorName.XTILDE, OperatorName.XSTILDE, OperatorName.SXTILDE)

# (operator, claimed adjoint) pairs asserted by the model
ADJOINT_PAIRS = (
    (OperatorName.XHAT, OperatorName.XHAT),
    (OperatorName.XSHAT, OperatorName.SXHAT),
    (OperatorName.XTILDE, OperatorName.XTILDE),
    (OperatorName.XSTILDE, OperatorName.SXTILDE),
)


def _check_tensor(t: tuple[int, ...]) -> None:
    if not t or any((not isinstance(e, int)) or e < 0 for e in t):
        raise DomainError(f"basis tensors are nonempty tuples of nonnegative ints, got {t!r}")


@dataclass(frozen=True, slots=True)
class FockVector:
    """Sparse rational combination of elementary tensors.  Built from any
    iterable of (tensor, coefficient) pairs or a dict; like terms merge and
    zero coefficients are dropped."""

    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        acc: dict[tuple[int, ...], Fraction] = {}
        for t, c in items:
            t = tuple(t)
            _check_tensor(t)
            c = as_fraction(c)
            if c:
                acc[t] = acc.get(t, _ZERO) + c
                if not acc[t]:
                    del acc[t]
        object.__setattr__(self, "terms", acc)

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, ...], Fraction]) -> "FockVector":
        """Wrap a dict that is already canonical (valid tensors, nonzero
        Fractions or ints) without validating it again; for vectors built here."""
        v = object.__new__(cls)
        object.__setattr__(v, "terms", terms)
        return v

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls([((0,), _ONE)])

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        acc = dict(self.terms)
        for t, c in other.terms.items():
            acc[t] = acc.get(t, _ZERO) + c
            if not acc[t]:
                del acc[t]
        return FockVector._trusted(acc)

    def scaled(self, c) -> "FockVector":
        f = as_fraction(c)
        return FockVector({t: v * f for t, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"FockVector({self.items()!r})"

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(t), "coeff": format_rational(c)}
            for t, c in self.items()
        ]


def _apply_tensor(op: OperatorName, t: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
    """The operator's action on one basis tensor, as (tensor, k) pairs: the
    tensor with coefficient m_k of Y.  k = 0 is the coefficient m_0 = 1, and
    the total exponent plus k always grows by exactly one."""
    n = len(t)
    odd = n % 2 == 1
    if op is OperatorName.XHAT:
        if odd:
            yield t[:-1] + (t[-1] + 1,), 0
    elif op is OperatorName.XTILDE:
        if not odd:
            yield t[:-1] + (t[-1] + 1,), 0
    elif op is OperatorName.XSHAT:
        if not odd:
            yield t + (1,), 0
            yield t[:-2] + (t[-2] + 1,), t[-1]
    elif op is OperatorName.SXHAT:
        if odd:
            yield t[:-1] + (t[-1] + 1, 0), 0
            if n > 1:
                yield t[:-1], t[-1] + 1
    elif op is OperatorName.XSTILDE:
        if odd:
            yield t + (1,), 0
            if n > 1:
                yield t[:-2] + (t[-2] + 1,), t[-1]
    elif op is OperatorName.SXTILDE:
        if not odd:
            yield t[:-1] + (t[-1] + 1, 0), 0
            yield t[:-1], t[-1] + 1
    else:  # pragma: no cover
        raise DomainError(f"unknown operator {op!r}")


def apply(op: OperatorName, v: FockVector, rho: MomentSequence | Sequence[int]) -> FockVector:
    """Linear extension of the per-tensor operator action, over any exact
    coefficient ring: ``rho[k]`` is m_k, from a ``MomentSequence`` or dilated ints."""
    acc = {}
    for t, c in v.terms.items():
        for out, k in _apply_tensor(op, t):
            cw = c * rho[k] if k else c
            if cw:
                acc[out] = acc.get(out, 0) + cw
                if not acc[out]:
                    del acc[out]
    return FockVector._trusted(acc)


def inner_product(u: FockVector, v: FockVector, rho: MomentSequence | Sequence[int]):
    """Bilinear extension of: tensors of different lengths are orthogonal,
    equal lengths pair slotwise through moments ``rho[k]`` of Y, as in :func:`apply`."""
    total = 0
    by_len = {}
    for t, c in v.terms.items():
        by_len.setdefault(len(t), []).append((t, c))
    for ta, ca in u.terms.items():
        for tb, cb in by_len.get(len(ta), ()):
            prod = ca * cb
            for ea, eb in zip(ta, tb):
                m = rho[ea + eb]
                if m == 0:
                    prod = 0
                    break
                prod *= m
            total += prod
    return total


def _operator_sums(order: int, rho: MomentSequence) -> tuple[list[Fraction], list[Fraction]]:
    """<(sum of ops)^j Omega, Omega> for j = 1..order, for HAT_SUM and for
    TILDE_SUM, from one pass of a two-level recursion: the walk's level
    structure, read off the rules of :func:`_apply_tensor`.  Each rule
    touches only the last one or two slots, so the walk is a pushdown system
    whose levels alternate.  An A level increments its top slot, or does so
    and pushes a B level, or pops with weight m_{top+1}; a B level pushes a
    slot 1 as an A level, or pops with weight m_0, incrementing the slot
    below.  With alpha_j[e] the A-level loops of j steps and e increments,
    beta_j the B-level loops and g_i = sum_e alpha_i[e] m_{e+2}:
    alpha_j[e] = alpha_{j-1}[e-1] + sum_i beta_i alpha_{j-2-i}[e-2] and
    beta_j = sum_i g_i beta_{j-2-i}.  These expand the generating functions
    A(y,z) = 1/(1 - yz(1 + yz B(z))) and B(z) = 1/(1 - z^2 G(z)), with
    G(z) = sum_i g_i z^i, y marking increments and z steps.  HAT_SUM starts
    on an A level and reads sum_e alpha_j[e] m_e, TILDE_SUM on a B level and
    reads beta_j; both read m_0..m_order and nothing past it.  This is
    a derivation from the operator table, not a route independent of it;
    the tests hold it to the literal walk through :func:`apply`.  Weights
    are homogeneous in the step count, so the pass runs on the integers of
    :func:`dilate` and divides by d^j.  O(order^3)."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if rho.max_order < order:
        raise TruncationError(
            f"model order {order} needs moments to order {order}, have {rho.max_order}")
    m, d = dilate(rho.values[:order + 1])
    alpha, beta, g, hat, tilde = [[1]], [1], [], [], []
    for j in range(1, order + 1):
        if j >= 2:
            g.append(sum(a * m[e + 2] for e, a in enumerate(alpha[j - 2])))
        beta.append(sum(g[i] * beta[j - 2 - i] for i in range(j - 1)))
        row = [0] + alpha[j - 1]
        for i in range(j - 1):
            if beta[i]:
                for e, a in enumerate(alpha[j - 2 - i], start=2):
                    row[e] += beta[i] * a
        alpha.append(row)
        hat.append(Fraction(sum(a * m[e] for e, a in enumerate(row)), d ** j))
        tilde.append(Fraction(beta[j], d ** j))
    return hat, tilde


def model_cumulants(order: int, rho: MomentSequence) -> list[Fraction]:
    """kappa_1..kappa_order(x + i[x,s]), each realized as the sum of the
    vacuum moments of the two operator sums, where kappa_m(x) = m_m(rho) and
    s is standard semicircular; one pass of :func:`_operator_sums`."""
    hat, tilde = _operator_sums(order, rho)
    return [h + t for h, t in zip(hat, tilde)]


def model_cumulant(n: int, rho: MomentSequence) -> Fraction:
    """kappa_n(x + i[x,s]) alone; see :func:`model_cumulants`."""
    return model_cumulants(n, rho)[-1]


def composition_formula_cumulants(order: int, rho: MomentSequence) -> list[Fraction]:
    """The same sequence as :func:`model_cumulants`, by the closed sums over
    compositions of n.  One family runs over compositions whose outer parts
    may be single and inner parts are at least 2, paired with non-crossing
    partitions of the part indices joining first and last; the other over
    compositions with all parts at least 2, paired with all non-crossing
    partitions.  Each partition block contributes the moment of Y at the
    summed part sizes.  With G the :func:`composition_series` of the
    moments, the second family is G_n; the first is m_n (one part) plus a
    :func:`first_block_sum` over G: an outer block of c + 1 parts of total
    a, laid out in C(a-c, c) ways, with G in its c inner gaps.  O(order^3)
    for the whole sequence."""
    moments, d = dilate([rho.moment(j) for j in range(order + 1)])
    series, powers = composition_series(moments, order)
    return [Fraction(moments[n] + series[n] + first_block_sum(
        moments, powers, n, lambda a, c: math.comb(a - c, c)), d ** n)
        for n in range(1, order + 1)]


def composition_formula_cumulant(n: int, rho: MomentSequence) -> Fraction:
    """kappa_n(x + i[x,s]) alone; see :func:`composition_formula_cumulants`."""
    return composition_formula_cumulants(n, rho)[-1]


# Sampled tensors have at most 5 slots with exponents to _SAMPLE_EXPONENT; one
# operator raises an exponent by at most one (and reads a moment no higher),
# and the inner product pairs it with an unraised exponent of the other sample.
_SAMPLE_EXPONENT = 3
_SAMPLE_TOTAL = 5 * _SAMPLE_EXPONENT
ADJOINT_MOMENT_ORDER = 2 * _SAMPLE_EXPONENT + 1


def _random_vector(rng: random.Random, d: int) -> FockVector:
    """One or two terms num/den t (num in -3..3, den in 1..3), held as the
    ints 6 d^(T - |t|) num/den, with |t| the total exponent, T _SAMPLE_TOTAL."""
    acc: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, 2)):
        tensor = tuple(rng.randint(0, _SAMPLE_EXPONENT) for _ in range(rng.randint(1, 5)))
        c = rng.randint(-3, 3) * (6 // rng.randint(1, 3)) * d ** (_SAMPLE_TOTAL - sum(tensor))
        acc[tensor] = acc.get(tensor, 0) + c
        if not acc[tensor]:
            del acc[tensor]
    return FockVector._trusted(acc)


def verify_adjointness(pairs: Sequence[tuple[OperatorName, OperatorName]],
                       samples: int, rho: MomentSequence, seed: int) -> bool:
    """Check <A u, v> = <u, B v> exactly on seeded pseudo-random small states
    for each (A, B) pair; needs a genuine-measure moment sequence (adjointness
    means nothing for a formal one) to order :data:`ADJOINT_MOMENT_ORDER`, a
    sample and a pair.  States hold ints over :func:`dilate`'s moments: every
    :func:`_apply_tensor` rule adds one to total exponent plus moment index, so
    each side is exactly 36 d^(2T + 1) times its value on the rational states.

    With every odd moment of rho 0, most pairings vanish, and a non-adjoint
    pair is refuted only at some seeds: (XSHAT, XSHAT) passes 50 samples on
    atomic(1/2:-1,1/2:1) at seed 11."""
    if samples < 1 or not pairs:
        raise DomainError(f"adjointness checks need a sample and a pair, got {samples}, {pairs!r}")
    if not rho.genuine:
        raise DomainError("adjointness checks need a genuine-measure moment sequence")
    if rho.max_order < ADJOINT_MOMENT_ORDER:
        raise TruncationError(
            f"adjointness samples need moments to order {ADJOINT_MOMENT_ORDER},"
            f" have {rho.max_order}")
    m, d = dilate(rho.values[:ADJOINT_MOMENT_ORDER + 1])
    rng = random.Random(seed)
    for _ in range(samples):
        u = _random_vector(rng, d)
        v = _random_vector(rng, d)
        for a, b in pairs:
            if inner_product(apply(a, u, m), v, m) != inner_product(u, apply(b, v, m), m):
                return False
    return True

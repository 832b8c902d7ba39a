"""Operator model on a tensor space driven by the moments of one measure.

States are finite rational combinations of elementary tensors of powers of a
single random variable Y; slot j of a basis tensor carries Y^e for a stored
exponent e (0 means the constant 1).  Six operators act by appending,
multiplying into the last slot, or contracting against a moment of Y, split
into two families whose vacuum moments add up to the cumulants of x + i[x,s]
when the cumulants of x are the moments of the driving measure; so do the
paper's sums over compositions, one first-block pass of
:func:`.cumulants.composition_series` over the moments.
Values are exact.  In the package only the adjointness check gives
``apply`` its states: basis tensors with int coefficients, over integer
formal moments, which decide the operator table for every moment sequence
at once; ``Fraction`` states are test code.  The vacuum moments
come from a two-level recursion read off the operator table, not from a
walk over states; it and the composition pass run on integer numerators
of the dilated moments and divide once per output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .cumulants import MomentSequence, composition_series, dilate
from .errors import DomainError, TruncationError


class OperatorName(Enum):
    XHAT = "xhat"
    XSHAT = "xshat"
    SXHAT = "sxhat"
    XTILDE = "xtilde"
    XSTILDE = "xstilde"
    SXTILDE = "sxtilde"


# (operator, claimed adjoint) pairs asserted by the model
ADJOINT_PAIRS = (
    (OperatorName.XHAT, OperatorName.XHAT),
    (OperatorName.XSHAT, OperatorName.SXHAT),
    (OperatorName.XTILDE, OperatorName.XTILDE),
    (OperatorName.XSTILDE, OperatorName.SXTILDE),
)


@dataclass(frozen=True, slots=True)
class FockVector:
    """Sparse combination of elementary tensors: each basis tensor maps to
    its nonzero coefficient, a ``Fraction`` or an int."""

    terms: dict[tuple[int, ...], Fraction | int]


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


def apply(op: OperatorName, v: FockVector, rho: Sequence[Fraction | int]) -> FockVector:
    """Linear extension of the per-tensor operator action, over any exact
    coefficient ring: ``rho[k]`` is the moment m_k."""
    acc = {}
    for t, c in v.terms.items():
        for out, k in _apply_tensor(op, t):
            cw = c * rho[k] if k else c
            if cw:
                acc[out] = acc.get(out, 0) + cw
                if not acc[out]:
                    del acc[out]
    return FockVector(acc)


def inner_product(u: FockVector, v: FockVector, rho: Sequence[Fraction | int]):
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
    """<(sum of ops)^j Omega, Omega> for j = 1..order, for the hat sum
    XHAT + XSHAT + SXHAT and for the tilde sum XTILDE + XSTILDE + SXTILDE,
    from one pass of a two-level recursion: the walk's level structure,
    read off the rules of :func:`_apply_tensor`.  Each rule touches only the
    last one or two slots, so the walk is a pushdown system whose levels
    alternate.  An A level increments its top slot, or does so
    and pushes a B level, or pops with weight m_{top+1}; a B level pushes a
    slot 1 as an A level, or pops with weight m_0, incrementing the slot
    below.  With alpha_j[e] the A-level loops of j steps and e increments,
    beta_j the B-level loops and g_i = sum_e alpha_i[e] m_{e+2}:
    alpha_j[e] = alpha_{j-1}[e-1] + sum_i beta_i alpha_{j-2-i}[e-2] and
    beta_j = sum_i g_i beta_{j-2-i}.  These expand the generating functions
    A(y,z) = 1/(1 - yz(1 + yz B(z))) and B(z) = 1/(1 - z^2 G(z)), with
    G(z) = sum_i g_i z^i, y marking increments and z steps.  The hat sum
    starts on an A level and reads sum_e alpha_j[e] m_e, the tilde sum on a
    B level and reads beta_j; both read m_0..m_order and nothing past it.
    This is a derivation from the operator table, not a route independent
    of it; the tests hold it to the literal walk through :func:`apply`.
    Weights are homogeneous in the step count, so the pass runs on the
    integers of :func:`dilate` and divides by d^j.  O(order^3)."""
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
    moments, the second family is G_n; the first is m_n (one part) plus the
    first-block sum over G with weight C(a-c, c): an outer block of c + 1
    parts of total a, laid out in C(a-c, c) ways, with G in its c inner
    gaps.  O(order^3) for the whole sequence."""
    moments, d = dilate([rho.moment(j) for j in range(order + 1)])
    series, sums = composition_series(moments, order, lambda a, c: math.comb(a - c, c))
    return [Fraction(moments[n] + series[n] + sums[n], d ** n) for n in range(1, order + 1)]


def composition_formula_cumulant(n: int, rho: MomentSequence) -> Fraction:
    """kappa_n(x + i[x,s]) alone; see :func:`composition_formula_cumulants`."""
    return composition_formula_cumulants(n, rho)[-1]


# verify_adjointness decides each claim on these pairs of basis tensors: one
# slot against one or two, with exponents 0 and 1, and the same pairs behind
# one slot of exponent 0 in both.  Their pairings read m_0..m_3 alone.
_SHORT = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
_CHECKED_PAIRS = [(p + t, p + u) for p in ((), (0,)) for t in _SHORT for u in _SHORT
                  if len(t) + len(u) <= 3]
_BASIS = {t: FockVector({t: 1}) for pair in _CHECKED_PAIRS for t in pair}
_FORMAL_MOMENTS = (1, 2, 2 ** 5, 2 ** 25)


def verify_adjointness(pairs: Sequence[tuple[OperatorName, OperatorName]]) -> bool:
    """Decide exactly whether <A t, u> = <t, B u> for each (A, B) pair, for
    all basis tensors t, u and every moment sequence, from the tensors of
    :data:`_CHECKED_PAIRS` over the integer formal moments m_0 = 1,
    m_k = 2^(5^(k-1)).  Tensors whose lengths differ by two or more pair to 0
    on both sides, since a rule changes the length by at most one.

    (a) Let l be the shorter length.  Only rule outputs of the other
    tensor's length pair to nonzero, and each of them touches only the last
    slot, a new one, or, going down from l + 1 >= 2 slots, the last two; so
    none of the first l - 1 slots of either tensor is read or written, and
    which rules act depends only on the parity of the length.  Both sides
    therefore share the factor <p, q> of those slots, a nonzero monomial.
    Dropping them, with one slot of exponent 0 left in front of both when
    l - 1 is odd (m_0 = 1) to keep the parity, reduces every pair to a
    checked pair up to its exponents.
    (b) For fixed lengths each side is 0 at every exponent or one monomial
    prod_i m_{f_i}, each index f_i a constant plus the exponents of distinct
    slots.  The sum over i of z^{f_i} - 1 names the monomial (m_0 drops out)
    and is multilinear in the z^e of the exponents e, so sides that agree
    at every exponent in {0, 1} agree at every exponent.
    (c) Over these moments a monomial of degree at most 4 in m_1, m_2, m_3
    is 2^w, with its exponents as the base-5 digits of w.  On a checked
    pair each side has at most three pairings and one moment of a rule, all
    of index at most 3, so equal integers are equal monomials.

    That the pairing is an inner product needs a genuine measure, which the
    caller decides.  Every call applies each operator to the basis anew."""
    if not pairs:
        raise DomainError(f"adjointness checks need a pair, got {pairs!r}")
    m = _FORMAL_MOMENTS
    for a, b in pairs:
        image_a = {t: apply(a, v, m) for t, v in _BASIS.items()}
        image_b = {t: apply(b, v, m) for t, v in _BASIS.items()}
        for t, u in _CHECKED_PAIRS:
            if inner_product(image_a[t], _BASIS[u], m) != inner_product(_BASIS[t], image_b[u], m):
                return False
    return True

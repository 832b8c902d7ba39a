"""Distributions built from the commutator of a semicircular element with a
free partner.

Provides the cumulant sequence of any polynomial linear in s, inverted
from its moments by the B-valued first-block recursion over B = C[x]
(:func:`.cumulants.polynomial_moments`); on that route, the additivity
verdicts comparing kappa_n(s + i[s,x]) against kappa_n(s) + kappa_n(i[s,x])
and kappa_n(x + i[x,s]) as the independent oracle for its closed form,
which is also here, as a first-block recursion over the x cumulants alone.
The signed double sums whose vanishing is equivalent to the additivity are
the coefficients of kappa_n(s + t(sx - xs)) in t, every order read as the
base-2^K digits of one cumulant sequence of the same route at t = 2^K
(Kronecker substitution).  On the joint cumulants of word products of
:mod:`.cumulants`: the fourth-order witness showing s and i[s,x] are
nevertheless not free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cumulants import (
    GR_I,
    GR_ONE,
    S,
    X,
    CumulantSequence,
    GaussianRational,
    Polynomial,
    cumulant_of_polynomials,
    composition_series,
    cumulants_from_moments,
    dilate,
    dilation,
    format_rational,
    polynomial_moments,
)
from .errors import DomainError, EngineConsistencyError

I_S_X = "i[s,x]"
I_X_S = "i[x,s]"

_SX = "sx"
_XS = "xs"


def commutator_polynomial(which: str) -> Polynomial:
    """The two-term polynomial i*ab - i*ba for the requested letter order."""
    if which == I_S_X:
        return Polynomial([(_SX, GR_I), (_XS, -GR_I)])
    if which == I_X_S:
        return Polynomial([(_XS, GR_I), (_SX, -GR_I)])
    raise DomainError(f"which must be {I_S_X!r} or {I_X_S!r}, got {which!r}")


def sum_with_commutator() -> Polynomial:
    """s + i[s,x]."""
    return Polynomial.from_word(S) + commutator_polynomial(I_S_X)


def perturbed_partner() -> Polynomial:
    """x + i[x,s]."""
    return Polynomial.from_word(X) + commutator_polynomial(I_X_S)


@dataclass(frozen=True)
class DistributionPair:
    """The standing data: cumulants of s (semicircular by default) and of a
    free partner x."""

    dist_s: CumulantSequence
    dist_x: CumulantSequence

    @classmethod
    def standard(cls, dist_x: CumulantSequence, s_variance, max_order: int) -> "DistributionPair":
        """x with a semicircular s whose cumulants run to ``max_order``."""
        return cls(CumulantSequence.semicircular(s_variance, max_order), dist_x)


@dataclass(frozen=True)
class AdditivityReport:
    """One order of the additivity comparison."""

    n: int
    lhs: Fraction
    rhs_s: Fraction
    rhs_c: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs_s + self.rhs_c

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lhs": format_rational(self.lhs),
            "rhs_s": format_rational(self.rhs_s),
            "rhs_c": format_rational(self.rhs_c),
            "holds": self.holds,
        }


def cumulant_sequence_of(p: Polynomial, pair: DistributionPair, order: int) -> CumulantSequence:
    """kappa_1..kappa_order of a polynomial linear in s, by inverting its
    moments from the B-valued recursion (:func:`polynomial_moments`).

    Imaginary parts must vanish for self-adjoint input; a violation is an
    engine bug, not a data error.
    """
    moments = polynomial_moments(p, pair.dist_s, pair.dist_x, order)
    return cumulants_from_moments(moments, order)


def verify_additivity(pair: DistributionPair, order: int) -> list[AdditivityReport]:
    """Compare kappa_n(s + i[s,x]) with kappa_n(s) + kappa_n(i[s,x]) for
    n = 1..order.

    With a non-semicircular s the comparison still runs (exploratory mode);
    ``pair.dist_s.is_semicircular`` says which mode ran.
    """
    lhs = cumulant_sequence_of(sum_with_commutator(), pair, order)
    rhs_c = cumulant_sequence_of(commutator_polynomial(I_S_X), pair, order)
    return [
        AdditivityReport(
            n=n,
            lhs=lhs.kappa(n),
            rhs_s=pair.dist_s.kappa(n),
            rhs_c=rhs_c.kappa(n),
        )
        for n in range(1, order + 1)
    ]


def freeness_witness(pair: DistributionPair) -> Fraction:
    """kappa_4(s, i[s,x], i[s,x], s): zero for a genuinely free pair, equal
    to kappa_2(s)^2 kappa_2(x) here, hence positive whenever both variances
    are — the witness that s and i[s,x] are not free."""
    s = Polynomial.from_word(S)
    c = commutator_polynomial(I_S_X)
    value = cumulant_of_polynomials([s, c, c, s], pair.dist_s, pair.dist_x)
    if value.im:
        raise EngineConsistencyError(f"self-adjoint input gave imaginary part {value.im}")
    return value.re


def cancellation_sums(pair: DistributionPair, order: int) -> list[list[Fraction]]:
    """For n = 1..order, the coefficients c_(n,0)..c_(n,n) of t^0..t^n in
    kappa_n(s + t(sx - xs)), whose t^k coefficient is the double sum of
    :func:`cancellation_sum`.  Any s is accepted.

    A t^k term has n letters s and k letters x, so with x' = T x the
    cumulant kappa_n(s + sx' - x's) is sum_k c_(n,k) T^k, and D_n =
    (d_s d_x)^n, with the :func:`dilation` of each cumulant list, makes
    every D_n c_(n,k) an integer.  Each c_(n,k) sums block products of
    cumulants over the partitions that join its words, so |c_(n,k)| is at
    most kappa_n(s + sx + xs) over the absolute values of the cumulants: the
    same products over the same partitions, none of them signed.  With T =
    2^K above twice every D_n times that bound, the D_n c_(n,k) are the
    balanced base-T digits of D_n kappa_n(s + sx' - x's).  One pass of
    :func:`polynomial_moments` gives the bound and one the value."""
    s, x = pair.dist_s, pair.dist_x
    unsigned = [CumulantSequence([abs(v) for v in dist.values]) for dist in (s, x)]
    bound = cumulants_from_moments(polynomial_moments(
        Polynomial([(S, GR_ONE), (_SX, GR_ONE), (_XS, GR_ONE)]), *unsigned, order), order)
    d = math.prod(dilation([1, *(v.denominator for v in dist.values[:order])])
                  for dist in (s, x))
    shift = max(d ** n * b.numerator // b.denominator
                for n, b in enumerate(bound.values, start=1)).bit_length() + 1
    big_t, half = 1 << shift, 1 << shift - 1
    values = cumulants_from_moments(polynomial_moments(
        Polynomial([(S, GR_ONE), (_SX, GR_ONE), (_XS, -GR_ONE)]), s, x.dilated(big_t), order),
        order).values
    sums = []
    for n, value in enumerate(values, start=1):
        rest = value * d ** n
        if rest.denominator != 1:
            raise EngineConsistencyError(f"D_{n} kappa_{n} is not an integer: {rest}")
        rest, digits = rest.numerator, []
        for _ in range(n + 1):
            digit = (rest + half) % big_t - half
            digits.append(Fraction(digit, d ** n))
            rest = (rest - digit) >> shift
        if rest:
            raise EngineConsistencyError(f"kappa_{n} has digits past t^{n}")
        sums.append(digits)
    return sums


def cancellation_sum(n: int, k: int, pair: DistributionPair) -> GaussianRational:
    """The signed double sum over |B| = k and D subset of B of
    (-1)^|D| kappa_n(sx on B\\D, xs on D, s elsewhere); identically zero for
    semicircular s, which is exactly what makes the additivity work.  By
    multilinearity it is the t^k coefficient of kappa_n(s + t(sx - xs)),
    read from :func:`cancellation_sums`."""
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    if not pair.dist_s.is_semicircular:
        raise DomainError("cancellation_sum requires a semicircular s")
    return GaussianRational(cancellation_sums(pair, n)[n - 1][k])


def closed_form_cumulants(order: int, dist_x: CumulantSequence) -> list[Fraction]:
    """kappa_1..kappa_order(x + i[x,s]) for standard semicircular s
    (variance 1), by the combinatorial closed form: kappa_n(x) plus, over
    the compositions of n into parts >= 2 and the non-crossing partitions of
    their parts, the first part times the product over blocks of the x
    cumulants at the summed part sizes.  That is the first-block sum of the
    :func:`composition_series` of the x cumulants with weight a/b times
    C(a-b-1, b-1): over the C(a-b-1, b-1) layouts of the first block, its
    first part sums to a/b times their count.  By C(a-b-1, b-1) + C(a-b, b)
    = (a/b) C(a-b-1, b-1) that weight is an integer, so ``//`` is exact, and
    it is the series' own weight plus the C(a-c, c) at c = b of
    :func:`.fock.composition_formula_cumulants`: hence the two sums agree
    when the x cumulants are the moments of its driving measure.  O(order^3)."""
    kappas, d = dilate([Fraction(0)] + [dist_x.kappa(k) for k in range(1, order + 1)])
    _series, sums = composition_series(
        kappas, order, lambda a, b: a * math.comb(a - b - 1, b - 1) // b)
    return [Fraction(kappas[n] + sums[n], d ** n) for n in range(1, order + 1)]


def closed_form_cumulant(n: int, dist_x: CumulantSequence) -> Fraction:
    """kappa_n(x + i[x,s]) alone; see :func:`closed_form_cumulants`."""
    return closed_form_cumulants(n, dist_x)[-1]


def expansion_cumulant(n: int, dist_x: CumulantSequence, s_variance=1) -> Fraction:
    """kappa_n(x + i[x,s]) inverted from its moments by the B-valued
    recursion over the law of s (:func:`cumulant_sequence_of`) — the
    independent oracle for :func:`closed_form_cumulant`; exposes the s
    variance, which the closed form normalizes to 1."""
    pair = DistributionPair.standard(dist_x, s_variance, max_order=n)
    return cumulant_sequence_of(perturbed_partner(), pair, n).kappa(n)

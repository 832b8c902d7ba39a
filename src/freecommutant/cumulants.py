"""Exact free-cumulant calculus for words and polynomials in two letters.

The letters are ``s`` and ``x``, modelling two freely independent variables;
every value is an exact rational.  Inside the loops the arithmetic is on
integers: the transforms, the composition series, the joint cumulants and
the moment engine work on sequences dilated by one factor (:func:`dilate`),
and ``Fraction`` appears only where values come in and where each output is
divided once.
Sequences come in two types, cumulants and moments, related by O(N^3)
first-block transforms, except that a measure of r atoms gives its
cumulants in O(rN^2) from the equation of its R-transform; one moment type
serves a law and the driving measure of the operator model.  Joint
cumulants of word products sum block products of single-variable
cumulants over the non-crossing partitions whose join with
the word-grouping interval partition is full — the products-as-arguments
formula — by a first-block recursion over the gaps of the first letter's
block, each gap again a joint cumulant of word products.  Moments of a
whole polynomial linear in s come instead from a first-block recursion
with values in B = C[x]: s is free from B, so its B-valued cumulants are
its scalar ones, and the recursion needs neither the multilinear expansion
nor any partition enumeration.  It is the package's one moment engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DomainError,
    EngineConsistencyError,
    SizeLimitError,
    TruncationError,
)

S = "s"
X = "x"
_ALPHABET = frozenset((S, X))

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"not an exact rational: {value!r}")


def dilation(denominators: Sequence[int]) -> int:
    """A d with d^k divisible by ``denominators[k]`` for every k; the first
    must be 1.  Grown a factor at a time, by what d^k still lacks."""
    d = 1
    for k, den in enumerate(denominators):
        d *= den // math.gcd(d ** k, den)
    return d


def dilate(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers d^k values[k], and d (see :func:`dilation`).  A sum of
    products of values whose indices add up to n is then d^n times the same
    sum over the integers, so a recursion homogeneous in the index runs on
    ints and divides by d^n once per output."""
    d = dilation([v.denominator for v in values])
    return [v.numerator * (d ** k // v.denominator) for k, v in enumerate(values)], d


def format_rational(value: Fraction) -> str:
    """Render as 'p' or 'p/q'; the only numeric format the package emits.
    A value whose numerator or denominator is longer than the interpreter's
    integer-to-string limit cannot be printed and is refused."""
    try:
        return str(value)
    except ValueError as exc:
        raise SizeLimitError(
            f"a result has more than {sys.get_int_max_str_digits()} digits"
            " and cannot be printed exactly") from exc


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i): exact real and imaginary rational parts."""

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        f = as_fraction(other)
        return GaussianRational(self.re * f, self.im * f)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        return f"{format_rational(self.re)}{'+' if self.im >= 0 else ''}{format_rational(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(_ONE)
GR_I = GaussianRational(_ZERO, _ONE)


def _atom_integers(atoms: Sequence[tuple]) -> tuple[list[int], list[int], int, int]:
    """u, alpha, W, q with weights u_i/W and atoms alpha_i/q of (weight,
    atom) pairs, refused unless they make a probability measure."""
    pairs = [(as_fraction(w), as_fraction(a)) for w, a in atoms]
    if not pairs or any(w <= 0 for w, _ in pairs):
        raise DomainError("atom weights must be positive")
    big_w = math.lcm(*(w.denominator for w, _ in pairs))
    q = math.lcm(*(a.denominator for _, a in pairs))
    us = [w.numerator * (big_w // w.denominator) for w, _ in pairs]
    if sum(us) != big_w:
        raise DomainError("atom weights must sum to 1")
    return us, [a.numerator * (q // a.denominator) for _, a in pairs], big_w, q


@dataclass(frozen=True, slots=True)
class CumulantSequence:
    """Free cumulants kappa_1..kappa_N of one distribution, exact rationals.

    Purely formal: no positivity is assumed anywhere.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))

    @property
    def max_order(self) -> int:
        return len(self.values)

    def kappa(self, k: int) -> Fraction:
        if not 1 <= k <= len(self.values):
            raise TruncationError(
                f"kappa_{k} requested but sequence holds orders 1..{len(self.values)}"
            )
        return self.values[k - 1]

    @property
    def is_semicircular(self) -> bool:
        """Only the second cumulant may be nonzero."""
        return all(v == 0 for k, v in enumerate(self.values, start=1) if k != 2)

    @classmethod
    def semicircular(cls, variance, order: int) -> "CumulantSequence":
        v = as_fraction(variance)
        return cls([v if k == 2 else 0 for k in range(1, order + 1)])

    @classmethod
    def free_poisson(cls, rate, order: int) -> "CumulantSequence":
        r = as_fraction(rate)
        return cls([r] * order)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple], order: int) -> "CumulantSequence":
        """Cumulants of a finite atomic probability measure from its R-transform.

        For r atoms, M(z) = P(z)/Q(z) with Q = prod_i (1 - a_i z) and P =
        sum_i w_i Q/(1 - a_i z).  With z = y/C(y) from M(z) = C(zM(z))
        (Nica-Speicher 2006), yQ(z) = zP(z) times C^r/y reads
        sum_(j<=r) q_j y^j C^(r-j) = sum_(j<r) p_j y^j C^(r-1-j), q_0 = p_0 = 1.
        kappa_n enters its y^n coefficient only through C^r and C^(r-1), as
        r kappa_n - (r-1) kappa_n: it is minus the rest, with no division.
        For weights u_i/W, atoms alpha_i/q and d = qW, d^j q_j and W d^j p_j
        are the z^j coefficients of prod (1 - W alpha_i z) and sum_i u_i
        prod_(k!=i) (1 - W alpha_k z), integers, the second divisible by W
        (at z^0 it is sum u_i = W, at z^j a multiple of W^j), so the recursion
        runs on d^n kappa_n (:func:`dilate`).  Q and P to degree min(r, N), P
        by synthetic division, cost O(rN); C^2..C^r, one convolution each per
        order, O(rN^2), for N = ``order``.
        """
        us, alphas, big_w, q = _atom_integers(atoms)
        r, top = len(us), min(len(us), order)
        q_dil, p_dil = [1] + [0] * top, [0] * (top + 1)
        for alpha in alphas:
            for j in range(top, 0, -1):
                q_dil[j] -= big_w * alpha * q_dil[j - 1]
        for u, alpha in zip(us, alphas):
            for j, c in enumerate(itertools.accumulate(q_dil, lambda b, c: c + big_w * alpha * b)):
                p_dil[j] += u * c
        p_dil = [c // big_w for c in p_dil]
        powers = [[1] for _ in range(r + 1)]  # [k][m]: d^m [y^m] C^k; [1]: the d^m kappa_m
        values = []
        for n in range(1, order + 1):
            rest = [0, 0]  # d^n [y^n] C^k with kappa_n set to 0
            for row in powers[1:r]:
                rest.append(rest[-1] + sum(map(operator.mul, powers[1][1:], row[:0:-1])))
            kappa_n = rest[r - 1] - rest[r] + sum(
                p_dil[j] * powers[r - 1 - j][n - j] - q_dil[j] * powers[r - j][n - j]
                for j in range(1, min(r, n) + 1))
            for k, row in enumerate(powers):
                row.append(rest[k] + k * kappa_n)
            values.append(Fraction(kappa_n, (big_w * q) ** n))
        return cls(values)

    def dilated(self, c) -> "CumulantSequence":
        """Cumulants of the dilation by c: kappa_k -> c^k kappa_k."""
        f = as_fraction(c)
        return CumulantSequence([v * f ** k for k, v in enumerate(self.values, start=1)])

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.values]

    def __repr__(self) -> str:
        return f"CumulantSequence({[str(v) for v in self.values]})"


@dataclass(frozen=True, slots=True)
class MomentSequence:
    """Moments m_0..m_N with m_0 = 1, exact rationals."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.values)
        if not vals or vals[0] != 1:
            raise DomainError("moment sequence must start with m_0 = 1")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple], order: int) -> "MomentSequence":
        """Moments m_0..m_order of a finite atomic probability measure, given
        as (weight, atom) pairs.  With weights u_i/W and atoms alpha_i/q,
        m_k = sum u_i alpha_i^k / (W q^k)."""
        us, alphas, big_w, q = _atom_integers(atoms)
        return cls([Fraction(sum(u * a ** k for u, a in zip(us, alphas)), big_w * q ** k)
                    for k in range(order + 1)])

    @property
    def max_order(self) -> int:
        return len(self.values) - 1

    def moment(self, k: int) -> Fraction:
        if not 0 <= k <= self.max_order:
            raise TruncationError(
                f"m_{k} requested but sequence holds orders 0..{self.max_order}"
            )
        return self.values[k]

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.values]

    def __repr__(self) -> str:
        return f"MomentSequence({[str(v) for v in self.values]})"


def _extend_powers(powers: list[list[int]], m: list[int], n: int, rows: int) -> None:
    """Add rows 1..rows of the diagonal k + j = n to the table
    powers[k][j] = [z^j] M(z)^k, where M(z) = sum_t m_t z^t over integers.

    Each new entry is one convolution of the moments with the row below,
    [z^j] M^k = sum_t m_t [z^(j-t)] M^(k-1), which only needs m_0..m_(n-1)
    and diagonals below n; row n starts at [z^0] M^n = 1.  A row left out
    of a diagonal must be left out of every later one.
    """
    powers[0].append(0)
    for k in range(1, min(n, rows + 1)):
        j = n - k
        powers[k].append(sum(map(operator.mul, m[:j + 1], powers[k - 1][j::-1])))
    powers.append([1])


def composition_series(values: Sequence[int], order: int, weight: Callable[[int, int], int]
                       ) -> tuple[list[int], list[int]]:
    """F_0..F_order of F(z) = sum_n F_n z^n, and S_0 = 0, S_1..S_order with
    S_n = sum_(b>=1) sum_(a=2b..n) values[a] weight(a, b) [z^(n-a)] F^b: a
    first block of b parts of total a, laid out in weight(a, b) ways, with F
    in its gaps.

    F_0 = 1, and F_n sums, over the compositions of n into parts >= 2 and
    the non-crossing partitions of their parts, the product over blocks of
    ``values`` at the block's summed part size: the same first-block sum
    with weight C(a-b-1, b-1), the layouts of the first part's block, and
    the same kind of configuration in each gap (Nica-Speicher, Lectures
    10-11).  Each weight is taken once, into a row values[a] weight(a, b)
    for a = 2b..order per b, so each sum is one dot product per b with the
    table [z^j] F^b, which no caller sees.  Integers in, integers out: F_n
    is homogeneous of degree n in the index, so the values of a
    :func:`dilate` give the F_n, and with an integer weight the S_n, of the
    rationals dilated.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    blocks = range(1, order // 2 + 1)
    own = [[values[a] * math.comb(a - b - 1, b - 1) for a in range(2 * b, order + 1)]
           for b in blocks]
    rows = [[values[a] * weight(a, b) for a in range(2 * b, order + 1)] for b in blocks]
    series, sums = [1], [0]
    powers: list[list[int]] = [[1]]
    for n in range(1, order + 1):
        f = s = 0
        for b in range(1, n // 2 + 1):
            # [z^(n-a)] F^b for a = 2b..n, on diagonals < n; map stops at a = n
            column = powers[b][n - 2 * b::-1]
            f += sum(map(operator.mul, own[b - 1], column))
            s += sum(map(operator.mul, rows[b - 1], column))
        series.append(f)
        sums.append(s)
        # row k is read at columns j <= order - 2k, on diagonals <= order - k
        _extend_powers(powers, series, n, order - n)
    return series, sums


def moments_from_cumulants(seq: CumulantSequence, order: int) -> MomentSequence:
    """Moments of the distribution with the given free cumulants.

    Uses the first-block recursion over non-crossing partitions,
    m_n = sum_k kappa_k [z^(n-k)] M(z)^k: the block of 1 has k elements and
    its k gaps hold arbitrary partitions.  The power table is extended by
    one diagonal per new moment, so the whole sequence costs O(order^3).
    m_n has degree n in the index, so the recursion runs on the integers of
    :func:`dilate`.
    """
    if order > seq.max_order:
        raise TruncationError(f"need cumulants to order {order}, have {seq.max_order}")
    kappas, d = dilate((_ZERO,) + seq.values[:order])
    return MomentSequence([Fraction(v, d ** n) for n, v in enumerate(_moments_of(kappas, order))])


def _moments_of(kappas: Sequence[int], order: int) -> list[int]:
    """The integer m_0..m_order of :func:`moments_from_cumulants` from
    cumulants dilated by d (``kappas[0]`` is unused): d^n m_n."""
    m = [1]
    powers: list[list[int]] = [[1]]
    for n in range(1, order + 1):
        _extend_powers(powers, m, n, n - 1)
        m.append(sum(kappas[k] * powers[k][n - k] for k in range(1, n + 1)))
    return m


def cumulants_from_moments(mseq: MomentSequence, order: int) -> CumulantSequence:
    """Exact inverse of :func:`moments_from_cumulants`: the same recursion
    solved for its last term, kappa_n = m_n - sum_(k<n) kappa_k [z^(n-k)] M(z)^k,
    with the power table extended by one diagonal per order (O(order^3)),
    over the integers of :func:`dilate`."""
    if order > mseq.max_order:
        raise TruncationError(f"need moments to order {order}, have {mseq.max_order}")
    m, d = dilate(mseq.values[:order + 1])
    powers: list[list[int]] = [[1]]
    kappas = [0]
    for n in range(1, order + 1):
        _extend_powers(powers, m, n, n - 1)
        kappas.append(m[n] - sum(kappas[k] * powers[k][n - k] for k in range(1, n)))
    return CumulantSequence([Fraction(v, d ** n) for n, v in enumerate(kappas[1:], start=1)])


def _check_word(word: str) -> None:
    if not word or any(c not in _ALPHABET for c in word):
        raise DomainError(f"words are nonempty strings over {{'s','x'}}, got {word!r}")


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Gaussian-rational combination of words in s and x plus a constant.

    Terms are kept sorted by word with zero coefficients dropped, so equality
    and hashing are canonical.
    """

    terms: tuple[tuple[str, GaussianRational], ...] = ()
    constant: GaussianRational = GR_ZERO

    def __post_init__(self):
        merged: dict[str, GaussianRational] = {}
        for word, coeff in self.terms:
            _check_word(word)
            merged[word] = merged.get(word, GR_ZERO) + coeff
        object.__setattr__(
            self, "terms", tuple(sorted((w, c) for w, c in merged.items() if c)))

    @classmethod
    def from_word(cls, word: str, coeff: GaussianRational = GR_ONE) -> "Polynomial":
        return cls([(word, coeff)])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.terms + other.terms, self.constant + other.constant)

    def adjoint(self) -> "Polynomial":
        """Reverse every word and conjugate every coefficient."""
        return Polynomial(
            [(w[::-1], c.conjugate()) for w, c in self.terms],
            self.constant.conjugate(),
        )

    @property
    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    def __repr__(self) -> str:
        parts = [f"({c})*{w}" for w, c in self.terms]
        if self.constant:
            parts.append(f"({self.constant})")
        return " + ".join(parts) if parts else "0"


def _kappa_table(dist: CumulantSequence, count: int, what: str) -> list[Fraction]:
    if count > dist.max_order:
        raise TruncationError(
            f"{count} letters '{what}' but cumulants available only to order {dist.max_order}"
        )
    return [_ZERO, *dist.values[:count]]


def _joined_cumulant(words: tuple[str, ...],
                     dist_s: CumulantSequence, dist_x: CumulantSequence) -> Fraction:
    """First-block recursion for the joint cumulant of word products.

    The block B = {0 = b_1 < ... < b_k} of the first letter holds that
    letter only and contributes its kappa_k; the rest of a joining
    partition lies in the gaps of B, read cyclically, and each gap (p, q)
    contributes on its own.  Inside one word it holds any non-crossing
    partition of letters p+1..q-1: their moment.  Otherwise its words must
    join B through its two end fragments, which B already joins, so by
    traciality the gap is the joint cumulant of its whole words followed by
    one word, the fragment before q then the one after p; with that word
    empty it is 1 for an empty gap and 0 otherwise.  The sum over B runs
    over its last member and size.  The letters are dilated separately
    (:func:`dilate`), so the recursion runs on integers and the value is
    divided once by d_s^(#s) d_x^(#x).
    """
    letters = "".join(words)
    kappas, scale = {}, 1
    for letter, dist in ((S, dist_s), (X, dist_x)):
        count = letters.count(letter)
        kappas[letter], d = dilate(_kappa_table(dist, count, letter))
        scale *= d ** count

    @functools.cache
    def joint(tup: tuple[str, ...]) -> int:
        text = "".join(tup)
        n = len(text)
        bounds = list(itertools.accumulate(map(len, tup), initial=0))
        word = [g for g, w in enumerate(tup) for _ in w] + [len(tup)]  # n: a word of its own

        def gap(p: int, q: int) -> int:
            a, b = word[p], word[q]
            if a == b:
                return joint((text[p + 1:q],)) if q > p + 1 else 1
            inner = tup[a + 1:b]
            joined = text[bounds[b]:q] + text[p + 1:bounds[a + 1]]
            if not joined:
                return 0 if inner else 1
            return joint(inner + (joined,))

        members = [p for p in range(n) if text[p] == text[0]]
        # chains[i][k]: the gap products of the blocks of k + 1 members ending at members[i]
        chains = [[1]]
        for i in range(1, len(members)):
            row = [0] * (i + 1)
            for j in range(i):
                g = gap(members[j], members[i])
                if g:
                    for k, v in enumerate(chains[j]):
                        row[k + 1] += v * g
            chains.append(row)
        kappa = kappas[text[0]]
        total = 0
        for p, row in zip(members, chains):
            g = gap(p, n)
            if g:
                total += g * sum(map(operator.mul, row, kappa[1:]))
        return total

    return Fraction(joint(words), scale)


def cumulant_of_word_products(words: Sequence[str],
                              dist_s: CumulantSequence, dist_x: CumulantSequence) -> Fraction:
    """Joint cumulant of the products spelled by ``words``: the sum of the
    block products of cumulants over the non-crossing partitions of the
    letter positions whose join with the word-grouping interval partition is
    the one-block partition, by :func:`_joined_cumulant`."""
    tup = tuple(words)
    if not tup:
        raise DomainError("need at least one word")
    for w in tup:
        _check_word(w)
    return _joined_cumulant(tup, dist_s, dist_x)


def _canonical_rotation(words: tuple[str, ...]) -> tuple[str, ...]:
    return min(words[r:] + words[:r] for r in range(len(words)))


def cumulant_of_polynomials(args: Sequence[Polynomial],
                            dist_s: CumulantSequence, dist_x: CumulantSequence
                            ) -> GaussianRational:
    """Multilinear cumulant of polynomial arguments, one per slot.

    Constants contribute only to the first-order cumulant (higher cumulants
    are shift-invariant, so constant parts are dropped for n >= 2).  Word
    tuples are grouped under cyclic rotation — joint cumulants of a trace are
    rotation-invariant — before the grouped sums are evaluated.
    """
    polys = list(args)
    if not polys:
        raise DomainError("need at least one argument slot")
    grouped: dict[tuple[str, ...], GaussianRational] = {}
    for choice in itertools.product(*(p.terms for p in polys)):
        coeff = GR_ONE
        for _w, c in choice:
            coeff = coeff * c
        key = _canonical_rotation(tuple(w for w, _c in choice))
        prev = grouped.get(key)
        grouped[key] = coeff if prev is None else prev + coeff
    total = polys[0].constant if len(polys) == 1 else GR_ZERO
    for words, coeff in grouped.items():
        if not coeff:
            continue
        val = cumulant_of_word_products(words, dist_s, dist_x)
        if val:
            total = total + coeff * val
    return total


def _mul_into(acc: dict, a: dict, b: dict, scale: int = 1, phi: Sequence[int] = ()) -> dict:
    """acc += scale * a * b for polynomials in x over the Gaussian integers,
    held as dicts from the degree of x to (re, im).  With ``phi``, x^d of
    the product pairs to the scalar phi[d], kept at degree 0."""
    for ka, (ar, ai) in a.items():
        ar, ai = ar * scale, ai * scale
        for kb, (br, bi) in b.items():
            key, f = ka + kb, 1
            if phi:
                key, f = 0, phi[key]
            re, im = (ar * br - ai * bi) * f, (ar * bi + ai * br) * f
            o = acc.get(key)
            acc[key] = (re, im) if o is None else (o[0] + re, o[1] + im)
    return acc


def polynomial_moments(p: Polynomial, dist_s: CumulantSequence, dist_x: CumulantSequence,
                       order: int) -> MomentSequence:
    """Moments m_0..m_order of ``p`` with s and x free.  A word with two or
    more s is refused; :func:`cumulant_of_polynomials` takes any polynomial.
    A non-real moment is an engine bug for self-adjoint ``p`` and a domain
    error otherwise.

    Over B = C[x], p = b_0 + sum_j u_j s v_j with u_j = x^(a_j) for the
    distinct a of the words x^a s x^b.  s is free from B, so its B-valued
    cumulants are kappa_k(s) phi(b_1)...phi(b_(k-1)), and the first-block
    recursion reads M_0 = 1, M_n = b_0 M_(n-1) + sum_(a<=n) sum_(j,l)
    (R_a)_jl u_j v_l M_(n-a), R_a = sum_k kappa_k(s) [z^(a-k)] c(z)^(k-1),
    (c_g)_jl = phi(v_j M_g u_l) and m_n = phi(M_n), where phi(x^d) =
    m_d(x).  Powers of c(z) are kept below the last nonzero kappa_k(s).
    x and s are dilated by the d of their cumulants (:func:`dilate`) and p
    scaled by a common denominator L, so the recursion runs on Gaussian
    integers and m_n is divided by L^n once.  Cumulants of x are read to
    (most x in one term) * order, of s to order.
    """
    terms = [(w, c) for w, c in p.terms + (("", p.constant),) if c]
    most_s = max((w.count(S) for w, _c in terms), default=0)
    if most_s > 1:
        raise DomainError(f"the moment engine takes polynomials linear in s, not {most_s}"
                          " copies in one word; cumulant_of_polynomials takes any polynomial")
    most_x = max((w.count(X) for w, _c in terms), default=0)
    ks, d_s = dilate(_kappa_table(dist_s, most_s * order, S))
    kx, d_x = dilate(_kappa_table(dist_x, most_x * order, X))
    phi = _moments_of(kx, most_x * order)
    # p in x' = d_x x and s' = d_s s, times lcd, has Gaussian integer coefficients
    lcd = math.lcm(*(f.denominator for _w, c in terms for f in (c.re, c.im)))
    lcd *= d_x ** most_x * d_s ** most_s
    b_0: dict = {}
    v: dict[int, dict] = {}
    for w, c in terms:
        lift = lcd // (d_x ** w.count(X) * d_s ** w.count(S))
        a = w.find(S)  # w = x^a s x^b, or x^b with a = -1
        (b_0 if a < 0 else v.setdefault(a, {}))[len(w) - a - 1] = (
            c.re.numerator * lift // c.re.denominator, c.im.numerator * lift // c.im.denominator)
    r = len(v)
    uv = [[{a + key: c for key, c in v_l.items()} for v_l in v.values()] for a in v]
    pairs = [(j, l) for j in range(r) for l in range(r)]
    kmax = max((k for k, value in enumerate(ks) if value), default=0)
    one = {0: (1, 0)}
    gaps: list[list[list[dict]]] = []  # c_0, c_1, ...
    powers = [gaps, *([] for _ in range(kmax - 2))]  # [z^j] c(z)^k at [k - 1][j]
    big_m, q, moments = [one], [{}], [_ONE]
    for n in range(1, order + 1):
        if n >= 2:
            gaps.append([[_mul_into({}, uv[l][j], big_m[n - 2], 1, phi)
                          for l in range(r)] for j in range(r)])
            for k in range(2, min(kmax, n)):
                entry = [[{} for _ in range(r)] for _ in range(r)]
                for h, (j, l), i in itertools.product(range(n - k), pairs, range(r)):
                    _mul_into(entry[j][l], gaps[h][j][i], powers[k - 2][n - 1 - k - h][i][l])
                powers[k - 1].append(entry)
        q.append(dict(b_0) if n == 1 else {})  # the first factor alone: b_0, or s
        for j in range(r) if n == 1 and kmax and ks[1] else ():
            _mul_into(q[1], one, uv[j][j], ks[1])
        for k in range(2, min(kmax, n) + 1):
            for j, l in pairs if ks[k] else ():
                _mul_into(q[n], powers[k - 2][n - k][j][l], uv[j][l], ks[k])
        m_n: dict = {}
        for a in range(1, n + 1):
            _mul_into(m_n, q[a], big_m[n - a])
        big_m.append({key: c for key, c in m_n.items() if c[0] or c[1]})
        re, im = _mul_into({}, one, m_n, 1, phi).get(0, (0, 0))
        if im:
            im = Fraction(im, lcd ** n)
            if p.is_self_adjoint:
                raise EngineConsistencyError(
                    f"self-adjoint input produced imaginary moment part {im} at m_{n}")
            raise DomainError(f"moment m_{n} is not real: imaginary part {im}")
        moments.append(Fraction(re, lcd ** n))
    return MomentSequence(moments)

"""Enumerating oracles for the partition computations of the package.

``closed_form_cumulants`` and ``composition_formula_cumulants`` compute the
two partition sums of x + i[x,s] by first-block recursions, and
``cumulant_of_word_products`` sums over the joining partitions by a
recursion over the gaps of the first letter's block; the functions here
enumerate the partitions themselves, one at a time, so each pair of routes
shares nothing but the moment and cumulant inputs.  The NC(k) families
grow like the Catalan numbers: keep n at 14 or below.  ``join`` builds the
lattice join that ``joins_to_full`` decides without materializing.
``vacuum_moments_by_apply`` walks the operator model on ``FockVector``
states of ``Fraction`` coefficients, through ``apply`` and
``inner_product``: the oracle of the model's two-level recursion.
``adjointness_by_fractions`` checks adjointness on seeded random
``Fraction`` states over the moments of one measure: the sampled oracle of
``verify_adjointness``, which decides it for every moment sequence;
``adjoint_pairs_by_exhaustion`` decides it over every small basis tensor,
the oracle of the reduction that lets ``verify_adjointness`` check few.
``fock_graded_moments`` is Voiculescu's canonical model of an R-transform on
the full Fock space over {s, x}, graded by the powers of a parameter t: the
oracle of ``polynomial_moments``, which it accepts any polynomial for, not
only those linear in s.  With ``cumulants_in_t``, the moment-cumulant
recursion over polynomials in t, it gives ``fock_cancellation_sums``, the
oracle of ``cancellation_sums``.
``moments_of_atoms`` sums one ``Fraction`` power per atom and order: the
oracle of ``MomentSequence.from_atoms``, which works over integers.
``boxplus`` is free additive convolution as the entrywise sum of cumulants,
and ``assign_by_blocks`` fills a tuple cyclically along the blocks of a
partition (acceptance criterion 7).
The tests build their states with ``fock_vector`` and sum them with ``add``;
``gaussian`` builds a ``GaussianRational`` and ``scaled`` multiplies a
``Polynomial`` by a coefficient.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from freecommutant.cumulants import (
    _ALPHABET,
    GR_ONE,
    S,
    X,
    CumulantSequence,
    GaussianRational,
    MomentSequence,
    Polynomial,
    _kappa_table,
    as_fraction,
    dilation,
)
from freecommutant.errors import DomainError, GroundSetError, KindError, TruncationError
from freecommutant.fock import (
    FockVector,
    OperatorName,
    apply,
    inner_product,
)
from freecommutant.partitions import Partition, PartitionKind, is_noncrossing, iter_partitions


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition refined by neither: connected components of the two
    block systems glued together."""
    if p.n != q.n:
        raise GroundSetError(f"join over mismatched ground sets: {p.n} vs {q.n}")
    parent = list(range(p.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in (p, q):
        for b in part.blocks:
            r = find(b[0])
            for e in b[1:]:
                parent[find(e)] = r
    groups: dict[int, list[int]] = {}
    for e in range(1, p.n + 1):
        groups.setdefault(find(e), []).append(e)
    return Partition(p.n, groups.values())


def joins_to_full(p: Partition, q: Partition) -> bool:
    """Whether join(p, q) is the one-block partition; short-circuits through
    union-find without materializing the join."""
    if p.n != q.n:
        raise GroundSetError(f"join over mismatched ground sets: {p.n} vs {q.n}")
    parent = list(range(p.n + 1))
    remaining = p.n

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in (p, q):
        for b in part.blocks:
            r = find(b[0])
            for e in b[1:]:
                re = find(e)
                if re != r:
                    parent[re] = r
                    remaining -= 1
                    if remaining == 1:
                        return True
    return remaining == 1


def kappa_block(letters: str, dist_s: CumulantSequence, dist_x: CumulantSequence) -> Fraction:
    """Cumulant of one block: zero when mixed, else the matching variable's
    cumulant at the block size."""
    if S in letters and X in letters:
        return Fraction(0)
    dist = dist_s if letters[0] == S else dist_x
    return dist.kappa(len(letters))


def kappa_pi(pi: Partition, letters: str,
             dist_s: CumulantSequence, dist_x: CumulantSequence) -> Fraction:
    """Block-multiplicative extension of :func:`kappa_block` over a
    non-crossing partition."""
    if pi.n != len(letters):
        raise GroundSetError(f"partition of {pi.n} against {len(letters)} letters")
    if not is_noncrossing(pi):
        raise KindError(f"kappa_pi is defined on non-crossing partitions only: {pi!r}")
    prod = Fraction(1)
    for b in pi.blocks:
        kv = kappa_block("".join(letters[e - 1] for e in b), dist_s, dist_x)
        if kv == 0:
            return Fraction(0)
        prod *= kv
    return prod


def grouping_partition(word_lengths: Sequence[int]) -> Partition:
    """The interval partition of the letter positions into words."""
    blocks = []
    start = 1
    for size in word_lengths:
        blocks.append(range(start, start + size))
        start += size
    return Partition(start - 1, blocks)


def joined_cumulant_naive(words: tuple[str, ...],
                          dist_s: CumulantSequence, dist_x: CumulantSequence) -> Fraction:
    """Joint cumulant of the products spelled by ``words``: enumerate NC(L),
    filter by the join condition, and evaluate kappa_pi term by term.  Kept
    dumb on purpose."""
    letters = "".join(words)
    sigma_hat = grouping_partition([len(w) for w in words])
    total = Fraction(0)
    for pi in iter_partitions(len(letters), PartitionKind.NC):
        if joins_to_full(pi, sigma_hat):
            total += kappa_pi(pi, letters, dist_s, dist_x)
    return total


def enumerated_closed_form(n: int, dist_x: CumulantSequence) -> Fraction:
    """kappa_n(x + i[x,s]) for standard semicircular s: kappa_n(x) plus,
    over interval partitions of {1..n} with all blocks of size >= 2 and over
    non-crossing partitions of their block indices, the first-block size
    times the block-product of x cumulants of the merged partition.  A merged
    block's size is the sum of the sizes of the interval blocks it merges (as
    in :func:`freecommutant.partitions.compose_interval`); each NC(k) is
    enumerated once per call, and the products are taken over integers, one
    cumulant denominator per block."""
    if n < 1:
        raise DomainError(f"order must be positive, got {n}")
    kappas, den = over_common_denominator(
        [Fraction(0)] + [dist_x.kappa(k) for k in range(1, n + 1)])
    by_blocks = [0] * (n + 1)
    families: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    for sigma in iter_partitions(n, PartitionKind.INTERVAL_MIN2):
        sizes = [len(b) for b in sigma.blocks]
        k = len(sizes)
        family = families.get(k)
        if family is None:
            family = families[k] = [pi.blocks for pi in iter_partitions(k, PartitionKind.NC)]
        for blocks in family:
            prod = sizes[0]
            for v in blocks:
                prod *= kappas[sum(sizes[j - 1] for j in v)]
                if not prod:
                    break
            by_blocks[len(blocks)] += prod
    return dist_x.kappa(n) + sum(
        (Fraction(v, den ** b) for b, v in enumerate(by_blocks) if v), Fraction(0))


def _compositions(total: int, minima: Sequence[int]) -> Iterator[tuple[int, ...]]:
    if not minima:
        if total == 0:
            yield ()
        return
    head_min = minima[0]
    tail = minima[1:]
    tail_min = sum(tail)
    for head in range(head_min, total - tail_min + 1):
        for rest in _compositions(total - head, tail):
            yield (head,) + rest


def _composition_sum(n: int, minima: Sequence[int], kind: PartitionKind,
                     moments: list[int], by_blocks: list[int]) -> None:
    """Add to ``by_blocks[b]``, over compositions of n with the given part
    minima and the partitions of the part indices of ``kind`` that have b
    blocks, the products of ``moments`` at the summed part sizes of each
    block.  The partitions are enumerated once, not once per composition."""
    family = [[[j - 1 for j in b] for b in pi.blocks]
              for pi in iter_partitions(len(minima), kind)]
    for comp in _compositions(n, minima):
        for blocks in family:
            prod = 1
            for block in blocks:
                prod *= moments[sum(comp[j] for j in block)]
                if not prod:
                    break
            by_blocks[len(blocks)] += prod


def enumerated_composition_formula(n: int, rho: MomentSequence) -> Fraction:
    """kappa_n(x + i[x,s]) with kappa_m(x) = m_m(rho), by the sums over
    compositions of n: compositions whose outer parts may be single and
    inner parts are at least 2, paired with non-crossing partitions of the
    part indices joining first and last, plus compositions with all parts at
    least 2, paired with all non-crossing partitions.  Each block contributes
    the moment of Y at the summed part sizes."""
    if n < 1:
        raise DomainError(f"order must be positive, got {n}")
    moments, den = over_common_denominator([rho.moment(j) for j in range(n + 1)])
    by_blocks = [0] * (n + 1)
    for k in range(0, n // 2 + 1):
        minima = [1] + [2] * (k - 1) + [1] if k >= 1 else [1]
        _composition_sum(n, minima, PartitionKind.NC_IRREDUCIBLE, moments, by_blocks)
    for k in range(1, n // 2 + 1):
        _composition_sum(n, [2] * k, PartitionKind.NC, moments, by_blocks)
    return sum((Fraction(v, den ** b) for b, v in enumerate(by_blocks) if v), Fraction(0))


def fock_vector(pairs: Iterable[tuple]) -> FockVector:
    """The state of (tensor, coefficient) pairs: like terms merge,
    coefficients become ``Fraction`` and zeros drop.  A tensor that is not a
    nonempty tuple of nonnegative ints is a ``DomainError``."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for t, c in pairs:
        t = tuple(t)
        if not t or any(not isinstance(e, int) or e < 0 for e in t):
            raise DomainError(f"basis tensors are nonempty tuples of nonnegative ints, got {t!r}")
        acc[t] = acc.get(t, 0) + as_fraction(c)
    return FockVector({t: c for t, c in acc.items() if c})


def add(*states: FockVector) -> FockVector:
    """The sum of the states, as a :func:`fock_vector`."""
    return fock_vector(term for v in states for term in v.terms.items())


def gaussian(re=0, im=0) -> GaussianRational:
    """re + i im from ints, Fractions or 'p/q' strings."""
    return GaussianRational(as_fraction(re), as_fraction(im))


def scaled(p: Polynomial, coeff) -> Polynomial:
    """coeff p, for a ``GaussianRational`` or a rational coeff."""
    c = coeff if isinstance(coeff, GaussianRational) else gaussian(coeff)
    return Polynomial([(w, c * g) for w, g in p.terms], c * p.constant)


def vacuum_moments_by_apply(ops: Sequence[OperatorName], order: int,
                            rho: MomentSequence) -> list[Fraction]:
    """<(sum of ops)^j Omega, Omega> for j = 1..order: the state applied to
    by every operator with :func:`freecommutant.fock.apply`, tensors longer
    than the steps still to come plus one dropped, and paired with the
    vacuum by :func:`freecommutant.fock.inner_product`."""
    vacuum = fock_vector([((0,), 1)])
    state = vacuum
    moments = []
    for j in range(1, order + 1):
        out = add(*(apply(op, state, rho.values) for op in ops))
        reach = order - j + 1
        state = fock_vector((t, c) for t, c in out.terms.items() if len(t) <= reach)
        moments.append(inner_product(state, vacuum, rho.values))
    return moments


# Sampled tensors have 1 to 5 slots with exponents to SAMPLE_EXPONENT; an
# operator raises one by at most one, so the sampled pairings read moments
# to SAMPLE_MOMENT_ORDER.
SAMPLE_EXPONENT = 3
SAMPLE_MOMENT_ORDER = 2 * SAMPLE_EXPONENT + 1


def random_fraction_vector(rng: random.Random) -> FockVector:
    """One or two terms num/den t (num in -3..3, den in 1..3) over random
    basis tensors t."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(1, 5)
        tensor = tuple(rng.randint(0, SAMPLE_EXPONENT) for _ in range(length))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        terms.append((tensor, coeff))
    return fock_vector(terms)


def adjointness_by_fractions(pairs: Sequence[tuple[OperatorName, OperatorName]],
                             samples: int, rho: MomentSequence, seed: int) -> bool:
    """<A u, v> = <u, B v> for each (A, B) pair on ``samples`` pairs of
    seeded ``Fraction`` states, over the moments of rho."""
    rng = random.Random(seed)
    m = rho.values
    for _ in range(samples):
        u = random_fraction_vector(rng)
        v = random_fraction_vector(rng)
        for a, b in pairs:
            if inner_product(apply(a, u, m), v, m) != inner_product(u, apply(b, v, m), m):
                return False
    return True


def adjoint_pairs_by_exhaustion(slots: int, top: int) -> set[tuple[OperatorName, OperatorName]]:
    """The ordered operator pairs (A, B) with <A t, u> = <t, B u> for every
    two basis tensors of at most ``slots`` slots and exponents at most
    ``top``, over the formal moments m_0 = 1, m_k = 2^(w^(k-1)), w = slots +
    2: each side is 0 or a monomial of degree at most slots + 1 in m_1 to
    m_{2 top + 1}, so equal integers are equal monomials."""
    moments = [1] + [2 ** (slots + 2) ** (k - 1) for k in range(1, 2 * top + 2)]
    basis = {t: FockVector({t: 1}) for n in range(1, slots + 1)
             for t in itertools.product(range(top + 1), repeat=n)}
    images = {op: {t: apply(op, v, moments) for t, v in basis.items()} for op in OperatorName}
    pairs = [(t, u) for t in basis for u in basis if abs(len(t) - len(u)) <= 1]
    return {(a, b) for a in OperatorName for b in OperatorName
            if all(inner_product(images[a][t], basis[u], moments)
                   == inner_product(basis[t], images[b][u], moments) for t, u in pairs)}


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator,
    and that denominator: exact sums of products then need no gcd until the
    end."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _apply_letter(state: dict[str, tuple[int, int]], letter: str, kappas: list[int],
                  den: int, budget: int) -> dict[str, tuple[int, int]]:
    """Apply l* + sum_k kappa_{k+1} l^k for one letter to a Fock state.

    Values are Gaussian integers over a denominator shared by the whole
    state; ``kappas`` are the letter's cumulants times ``den``, so the
    result's denominator is ``den`` times the input's.  A word may hold at
    most ``budget`` copies of the letter afterwards: each copy still has to
    be annihilated by a later application of the same letter.
    """
    out: dict[str, tuple[int, int]] = {}
    get = out.get
    for word, (re, im) in state.items():
        have = word.count(letter)
        if have <= budget + 1 and word[:1] == letter:
            rest = word[1:]
            o = get(rest)
            out[rest] = ((re * den, im * den) if o is None
                         else (o[0] + re * den, o[1] + im * den))
        for k in range(budget - have + 1):
            kv = kappas[k + 1]
            if kv:
                grown = letter * k + word
                o = get(grown)
                out[grown] = ((kv * re, kv * im) if o is None
                              else (o[0] + kv * re, o[1] + kv * im))
    return out


def fock_graded_moments(parts: Sequence[Polynomial], dist_s: CumulantSequence,
                        dist_x: CumulantSequence, order: int) -> list[list[GaussianRational]]:
    """Moments m_0(t)..m_order(t) of p(t) = sum_g t^g parts[g] with s and x
    free, each as its exact coefficients of t^0..t^(j * (len(parts) - 1)):
    the vacuum coefficients of p(t)^j applied to the vacuum of the full Fock
    space over {s, x}, where each letter acts as l* + sum_k kappa_{k+1} l^k
    (Voiculescu's canonical model of an R-transform).

    The state is one dict of words per power of t; a term of grade g moves
    what it produces g powers up.  Words are applied letter by letter,
    right to left; a word that holds more copies of a letter than the
    applications of that letter still to come can never return to the
    vacuum and is dropped.  Cumulants are therefore needed up to (most
    copies of the letter in one term) * order.  Arithmetic is over integers
    with one running denominator.
    """
    # the constant of each part is its empty word
    terms = [(g, w, c) for g, part in enumerate(parts)
             for w, c in part.terms + (("", part.constant),) if c]
    most = {a: max((w.count(a) for _g, w, _c in terms), default=0) for a in _ALPHABET}
    kappas: dict[str, list[int]] = {}
    den: dict[str, int] = {}
    for a, dist in ((S, dist_s), (X, dist_x)):
        kappas[a], den[a] = over_common_denominator(_kappa_table(dist, most[a] * order, a))
    # One application of p(t) multiplies the running denominator by
    # ``step``: the coefficients' common denominator times den^most for each
    # letter; a term with fewer letters is lifted to it by its coefficient.
    step = math.lcm(*(v.denominator for _g, _w, c in terms for v in (c.re, c.im)))
    for a in _ALPHABET:
        step *= den[a] ** most[a]
    # Each term as its letters right to left, each with the copies of it
    # before it in the word (its budget less the later applications).
    lifted_terms = []
    for g, word, c in terms:
        lifted = step
        for a in _ALPHABET:
            lifted //= den[a] ** word.count(a)
        letters = tuple((word[i], word.count(word[i], 0, i))
                        for i in range(len(word) - 1, -1, -1))
        lifted_terms.append((g, letters, (c.re * lifted).numerator, (c.im * lifted).numerator))
    top = len(parts) - 1

    state: list[dict[str, tuple[int, int]]] = [{"": (1, 0)}]
    moments = [[GR_ONE]]
    scale = 1
    for j in range(1, order + 1):
        later = order - j
        nxt: list[dict[str, tuple[int, int]]] = [{} for _ in range(len(state) + top)]
        # terms that end alike (s and xs, say) share those applications
        applied: dict[tuple, dict[str, tuple[int, int]]] = {}
        for g, letters, cr, ci in lifted_terms:
            for d, cur in enumerate(state):
                if not cur:
                    continue
                for i, (a, before) in enumerate(letters):
                    key = (d, letters[:i + 1])
                    done = applied.get(key)
                    if done is None:
                        done = applied[key] = _apply_letter(
                            cur, a, kappas[a], den[a], before + later * most[a])
                    cur = done
                out = nxt[d + g]
                for w, (re, im) in cur.items():
                    tr, ti = cr * re - ci * im, cr * im + ci * re
                    o = out.get(w)
                    out[w] = (tr, ti) if o is None else (o[0] + tr, o[1] + ti)
        state = [{w: v for w, v in sub.items() if v[0] or v[1]} for sub in nxt]
        scale *= step
        moments.append([GaussianRational(Fraction(re, scale), Fraction(im, scale))
                        for re, im in (sub.get("", (0, 0)) for sub in state)])
    return moments


def _add_product(acc: list[int], a: list[int], b: list[int]) -> None:
    """acc += a * b for polynomials in t given by their coefficient lists."""
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    acc[i + j] += u * v


def cumulants_in_t(moments: list[list[Fraction]], order: int) -> list[list[Fraction]]:
    """kappa_1(t)..kappa_order(t) as coefficient lists, from moments m_j(t)
    of degree <= j in t: the recursion of ``cumulants_from_moments``,
    kappa_n = m_n - sum_(k<n) kappa_k [z^(n-k)] M(z)^k, over polynomials in
    t with every coefficient of m_j dilated as a value of index j
    (``dilation``).  The table entry [z^j] M(z)^k has degree <= j, so
    kappa_n has degree <= n."""
    d = dilation([math.lcm(*(c.denominator for c in mj)) for mj in moments])
    m = [[c.numerator * (d ** j // c.denominator) for c in mj] for j, mj in enumerate(moments)]
    powers: list[list[list[int]]] = [[[1]]]
    for n in range(1, order + 1):
        powers[0].append([])
        for k in range(1, n):
            j = n - k
            entry = [0] * (j + 1)
            for t in range(j + 1):
                _add_product(entry, m[t], powers[k - 1][j - t])
            powers[k].append(entry)
        powers.append([[1]])
    kappas: list[list[int]] = []
    for n in range(1, order + 1):
        value = list(m[n])
        for k in range(1, n):
            _add_product(value, [-c for c in kappas[k - 1]], powers[k][n - k])
        kappas.append(value)
    return [[Fraction(c, d ** n) for c in value] for n, value in enumerate(kappas, start=1)]


def fock_cancellation_sums(dist_s: CumulantSequence, dist_x: CumulantSequence,
                           order: int) -> list[list[Fraction]]:
    """For n = 1..order, the coefficients of t^0..t^n in
    kappa_n(s + t(sx - xs)): the t-graded moments of the Fock model, real
    for this real polynomial, through :func:`cumulants_in_t`."""
    moments = fock_graded_moments(
        [Polynomial.from_word(S), Polynomial([("sx", GR_ONE), ("xs", -GR_ONE)])],
        dist_s, dist_x, order)
    if any(c.im for m in moments for c in m):
        raise AssertionError("real input produced an imaginary moment part")
    return cumulants_in_t([[c.re for c in m] for m in moments], order)


def moments_of_atoms(atoms: Sequence[tuple], order: int) -> list[Fraction]:
    """m_0..m_order of the measure sum_i w_i delta_(a_i) of (w_i, a_i) pairs,
    taken as given."""
    pairs = [(as_fraction(w), as_fraction(a)) for w, a in atoms]
    return [sum((w * a ** k for w, a in pairs), Fraction(0)) for k in range(order + 1)]


def boxplus(a: CumulantSequence, b: CumulantSequence, order: int) -> CumulantSequence:
    """Free additive convolution at the cumulant level: entrywise sum."""
    if order > a.max_order or order > b.max_order:
        raise TruncationError(
            f"boxplus to order {order} needs both sequences that long"
            f" (have {a.max_order} and {b.max_order})"
        )
    return CumulantSequence([a.kappa(n) + b.kappa(n) for n in range(1, order + 1)])


def assign_by_blocks(block_assignments: Sequence[tuple[Iterable[int], Sequence]]) -> tuple:
    """Fill an n-tuple by cycling each block's symbols along the block.

    The v-th smallest element of a block receives symbol (v-1) mod m where m
    is that block's symbol count; the blocks must partition {1..n}.
    """
    filled: dict[int, object] = {}
    for block, symbols in block_assignments:
        elems = sorted(block)
        if not symbols:
            raise DomainError("empty symbol list")
        if not elems:
            raise DomainError("empty block")
        m = len(symbols)
        for v, e in enumerate(elems):
            if e in filled:
                raise DomainError(f"element {e} assigned twice")
            filled[e] = symbols[v % m]
    n = len(filled)
    if sorted(filled) != list(range(1, n + 1)):
        raise DomainError(f"blocks do not partition {{1..{n}}}")
    return tuple(filled[j] for j in range(1, n + 1))

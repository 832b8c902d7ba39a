import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecommutant.cumulants import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    CumulantSequence,
    GaussianRational,
    MomentSequence,
    Polynomial,
    cumulant_of_polynomials,
    cumulant_of_word_products,
    as_fraction,
    cumulants_from_moments,
    moments_from_cumulants,
    polynomial_moments,
)
from freecommutant.errors import (
    DomainError,
    GroundSetError,
    KindError,
    TruncationError,
)
from freecommutant.partitions import Partition, PartitionKind, iter_partitions
from partition_oracles import (
    fock_graded_moments,
    gaussian,
    joined_cumulant_naive,
    kappa_block,
    kappa_pi,
    moments_of_atoms,
    over_common_denominator,
    scaled,
)

STD_S = CumulantSequence.semicircular(1, 10)
FP1 = CumulantSequence.free_poisson(1, 10)
GENERIC_S = CumulantSequence(
    [Fraction(1, 3), 2, Fraction(-1, 2), 1, 0, 2, 1, 1, 2, 1])
GENERIC_X = CumulantSequence(
    [Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 16), 3, -2, Fraction(5, 3), 7, 1, 2])

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# zeros, negatives and many distinct prime denominators, so that a dilation
# of the sequence needs a factor of every prime at its own order
prime_rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1,) + PRIMES))


class TestGaussianRational:
    def test_i_squared(self):
        assert GR_I * GR_I == -GR_ONE

    def test_ring_ops(self):
        a = gaussian(Fraction(1, 2), 3)
        b = gaussian(2, Fraction(-1, 3))
        assert a + b == gaussian(Fraction(5, 2), Fraction(8, 3))
        assert a * b == b * a
        assert (a - a) == GR_ZERO
        assert not GR_ZERO
        assert a.conjugate().conjugate() == a

    @given(rationals, rationals, rationals, rationals)
    def test_multiplication_matches_complex(self, ar, ai, br, bi):
        a = gaussian(ar, ai)
        b = gaussian(br, bi)
        prod = a * b
        assert prod.re == ar * br - ai * bi
        assert prod.im == ar * bi + ai * br


class TestSequences:
    def test_semicircular_flag(self):
        assert STD_S.is_semicircular
        assert CumulantSequence.semicircular(Fraction(7, 3), 6).is_semicircular
        assert not FP1.is_semicircular
        assert not GENERIC_S.is_semicircular

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            STD_S.kappa(11)
        with pytest.raises(TruncationError):
            MomentSequence([1, 2]).moment(2)

    def test_as_fraction_takes_exact_values_only(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert type(as_fraction("1/3")) is Fraction
        with pytest.raises(DomainError):
            as_fraction(0.5)

    def test_moment_sequence_requires_unit_head(self):
        with pytest.raises(DomainError):
            MomentSequence([2, 1])

    def test_dilated(self):
        assert FP1.dilated(2).values == tuple(Fraction(2) ** k for k in range(1, 11))


class TestMomentCumulantTransforms:
    def test_semicircle_fourth_moment(self):
        # oracle: count the 2 non-crossing pair partitions of 4 points
        m = moments_from_cumulants(STD_S, 6)
        assert [m.moment(k) for k in range(7)] == [1, 0, 1, 0, 2, 0, 5]

    def test_free_poisson_third_moment(self):
        # oracle: |NC(3)| = 5 partitions, each contributing 1
        m = moments_from_cumulants(FP1, 4)
        assert m.moment(3) == 5
        assert m.moment(4) == 14

    def test_point_mass(self):
        m = moments_from_cumulants(CumulantSequence([Fraction(3, 2), 0, 0, 0, 0]), 5)
        assert m.values == tuple(Fraction(3, 2) ** k for k in range(6))

    def test_catalan_moments_invert_to_all_ones(self):
        k = cumulants_from_moments(MomentSequence([1, 1, 2, 5, 14]), 4)
        assert k == CumulantSequence([1, 1, 1, 1])

    def test_symmetric_bernoulli_kappa4(self):
        # kappa_4 = m_4 - 2 m_2^2 for a centered law
        k = cumulants_from_moments(MomentSequence([1, 0, 1, 0, 1]), 4)
        assert k == CumulantSequence([0, 1, 0, -1])

    def test_point_mass_cumulants(self):
        k = cumulants_from_moments(MomentSequence([1, 1, 1, 1]), 3)
        assert k == CumulantSequence([1, 0, 0])

    def test_past_the_sequence_is_truncation_error(self):
        with pytest.raises(TruncationError):
            moments_from_cumulants(FP1, 11)
        with pytest.raises(TruncationError):
            cumulants_from_moments(MomentSequence([1, 1, 1, 1]), 4)

    @settings(max_examples=60)
    @given(st.lists(rationals, min_size=1, max_size=10))
    def test_round_trip_exact(self, kappas):
        seq = CumulantSequence(kappas)
        n = len(kappas)
        back = cumulants_from_moments(moments_from_cumulants(seq, n), n)
        assert back == seq

    def test_round_trip_to_order_ten(self):
        seq = GENERIC_X
        m = moments_from_cumulants(seq, 10)
        assert cumulants_from_moments(m, 10) == seq


NC_BLOCK_SIZES = {n: [[len(b) for b in pi.blocks] for pi in iter_partitions(n, PartitionKind.NC)]
                  for n in range(1, 10)}

# atomic(1/4:-1/2, 1/2:1, 1/4:3); kappa_29 and kappa_30 were solved order by
# order from C(zM(z)) = M(z) with plain series products, a route that was
# checked against the sum over NC(n) of block products for n <= 9.
ATOMS = ((Fraction(1, 4), Fraction(-1, 2)), (Fraction(1, 2), 1), (Fraction(1, 4), 3))
KAPPA_29 = Fraction(-1802663324441293599633495530240739, 19342813113834066795298816)
KAPPA_30 = Fraction(-10463371087440888482244612134271105, 154742504910672534362390528)


def series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


class TestTransformsPastThePartitionSums:
    """The power-table recursion against routes that share none of its
    code: the sum over NC(n), the R-transform identity, pinned values."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.just(Fraction(0)), rationals, prime_rationals),
                    min_size=1, max_size=9))
    def test_moments_are_sums_over_noncrossing_partitions(self, kappas):
        n_max = len(kappas)
        direct = [Fraction(1)]
        for n in range(1, n_max + 1):
            total = Fraction(0)
            for sizes in NC_BLOCK_SIZES[n]:
                prod = Fraction(1)
                for size in sizes:
                    prod *= kappas[size - 1]
                total += prod
            direct.append(total)
        assert list(moments_from_cumulants(CumulantSequence(kappas), n_max).values) == direct
        # and the inverse takes the sums back to the inputs
        assert list(cumulants_from_moments(MomentSequence(direct), n_max).values) == kappas

    def test_round_trip_to_order_forty(self):
        seq = CumulantSequence([Fraction((-1) ** k * k, k % 5 + 1) if k % 3 else 0
                                for k in range(1, 41)])
        assert cumulants_from_moments(moments_from_cumulants(seq, 40), 40) == seq

    def test_round_trip_to_order_forty_over_prime_denominators(self):
        seq = CumulantSequence([Fraction((-1) ** k * (k % 7), PRIMES[k % len(PRIMES)])
                                if k % 4 else 0 for k in range(1, 41)])
        assert cumulants_from_moments(moments_from_cumulants(seq, 40), 40) == seq

    def test_order_thirty_atomic_law(self):
        m = moments_of_atoms(ATOMS, 30)
        kappas = cumulants_from_moments(MomentSequence(m), 30)
        assert kappas.kappa(29) == KAPPA_29
        assert kappas.kappa(30) == KAPPA_30
        assert CumulantSequence.from_atoms(ATOMS, 30) == kappas
        assert list(moments_from_cumulants(kappas, 30).values) == m
        # C(zM(z)) = M(z) up to z^30, by Horner in w = zM(z)
        w = [Fraction(0)] + m[:30]
        composed = [Fraction(0)] * 31
        for k in range(30, 0, -1):
            composed[0] += kappas.kappa(k)
            composed = series_mul(composed, w, 30)
        composed[0] += 1
        assert composed == m

    @given(st.lists(rationals, max_size=8))
    def test_common_denominator(self, values):
        nums, den = over_common_denominator(values)
        assert [Fraction(v, den) for v in nums] == values
        assert all(den % v.denominator == 0 for v in values)


def _atomic_law(raw):
    """(weight, atom) pairs from raw positive weights, normalised to sum 1."""
    weights, atoms = zip(*raw)
    total = sum(weights)
    return [(w / total, a) for w, a in zip(weights, atoms)]


# weights with large and coprime denominators; atoms negative, zero,
# fractional and, by the sampled pool, often repeated
raw_weights = st.builds(Fraction, st.integers(1, 10 ** 6),
                        st.sampled_from((1, 3, 1009, 2 ** 61 - 1)))
pooled_atoms = st.one_of(st.just(Fraction(0)), st.sampled_from((Fraction(-1), Fraction(2))),
                         rationals, prime_rationals)
atomic_laws = st.lists(st.tuples(raw_weights, pooled_atoms),
                       min_size=1, max_size=6).map(_atomic_law)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


class TestCumulantsFromAtoms:
    """The R-transform recursion of ``CumulantSequence.from_atoms`` against
    the power-table inversion of the atom moments, and the integer moments
    of ``MomentSequence.from_atoms`` against ``Fraction`` powers."""

    @settings(max_examples=60, deadline=None)
    @given(atomic_laws, st.integers(1, 40))
    def test_equals_the_inverted_moments(self, atoms, order):
        moments = MomentSequence.from_atoms(atoms, order)
        kappas = CumulantSequence.from_atoms(atoms, order)
        assert kappas == cumulants_from_moments(moments, order)
        assert moments_from_cumulants(kappas, order) == moments

    @settings(max_examples=60, deadline=None)
    @given(atomic_laws, st.integers(0, 40))
    def test_moments_equal_fraction_powers(self, atoms, order):
        moments = MomentSequence.from_atoms(atoms, order)
        assert list(moments.values) == moments_of_atoms(atoms, order)

    @pytest.mark.parametrize("atom", [Fraction(0), Fraction(3), Fraction(-7, 2)])
    def test_point_mass(self, atom):
        assert CumulantSequence.from_atoms([(1, atom)], 12).values == (atom,) + (0,) * 11

    def test_symmetric_bernoulli_gives_signed_catalan_numbers(self):
        kappas = CumulantSequence.from_atoms([(Fraction(1, 2), -1), (Fraction(1, 2), 1)], 40)
        assert kappas.values[0::2] == (0,) * 20
        assert kappas.values[1::2] == tuple((-1) ** (n - 1) * catalan(n - 1)
                                            for n in range(1, 21))

    @pytest.mark.parametrize("atoms", [
        [(Fraction(1, 3), -1), (Fraction(1, 3), 1), (Fraction(1, 3), 2)],
        [(Fraction(1, 6), Fraction(-3, 2)), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(5, 7))],
    ])
    def test_agrees_with_the_power_table_at_order_150(self, atoms):
        assert CumulantSequence.from_atoms(atoms, 150) == cumulants_from_moments(
            MomentSequence.from_atoms(atoms, 150), 150)

    def test_more_atoms_than_the_order(self):
        atoms = [(Fraction(1, 9), Fraction(k, 2)) for k in range(-4, 5)]
        assert CumulantSequence.from_atoms(atoms, 3) == cumulants_from_moments(
            MomentSequence(moments_of_atoms(atoms, 3)), 3)

    @pytest.mark.parametrize("atoms, message", [
        ([], "atom weights must be positive"),
        ([(0, 1), (1, 2)], "atom weights must be positive"),
        ([(Fraction(-1, 2), 1), (Fraction(3, 2), 2)], "atom weights must be positive"),
        ([(Fraction(1, 2), 1)], "atom weights must sum to 1"),
        ([(Fraction(1, 2), 1), (Fraction(2, 3), 1)], "atom weights must sum to 1"),
        ([(0.5, 1), (Fraction(1, 2), 2)], "not an exact rational"),
    ])
    def test_bad_weights_are_domain_errors(self, atoms, message):
        for build in (CumulantSequence.from_atoms, MomentSequence.from_atoms):
            with pytest.raises(DomainError, match=message):
                build(atoms, 4)

class TestKappaBlock:
    def test_pair_of_s(self):
        assert kappa_block("ss", STD_S, FP1) == 1

    def test_mixed_vanishes(self):
        assert kappa_block("sx", GENERIC_S, GENERIC_X) == 0

    def test_semicircular_kills_triples(self):
        assert kappa_block("sss", STD_S, FP1) == 0

    def test_order_beyond_sequence(self):
        with pytest.raises(TruncationError):
            kappa_block("x" * 11, STD_S, GENERIC_X)


class TestKappaPi:
    def test_nested_pair_product(self):
        pi = Partition(4, [[1, 4], [2, 3]])
        v = Fraction(5, 7)
        dist_x = CumulantSequence([0, v, 0, 0])
        assert kappa_pi(pi, "sxxs", STD_S, dist_x) == v

    def test_mixed_block_vanishes(self):
        pi = Partition(4, [[1, 2], [3, 4]])
        assert kappa_pi(pi, "sxsx", STD_S, FP1) == 0

    def test_crossing_rejected(self):
        with pytest.raises(KindError):
            kappa_pi(Partition(4, [[1, 3], [2, 4]]), "ssss", STD_S, FP1)

    def test_length_mismatch(self):
        with pytest.raises(GroundSetError):
            kappa_pi(Partition(3, [[1, 2, 3]]), "ss", STD_S, FP1)


class TestWordCumulants:
    def test_witness_word_value(self):
        # only one partition survives: pair the outer s's per word boundary
        for s_var, x_var in [(1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 7))]:
            s = CumulantSequence.semicircular(s_var, 8)
            x = CumulantSequence([1, Fraction(x_var), 2, 3, 1, 1, 1, 1])
            got = cumulant_of_word_products(("s", "sx", "xs", "s"), s, x)
            assert got == Fraction(s_var) ** 2 * Fraction(x_var)

    def test_same_order_word_vanishes(self):
        assert cumulant_of_word_products(("s", "sx", "sx", "s"), STD_S, FP1) == 0

    def test_pair_of_two_letter_words(self):
        # semicircular s: the only joining partitions pair the outer s's and
        # put the two x's in one block or two singletons
        s = CumulantSequence.semicircular(Fraction(5, 3), 8)
        got = cumulant_of_word_products(("sx", "xs"), s, GENERIC_X)
        expect = s.kappa(2) * (GENERIC_X.kappa(2) + GENERIC_X.kappa(1) ** 2)
        assert got == expect

    def test_pair_of_two_letter_words_general_s(self):
        # with kappa_1(s) != 0 the two s singletons join through the x pair
        got = cumulant_of_word_products(("sx", "xs"), GENERIC_S, GENERIC_X)
        expect = (GENERIC_S.kappa(2) * (GENERIC_X.kappa(2) + GENERIC_X.kappa(1) ** 2)
                  + GENERIC_S.kappa(1) ** 2 * GENERIC_X.kappa(2))
        assert got == expect

    def test_first_cumulant_of_s(self):
        assert cumulant_of_word_products(("s",), STD_S, FP1) == 0

    def test_no_letter_cap(self, monkeypatch):
        # 18 letters, past twice the CLI's default order cap: kappa_9 of the
        # one element sx, which its moments also give
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        got = cumulant_of_word_products(("sx",) * 9, GENERIC_S, GENERIC_X)
        moments = polynomial_moments(Polynomial.from_word("sx"), GENERIC_S, GENERIC_X, 9)
        assert got == cumulants_from_moments(moments, 9).kappa(9) != 0

    def test_letters_are_bounded_by_the_inputs_alone(self):
        short_s = CumulantSequence.semicircular(1, 8)
        assert cumulant_of_word_products(("sx",) * 8, short_s, FP1) != 0
        with pytest.raises(TruncationError):
            cumulant_of_word_products(("sx",) * 9, short_s, FP1)

    def test_bad_word_rejected(self):
        with pytest.raises(DomainError):
            cumulant_of_word_products(("sy",), STD_S, FP1)
        with pytest.raises(DomainError):
            cumulant_of_word_products((), STD_S, FP1)


def _word_tuples(max_letters):
    pool = ["s", "x", "sx", "xs", "xx", "ss"]
    for m in range(1, 5):
        for tup in itertools.product(pool, repeat=m):
            if sum(len(w) for w in tup) <= max_letters:
                yield tup


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("dists", [
        (STD_S, FP1),
        (GENERIC_S, GENERIC_X),
    ], ids=["semicircular-s", "generic-s"])
    def test_exhaustive_small_tuples(self, dists):
        s, x = dists
        rng = random.Random(11)
        tuples = [t for t in _word_tuples(8)]
        # exhaustive up to 6 letters, sampled beyond (the full set is large)
        selected = [t for t in tuples if sum(map(len, t)) <= 6]
        selected += rng.sample([t for t in tuples if sum(map(len, t)) > 6], 120)
        for tup in selected:
            p = cumulant_of_word_products(tup, s, x)
            u = joined_cumulant_naive(tup, s, x)
            assert p == u, tup


# up to six words of up to three letters, so that the fragments of the
# first letter's gaps merge across several words
word_tuple = st.lists(
    st.sampled_from(["s", "x", "sx", "xs", "ss", "xx", "sxs", "xsx", "ssx"]),
    min_size=1, max_size=6,
).map(tuple).filter(lambda t: sum(map(len, t)) <= 9)

kappa_list = st.lists(rationals, min_size=9, max_size=9)


class TestPrunedEqualsUnprunedProperty:
    @settings(max_examples=120, deadline=None)
    @given(word_tuple, kappa_list, kappa_list)
    def test_random_distributions(self, tup, ks, kx):
        dist_s = CumulantSequence(ks)
        dist_x = CumulantSequence(kx)
        pruned = cumulant_of_word_products(tup, dist_s, dist_x)
        naive = joined_cumulant_naive(tup, dist_s, dist_x)
        assert pruned == naive


class TestTraciality:
    def test_cyclic_invariance_small_tuples(self):
        rng = random.Random(5)
        tuples = [t for t in _word_tuples(8) if len(t) >= 2]
        for tup in rng.sample(tuples, 200):
            base = cumulant_of_word_products(tup, GENERIC_S, GENERIC_X)
            for r in range(1, len(tup)):
                rotated = tup[r:] + tup[:r]
                assert cumulant_of_word_products(rotated, GENERIC_S, GENERIC_X) == base


small_poly = st.builds(
    lambda pairs, const: Polynomial(
        [(w, gaussian(re, im)) for (w, re, im) in pairs],
        gaussian(const),
    ),
    st.lists(st.tuples(st.sampled_from(["s", "x", "sx", "xs"]),
                       rationals, rationals), min_size=1, max_size=2),
    rationals,
)


class TestPolynomial:
    def test_canonical_merge(self):
        p = Polynomial([("sx", GR_ONE), ("sx", GR_ONE), ("s", GR_ZERO)])
        assert p.terms == (("sx", gaussian(2)),)

    def test_adjoint_reverses_and_conjugates(self):
        p = Polynomial([("sx", GR_I)])
        assert p.adjoint() == Polynomial([("xs", -GR_I)])

    def test_self_adjointness_of_commutator_combination(self):
        p = Polynomial([("sx", GR_I), ("xs", -GR_I)])
        assert p.is_self_adjoint


class TestPolynomialCumulants:
    def test_multilinearity_in_one_slot(self):
        p = Polynomial.from_word("sx")
        q = Polynomial.from_word("x")
        r = Polynomial.from_word("s")
        alpha, beta = gaussian(Fraction(2, 3)), gaussian(-2)
        combo = scaled(p, alpha) + scaled(q, beta)
        for slots in ([r], [r, r]):
            direct = cumulant_of_polynomials([combo] + slots, GENERIC_S, GENERIC_X)
            split = (
                alpha * cumulant_of_polynomials([p] + slots, GENERIC_S, GENERIC_X)
                + beta * cumulant_of_polynomials([q] + slots, GENERIC_S, GENERIC_X)
            )
            assert direct == split

    @settings(max_examples=25, deadline=None)
    @given(small_poly, small_poly, rationals, rationals)
    def test_multilinearity_random(self, p, q, a, b):
        ga, gb = gaussian(a), gaussian(b)
        combo = scaled(p, ga) + scaled(q, gb)
        slot = Polynomial.from_word("x")
        direct = cumulant_of_polynomials([combo, slot], GENERIC_S, GENERIC_X)
        split = (ga * cumulant_of_polynomials([p, slot], GENERIC_S, GENERIC_X)
                 + gb * cumulant_of_polynomials([q, slot], GENERIC_S, GENERIC_X))
        assert direct == split

    def test_first_cumulant_keeps_constant(self):
        p = Polynomial([("x", GR_ONE)], gaussian(Fraction(5, 2)))
        got = cumulant_of_polynomials([p], GENERIC_S, GENERIC_X)
        assert got == gaussian(Fraction(5, 2) + GENERIC_X.kappa(1))

    def test_higher_cumulants_drop_constants(self):
        p = Polynomial([("x", GR_ONE)], gaussian(7))
        q = Polynomial([("x", GR_ONE)])
        for n in (2, 3):
            assert (cumulant_of_polynomials([p] * n, GENERIC_S, GENERIC_X)
                    == cumulant_of_polynomials([q] * n, GENERIC_S, GENERIC_X))

    def test_empty_slots_rejected(self):
        with pytest.raises(DomainError):
            cumulant_of_polynomials([], GENERIC_S, GENERIC_X)


# Polynomials of at most three terms over words of at most ``longest``
# letters.  Self-adjoint ones: a palindrome with a real coefficient is one
# term, a word with a Q(i) coefficient plus its adjoint is two.
_PALINDROMES = ["s", "x", "ss", "xx", "sxs", "xsx", "sss", "xxx"]
_ASYMMETRIC = ["sx", "xs", "ssx", "xss", "sxx", "xxs"]


def _short(words, longest):
    return st.sampled_from([w for w in words if len(w) <= longest])


def hermitian_poly(longest):
    return st.builds(
        lambda pair, singles, const: Polynomial(
            [(w, gaussian(re)) for w, re in singles]
            + ([(pair[0], gaussian(pair[1], pair[2])),
                (pair[0][::-1], gaussian(pair[1], -pair[2]))] if pair else []),
            gaussian(const),
        ),
        st.none() | st.tuples(_short(_ASYMMETRIC, longest), rationals, rationals),
        st.lists(st.tuples(_short(_PALINDROMES, longest), rationals), max_size=3),
        st.just(0) | rationals,
    ).filter(lambda p: 1 <= len(p.terms) <= 3)


def any_poly(longest):
    return st.builds(
        lambda terms, const: Polynomial(
            [(w, gaussian(re, im)) for w, re, im in terms], const),
        st.lists(st.tuples(_short(_PALINDROMES + _ASYMMETRIC, longest), rationals, rationals),
                 min_size=1, max_size=3),
        st.just(GR_ZERO) | st.builds(gaussian, rationals, rationals),
    ).filter(lambda p: p.terms)


# The expansion oracle walks order * longest letters; keep that to 10, so
# orders 4 and 5 use words of at most two letters.  The lower orders are
# compared too, as the head of each sequence.
order_and_poly = st.integers(3, 5).flatmap(
    lambda n: st.tuples(st.just(n), hermitian_poly(10 // n) | any_poly(10 // n)))

# most letters of one kind in a term (3) times the highest order (5)
long_kappas = st.lists(rationals, min_size=15, max_size=15)


def linear_in_s(parts) -> bool:
    return all(w.count("s") <= 1 for p in parts for w, _c in p.terms)


def engine_moments(p, dist_s, dist_x, order):
    """polynomial_moments, or the Fock-model oracle for a word with two or
    more s, which polynomial_moments refuses."""
    if linear_in_s([p]):
        return polynomial_moments(p, dist_s, dist_x, order)
    moments = [m for (m,) in fock_graded_moments([p], dist_s, dist_x, order)]
    if any(m.im for m in moments):
        raise DomainError("a moment is not real")
    return MomentSequence([m.re for m in moments])


class TestPolynomialMoments:
    """The moments of the B-valued recursion against the multilinear
    expansion on the partition walk, which shares no code with them; a
    draw with a word of two or more s checks the Fock-model oracle against
    the walk instead."""

    @settings(max_examples=30, deadline=None)
    @given(order_and_poly, long_kappas, long_kappas)
    def test_inverted_moments_match_expansion(self, order_poly, ks, kx):
        order, p = order_poly
        dist_s, dist_x = CumulantSequence(ks), CumulantSequence(kx)
        if dist_s.is_semicircular:
            dist_s = CumulantSequence([1] + ks[1:])
        oracle = [cumulant_of_polynomials([p] * n, dist_s, dist_x)
                  for n in range(1, order + 1)]
        if all(v.im == 0 for v in oracle):
            moments = engine_moments(p, dist_s, dist_x, order)
            assert cumulants_from_moments(moments, order).values == tuple(v.re for v in oracle)
        else:
            assert not p.is_self_adjoint
            with pytest.raises(DomainError):
                engine_moments(p, dist_s, dist_x, order)

    def test_letter_moments_are_the_inputs(self):
        for letter, dist in (("s", GENERIC_S), ("x", GENERIC_X)):
            moments = polynomial_moments(Polynomial.from_word(letter), GENERIC_S, GENERIC_X, 10)
            assert moments == moments_from_cumulants(dist, 10)

    def test_constant_only(self):
        p = Polynomial(constant=gaussian(3))
        assert polynomial_moments(p, STD_S, FP1, 4).values == (1, 3, 9, 27, 81)

    def test_short_sequence_is_truncation_error(self):
        # xsx at order 3 needs kappa_1..kappa_3 of s and kappa_1..kappa_6 of x
        p = Polynomial.from_word("xsx")
        short_s, short_x = CumulantSequence([0, 1]), CumulantSequence([1, 2, 0, 1, 1])
        for dist_s, dist_x in ((short_s, FP1), (STD_S, short_x)):
            with pytest.raises(TruncationError):
                polynomial_moments(p, dist_s, dist_x, 3)
            assert polynomial_moments(p, dist_s, dist_x, 2).max_order == 2

    def test_two_s_in_a_word_is_domain_error(self):
        for word in ("ss", "sxs", "xss"):
            p = Polynomial([("s", GR_ONE), (word, GR_I)], GR_ONE)
            with pytest.raises(DomainError, match="cumulant_of_polynomials"):
                polynomial_moments(p, STD_S, FP1, 3)
            # the partition walk takes it
            cumulant_of_polynomials([p] * 3, STD_S, FP1)

    def test_non_real_moment_is_domain_error(self):
        p = Polynomial.from_word("x", GR_I)  # m_1 = i kappa_1(x)
        with pytest.raises(DomainError):
            polynomial_moments(p, STD_S, FP1, 2)


# Polynomials linear in s for orders 1..10.  The Fock-model oracle grows
# with the x letters of a term, so orders 7..10 keep to words with at most
# one x.  Every word's reverse is among them, so p + p* keeps to them.
_LINEAR_WORDS = ["s", "x", "xx", "sx", "xs", "xsx", "sxx", "xxs"]
gaussians = st.builds(gaussian, rationals, rationals)


def linear_poly(order):
    words = _LINEAR_WORDS if order <= 6 else ["s", "x", "sx", "xs"]
    return st.builds(Polynomial, st.lists(st.tuples(st.sampled_from(words), gaussians),
                                          min_size=1, max_size=3),
                     st.just(GR_ZERO) | gaussians)


class TestRecursionAgainstFockModel:
    """polynomial_moments against the canonical Fock model of
    :func:`fock_graded_moments`, which shares no code with it, on random
    polynomials linear in s and their self-adjoint parts, with a
    non-semicircular s and a formal x."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), linear_poly(n))),
           st.lists(rationals, min_size=10, max_size=10),
           st.lists(rationals, min_size=20, max_size=20))
    def test_equals_fock_model(self, order_poly, ks, kx):
        order, p = order_poly
        dist_s = CumulantSequence(ks[:2] + [ks[2] or 1] + ks[3:])  # kappa_3 != 0
        dist_x = CumulantSequence(kx)
        for q in (p, p + p.adjoint()):
            oracle = [m for (m,) in fock_graded_moments([q], dist_s, dist_x, order)]
            if any(m.im for m in oracle):
                assert q == p
                with pytest.raises(DomainError):
                    polynomial_moments(q, dist_s, dist_x, order)
            else:
                assert polynomial_moments(q, dist_s, dist_x, order).values == tuple(
                    m.re for m in oracle)


# Orders 3-6 with two Q(i) polynomials; orders 5 and 6 use words of at
# most two letters, so one pass stays well under a second.
order_and_two_polys = st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.just(n), *[hermitian_poly(12 // n) | any_poly(12 // n)] * 2))

# most letters of one kind in a term (3) times the highest order for it (4)
longer_kappas = st.lists(rationals, min_size=12, max_size=12)


class TestGradedMoments:
    """The t-graded moments of the Fock model, which the oracle of the
    cancellation sums reads, against the moments of the sum at fixed t."""

    @settings(max_examples=40, deadline=None)
    @given(order_and_two_polys, longer_kappas, longer_kappas)
    def test_evaluated_at_t_equals_moments_of_the_sum(self, order_polys, ks, kx):
        order, p0, p1 = order_polys
        dist_s, dist_x = CumulantSequence(ks), CumulantSequence(kx)
        if dist_s.is_semicircular:
            dist_s = CumulantSequence([1] + ks[1:])
        graded = fock_graded_moments([p0, p1], dist_s, dist_x, order)
        assert [len(m) for m in graded] == [j + 1 for j in range(order + 1)]
        for t in (0, 1, 2, -3):
            at_t = [sum((c * t ** d for d, c in enumerate(m)), GR_ZERO) for m in graded]
            p = p0 + scaled(p1, t)
            try:
                moments = engine_moments(p, dist_s, dist_x, order)
            except DomainError:
                assert any(m.im for m in at_t)
            else:
                assert at_t == [GaussianRational(m) for m in moments.values]

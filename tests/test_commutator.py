import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecommutant import cli, commutator
from freecommutant.commutator import (
    I_S_X,
    I_X_S,
    AdditivityReport,
    DistributionPair,
    cancellation_sum,
    cancellation_sums,
    closed_form_cumulant,
    closed_form_cumulants,
    commutator_polynomial,
    cumulant_sequence_of,
    expansion_cumulant,
    freeness_witness,
    perturbed_partner,
    sum_with_commutator,
    verify_additivity,
)
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
    cumulants_from_moments,
    polynomial_moments,
)
from freecommutant.errors import DomainError, EngineConsistencyError, TruncationError
from partition_oracles import fock_cancellation_sums, gaussian

STD_S = CumulantSequence.semicircular(1, 8)
FP1 = CumulantSequence.free_poisson(1, 8)


def bernoulli_half(order=8):
    return cumulants_from_moments(MomentSequence([1] + [Fraction(1, 2)] * order), order)


def atomic_third(order=8):
    moments = [1] + [Fraction(1, 3) * (-1) ** k + Fraction(2, 3) * 2 ** k
                     for k in range(1, order + 1)]
    return cumulants_from_moments(MomentSequence(moments), order)


def _coefficients_from_values(values):
    """Coefficients c_0..c_d of the polynomial of degree <= d that takes
    ``values[t]`` at t = 0..d: Newton forward differences, with each
    binomial C(t, j) expanded to monomials."""
    coeffs = [Fraction(0)] * len(values)
    diffs = list(values)
    binomial = [Fraction(1)]  # C(t, j) by powers of t
    for j in range(len(values)):
        for i, b in enumerate(binomial):
            coeffs[i] += diffs[0] * b
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        # C(t, j + 1) = C(t, j) (t - j) / (j + 1)
        binomial = [(lo - j * hi) / (j + 1) for lo, hi in zip([0] + binomial, binomial + [0])]
    return coeffs


def per_t_coefficients(n, pair):
    """The coefficients of t^0..t^n in kappa_n(s + t(sx - xs)) by one
    cumulant sequence per t = 0..n, interpolated."""
    values = []
    for t in range(n + 1):
        p = Polynomial([("s", GR_ONE), ("sx", gaussian(t)),
                        ("xs", gaussian(-t))])
        values.append(cumulant_sequence_of(p, pair, n).kappa(n))
    return _coefficients_from_values(values)


def x_suite(order):
    # the acceptance suite's laws for x
    return [bernoulli_half(order), CumulantSequence.free_poisson(1, order),
            CumulantSequence.semicircular(1, order), atomic_third(order)]


class TestCommutatorPolynomial:
    def test_definition(self):
        assert commutator_polynomial(I_S_X) == Polynomial([("sx", GR_I), ("xs", -GR_I)])
        assert commutator_polynomial(I_X_S) == Polynomial([("xs", GR_I), ("sx", -GR_I)])

    def test_self_adjoint(self):
        assert commutator_polynomial(I_S_X).is_self_adjoint
        assert commutator_polynomial(I_X_S).is_self_adjoint

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            commutator_polynomial("i[y,z]")


class TestCumulantSequenceOf:
    def test_commutator_variance_is_twice_product(self):
        pair = DistributionPair.standard(FP1, 1, 4)
        seq = cumulant_sequence_of(commutator_polynomial(I_S_X), pair, 4)
        assert seq.kappa(2) == 2  # 2 * kappa_2(s) * kappa_2(x)

    def test_odd_commutator_cumulants_vanish(self):
        # the law of i[s,x] is symmetric because s and -s agree in law
        for x in (FP1, atomic_third()):
            pair = DistributionPair.standard(x, 1, 7)
            seq = cumulant_sequence_of(commutator_polynomial(I_S_X), pair, 7)
            assert all(seq.kappa(n) == 0 for n in (1, 3, 5, 7))

    def test_plain_letter_recovers_inputs(self):
        pair = DistributionPair.standard(atomic_third(), 1, 6)
        seq = cumulant_sequence_of(Polynomial.from_word("s"), pair, 6)
        assert seq.values == pair.dist_s.values[:6]
        seq_x = cumulant_sequence_of(Polynomial.from_word("x"), pair, 6)
        assert seq_x.values == pair.dist_x.values[:6]

    def test_no_order_cap(self, monkeypatch):
        # the library computes any order its inputs reach; only the CLI caps
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 9), 1, 9)
        seq = cumulant_sequence_of(Polynomial.from_word("x"), pair, 9)
        assert seq.values == pair.dist_x.values
        with pytest.raises(TruncationError):
            cumulant_sequence_of(Polynomial.from_word("s"), DistributionPair.standard(FP1, 1, 8), 9)

    def test_imaginary_parts_vanish_for_self_adjoint_suite(self):
        pair = DistributionPair(GENERIC_S := CumulantSequence(
            [Fraction(1, 3), 2, Fraction(-1, 2), 1, 0, 2], ), CumulantSequence(
            [Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 16), 3, -2]))
        for p in (Polynomial.from_word("s"), Polynomial.from_word("x"),
                  commutator_polynomial(I_S_X), perturbed_partner()):
            # raises EngineConsistencyError if any imaginary part survives
            cumulant_sequence_of(p, pair, 6)


class TestAdditivity:
    def test_bernoulli_all_hold_to_six(self):
        pair = DistributionPair.standard(bernoulli_half(), 1, 6)
        reports = verify_additivity(pair, 6)
        assert all(r.holds for r in reports)
        assert pair.dist_s.is_semicircular

    def test_point_mass_is_degenerate(self):
        pair = DistributionPair.standard(CumulantSequence([5, 0, 0, 0, 0, 0]), 1, 6)
        reports = verify_additivity(pair, 6)
        assert all(r.holds for r in reports)
        assert all(r.rhs_c == 0 for r in reports)

    def test_free_poisson_second_order_split(self):
        pair = DistributionPair.standard(FP1, 1, 2)
        report = verify_additivity(pair, 2)[1]
        assert (report.lhs, report.rhs_s, report.rhs_c) == (3, 1, 2)

    def test_short_s_sequence_is_truncation_error(self):
        pair = DistributionPair(CumulantSequence.semicircular(1, 3), FP1)
        with pytest.raises(TruncationError):
            verify_additivity(pair, 4)

    def test_exploratory_mode_flags_hypothesis(self):
        quartic_s = CumulantSequence([0, 1, 0, 1, 0, 0], )
        pair = DistributionPair(quartic_s, FP1)
        reports = verify_additivity(pair, 4)
        assert not pair.dist_s.is_semicircular

    def test_exploratory_mode_detects_failures(self):
        # negative control: a free Poisson in place of the semicircular
        # element breaks the comparison at third order, so the verdicts
        # are not vacuous
        pair = DistributionPair(FP1, FP1)
        reports = verify_additivity(pair, 4)
        assert reports[0].holds and reports[1].holds
        assert not reports[2].holds
        assert not pair.dist_s.is_semicircular

    def test_report_json_shape(self):
        r = AdditivityReport(2, Fraction(3), Fraction(1), Fraction(2))
        assert r.to_json() == {"n": 2, "lhs": "3", "rhs_s": "1", "rhs_c": "2", "holds": True}


class TestAdditivityPastTheExpansion:
    """Orders the 3^n expansion cannot reach in a test run."""

    @pytest.mark.parametrize("s_var", [1, 2])
    def test_order_10_over_the_x_suite(self, s_var):
        for dist_x in x_suite(10):
            pair = DistributionPair.standard(dist_x, s_var, 10)
            reports = verify_additivity(pair, 10)
            assert all(r.holds for r in reports), dist_x
            assert any(r.rhs_c for r in reports), dist_x  # the commutator is not 0

    def test_order_12(self):
        pair = DistributionPair.standard(atomic_third(12), 2, 12)
        assert all(r.holds for r in verify_additivity(pair, 12))

    def test_runs_past_the_cli_cap_with_the_variable_unset(self, monkeypatch):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 9), 1, 9)
        reports = verify_additivity(pair, 9)
        assert len(reports) == 9 and all(r.holds for r in reports)


class TestFreenessWitness:
    def test_standard_poisson(self):
        assert freeness_witness(DistributionPair.standard(FP1, 1, 4)) == 1

    def test_scalar_x_gives_zero(self):
        pair = DistributionPair.standard(CumulantSequence([3, 0, 0, 0]), 1, 4)
        assert freeness_witness(pair) == 0

    def test_variances_multiply(self):
        x = CumulantSequence([0, 3, 0, 0])
        pair = DistributionPair(CumulantSequence.semicircular(2, 4), x)
        assert freeness_witness(pair) == 12

    def test_positive_whenever_variances_are(self):
        for x in (bernoulli_half(), FP1, atomic_third()):
            for s_var in (1, 2, Fraction(1, 3)):
                pair = DistributionPair(CumulantSequence.semicircular(s_var, 8), x)
                assert freeness_witness(pair) == Fraction(s_var) ** 2 * x.kappa(2) > 0

    def test_scaling_in_x_is_quadratic(self):
        base = DistributionPair.standard(FP1, 1, 4)
        w0 = freeness_witness(base)
        for c in (2, -1, Fraction(1, 3)):
            scaled = DistributionPair.standard(FP1.dilated(c), 1, 4)
            assert freeness_witness(scaled) == Fraction(c) ** 2 * w0

    def test_an_imaginary_part_is_an_engine_fault(self, monkeypatch):
        # s and i[s,x] are self-adjoint, so a nonzero imaginary part can only
        # come from a fault in the cumulant engine
        monkeypatch.setattr(commutator, "cumulant_of_polynomials", lambda *args: gaussian(2, 1))
        with pytest.raises(EngineConsistencyError):
            freeness_witness(DistributionPair.standard(FP1, 1, 4))


class TestCancellation:
    def test_poisson_examples(self):
        pair = DistributionPair.standard(FP1, 1, 8)
        assert not cancellation_sum(4, 2, pair)
        assert not cancellation_sum(3, 1, pair)

    def test_two_one_by_hand(self):
        # the four summands cancel in adjacent pairs
        x = CumulantSequence([1, 1, 1, 1])
        pair = DistributionPair.standard(x, 1, 4)
        assert not cancellation_sum(2, 1, pair)

    def test_all_small_orders_vanish(self):
        pair = DistributionPair.standard(atomic_third(), 1, 8)
        for n in range(2, 6):
            for k in range(1, n):
                assert not cancellation_sum(n, k, pair)

    def test_requires_semicircular_s(self):
        pair = DistributionPair(CumulantSequence([1, 1, 1, 1]), FP1)
        with pytest.raises(DomainError):
            cancellation_sum(3, 1, pair)

    def test_bad_k(self):
        pair = DistributionPair.standard(FP1, 1, 4)
        with pytest.raises(DomainError):
            cancellation_sum(3, 3, pair)

    def test_returns_gaussian_rational(self):
        pair = DistributionPair.standard(FP1, 1, 4)
        value = cancellation_sum(2, 1, pair)
        assert isinstance(value, GaussianRational)
        assert value.im == 0

    def test_command_makes_two_engine_passes(self, capsys, monkeypatch):
        passes = []

        def counted(*args, **kwargs):
            passes.append(args[-1])
            return polynomial_moments(*args, **kwargs)

        monkeypatch.setattr(commutator, "polynomial_moments", counted)
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        assert cli.main(["cancellation", "--x", "atomic(1/3:-1,2/3:2)",
                         "--max-order", "8"]) == 0
        capsys.readouterr()
        # every cell of orders 2..8 from one bound and one evaluation
        assert passes == [8, 8]

    def test_sums_hold_every_order_up_to_the_one_asked(self):
        pair = DistributionPair(CumulantSequence.semicircular(1, 6), FP1)
        sums = cancellation_sums(pair, 6)
        assert [len(coeffs) for coeffs in sums] == [2, 3, 4, 5, 6, 7]
        assert sums[5] == per_t_coefficients(6, pair)
        assert all(not coeffs[k] for n, coeffs in enumerate(sums, start=1)
                   for k in range(1, n))

    def test_n_runs_past_the_cli_cap_with_the_variable_unset(self, monkeypatch):
        monkeypatch.delenv("FREECOMMUTANT_MAX_ORDER", raising=False)
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 9), 1, 9)
        assert not cancellation_sum(9, 3, pair)
        assert len(cancellation_sums(pair, 9)) == 9
        with pytest.raises(TruncationError):  # only the inputs bound n
            cancellation_sums(pair, 10)


class TestCoefficientsFromValues:
    """The interpolation that :func:`per_t_coefficients` rests on."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                    min_size=1, max_size=13))
    def test_recovers_every_coefficient(self, coeffs):
        # degree 0..12, evaluated at t = 0..degree
        values = [sum(c * t ** i for i, c in enumerate(coeffs)) for t in range(len(coeffs))]
        assert _coefficients_from_values(values) == coeffs


class TestCancellationAgainstTheWalk:
    """The coefficient route against the signed double sum by the partition
    walk, with a non-semicircular s so that the sums do not vanish."""

    S = CumulantSequence([Fraction(1, 3), 2, Fraction(-1, 2), 1, Fraction(3, 2)])
    X = CumulantSequence([Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 16), 3])

    def walk_sums(self, n):
        s = Polynomial.from_word("s")
        d = Polynomial([("sx", GR_ONE), ("xs", -GR_ONE)])  # sx - xs
        sums = []
        for k in range(n + 1):
            total = GR_ZERO
            for block in itertools.combinations(range(n), k):
                args = [d if i in block else s for i in range(n)]
                total = total + cumulant_of_polynomials(args, self.S, self.X)
            assert total.im == 0
            sums.append(total.re)
        return sums

    def test_coefficients_equal_walk_sums(self):
        pair = DistributionPair(self.S, self.X)
        nonzero_even = 0
        for n, coeffs in enumerate(cancellation_sums(pair, 5), start=1):
            assert coeffs == self.walk_sums(n), n
            nonzero_even += sum(1 for k in range(2, n, 2) if coeffs[k])
        assert nonzero_even >= 2  # an extractor returning 0 would fail

    def test_guard_still_refuses_this_pair(self):
        with pytest.raises(DomainError):
            cancellation_sum(3, 2, DistributionPair(self.S, self.X))


class TestCancellationAgainstPerT:
    """The one t-graded pass against one cumulant sequence per value of t,
    past the orders the walk reaches, with a non-semicircular s."""

    S = CumulantSequence([Fraction(1, 3), 2, Fraction(-1, 2), 1, Fraction(3, 2), -1,
                          Fraction(2, 7), 1, Fraction(-3, 11), Fraction(1, 13)])
    X = CumulantSequence([Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 16), 3, 0,
                          Fraction(-5, 3), 2, 0, Fraction(7, 5)])

    def test_coefficients_equal_per_t_values(self):
        pair = DistributionPair(self.S, self.X)
        nonzero_even = 0
        for n, coeffs in enumerate(cancellation_sums(pair, 10), start=1):
            assert coeffs == per_t_coefficients(n, pair), n
            nonzero_even += sum(1 for k in range(2, n, 2) if coeffs[k])
        assert nonzero_even >= 2


# zeros, negative values and denominators from 1 to about 10^20
rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.sampled_from((1, 2, 3, 7, 10 ** 20 + 1, 10 ** 20 + 39, 2 ** 67)))


class TestCancellationAgainstFockModel:
    """The Kronecker evaluation against the t-graded moments of the Fock
    model (:func:`fock_cancellation_sums`), which share no code with it."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 10), st.lists(rationals, min_size=10, max_size=10),
           st.lists(rationals, min_size=10, max_size=10), st.booleans())
    def test_equals_fock_model(self, order, kx, ks, semicircular):
        # every order up to the one drawn is compared
        dist_x = CumulantSequence(kx)
        if semicircular:
            dist_s = CumulantSequence.semicircular(ks[1], 10)
        else:  # with kappa_1(s) != 0
            dist_s = CumulantSequence([ks[0] or 1] + ks[1:])
        sums = cancellation_sums(DistributionPair(dist_s, dist_x), order)
        assert sums == fock_cancellation_sums(dist_s, dist_x, order)

    @pytest.mark.parametrize("ks, kx", [
        ([0, 3, 0, 0], [-1, -1, 0, -1]),
        ([-1, -1, Fraction(1, 2), 3], [-2, 0, -3, 0]),
    ], ids=["semicircular-s", "generic-s"])
    def test_negative_cumulants_take_the_unsigned_bound(self, ks, kx):
        # a bound taken from the signed cumulants is too small for these
        dist_s, dist_x = CumulantSequence(ks), CumulantSequence(kx)
        sums = cancellation_sums(DistributionPair(dist_s, dist_x), 4)
        assert sums == fock_cancellation_sums(dist_s, dist_x, 4)

    def test_order_24_is_pinned(self):
        # recorded from the t-graded pass this evaluation replaced; the odd
        # middle coefficients of order 24 vanish and the even ones do not
        dist_s = CumulantSequence([Fraction((-1) ** k * (k % 5 + 1), k + 2)
                                   for k in range(1, 25)])
        sums = cancellation_sums(DistributionPair(dist_s, atomic_third(24)), 24)
        assert sum(1 for k in range(1, 24) if sums[23][k]) == 11
        assert sums[23][12] == Fraction(23010938644320854066401553, 170177482873157760000)
        text = json.dumps([[str(c) for c in row] for row in sums])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "361bd042475c64a9ef0c7fec94685a9c8229a7e2e62a6c232639cb90a0610a06")


class TestExpansionAgainstTheWalk:
    @pytest.mark.parametrize("s_var", [1, Fraction(1, 2)])
    def test_fock_route_equals_walk_through_six(self, s_var):
        for dist_x in x_suite(6):
            for n in range(1, 7):
                pair = DistributionPair.standard(dist_x, s_var, max(n, 2))
                walk = cumulant_of_polynomials(
                    [perturbed_partner()] * n, pair.dist_s, pair.dist_x)
                assert walk.im == 0
                assert expansion_cumulant(n, dist_x, s_var) == walk.re, (dist_x, n)

    @pytest.mark.parametrize("poly", [commutator_polynomial(I_S_X), sum_with_commutator()],
                             ids=["i[s,x]", "s+i[s,x]"])
    def test_moment_route_equals_joint_cumulants_at_seven_and_eight(self, poly):
        # kappa_1(s) and kappa_3(s) are nonzero, so odd blocks of s count too;
        # order 8 takes tuples of 16 letters
        dist_s = CumulantSequence([Fraction(1, 3), 2, Fraction(-1, 2), 1, 0, 2, 1, 1])
        pair = DistributionPair(dist_s, atomic_third())
        sequence = cumulant_sequence_of(poly, pair, 8)
        for n in (7, 8):
            joint = cumulant_of_polynomials([poly] * n, pair.dist_s, pair.dist_x)
            assert joint.im == 0 and joint.re == sequence.kappa(n), n


class TestPastTheWalkHorizon:
    """Orders the partition walk cannot reach in a test run."""

    def test_cancellation_vanishes_through_order_10(self):
        pair = DistributionPair.standard(atomic_third(10), 2, 10)
        sums = cancellation_sums(pair, 10)
        for n in range(2, 11):
            for k in range(1, n):
                assert not sums[n - 1][k], (n, k)
        assert not cancellation_sum(10, 5, pair)
        # the top coefficient is kappa_10(sx - xs), which does not vanish
        assert sums[9][10]

    def test_cancellation_vanishes_through_order_12(self):
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 12), Fraction(1, 2), 12)
        sums = cancellation_sums(pair, 12)
        for n in range(2, 13):
            for k in range(1, n):
                assert not sums[n - 1][k], (n, k)
        # the top coefficient is kappa_12(sx - xs), which does not vanish
        assert sums[11][12]

    def test_closed_form_equals_expansion_nine_to_twelve(self):
        for dist_x in x_suite(12):
            for n in range(9, 13):
                assert closed_form_cumulant(n, dist_x) == expansion_cumulant(
                    n, dist_x, 1), (dist_x, n)


class TestReachToForty:
    """The verdicts at orders the canonical Fock model could not reach: the
    B-valued recursion against the closed form, and the additivity and
    cancellation identities."""

    def test_expansion_equals_closed_form_through_40(self):
        for dist_x in (atomic_third(40), CumulantSequence.free_poisson(Fraction(2, 3), 40)):
            pair = DistributionPair.standard(dist_x, 1, 40)
            expansion = cumulant_sequence_of(perturbed_partner(), pair, 40)
            assert list(expansion.values) == closed_form_cumulants(40, dist_x)

    def test_additivity_holds_through_40(self):
        pair = DistributionPair.standard(atomic_third(40), Fraction(3, 2), 40)
        reports = verify_additivity(pair, 40)
        assert len(reports) == 40 and all(r.holds for r in reports)
        assert reports[39].rhs_c  # the commutator is not 0

    def test_cancellation_vanishes_through_24(self):
        pair = DistributionPair.standard(atomic_third(24), Fraction(3, 2), 24)
        sums = cancellation_sums(pair, 24)
        for n in range(2, 25):
            for k in range(1, n):
                assert not sums[n - 1][k], (n, k)
        assert sums[23][24]

    def test_a_non_semicircular_s_breaks_both(self):
        # kappa_4(s) = 1: neither identity may survive to order 8
        pair = DistributionPair(CumulantSequence([0, 1, 0, 1, 0, 0, 0, 0]), atomic_third())
        assert not all(r.holds for r in verify_additivity(pair, 8))
        sums = cancellation_sums(pair, 8)
        assert any(sums[n - 1][k] for n in range(2, 9) for k in range(1, n))


class TestClosedForm:
    def test_first_order_is_bare_cumulant(self):
        # oracle: no interval partition of {1} has all blocks of size >= 2
        assert closed_form_cumulant(1, FP1) == FP1.kappa(1)

    def test_second_order_triples_the_variance(self):
        for x in (FP1, bernoulli_half(), atomic_third()):
            assert closed_form_cumulant(2, x) == 3 * x.kappa(2)
            assert expansion_cumulant(2, x, 1) == 3 * x.kappa(2)

    def test_third_order_quadruples(self):
        for x in (FP1, atomic_third()):
            assert closed_form_cumulant(3, x) == 4 * x.kappa(3)

    def test_fourth_order_poisson(self):
        # oracle value from the full expansion: 7*kappa_4 + 2*kappa_2^2 = 9
        assert expansion_cumulant(4, FP1, 1) == 9
        assert closed_form_cumulant(4, FP1) == 9

    def test_matches_expansion_through_six(self):
        for x in (FP1, bernoulli_half(), CumulantSequence.semicircular(1, 8)):
            for n in range(1, 7):
                assert closed_form_cumulant(n, x) == expansion_cumulant(n, x, 1)

    def test_general_variance_second_order(self):
        for t in (1, 2, Fraction(1, 3)):
            got = expansion_cumulant(2, FP1, t)
            assert got == FP1.kappa(2) * (1 + 2 * Fraction(t))

    def test_commutator_scaling_in_x(self):
        pair = DistributionPair.standard(FP1, 1, 6)
        base = cumulant_sequence_of(commutator_polynomial(I_S_X), pair, 6)
        for c in (2, -1, Fraction(1, 3)):
            scaled_pair = DistributionPair.standard(FP1.dilated(c), 1, 6)
            scaled = cumulant_sequence_of(commutator_polynomial(I_S_X), scaled_pair, 6)
            for n in range(1, 7):
                assert scaled.kappa(n) == Fraction(c) ** n * base.kappa(n)

    def test_the_weight_identity_holds_exactly_below_200(self):
        # C(a-b-1, b-1) + C(a-b, b) = (a/b) C(a-b-1, b-1): the floor division
        # in the closed form's weight is exact, and that weight is the series'
        # own plus the composition formula's, so verify-fock's composition
        # and closed_form columns agree
        for a in range(1, 200):
            for b in range(1, a // 2 + 1):
                own = math.comb(a - b - 1, b - 1)
                assert a * own % b == 0, (a, b)
                assert a * own // b == own + math.comb(a - b, b), (a, b)

    def test_sum_with_commutator_polynomials(self):
        assert sum_with_commutator() == (
            Polynomial([("s", gaussian(1)),
                        ("sx", GR_I), ("xs", -GR_I)]))
        assert perturbed_partner().is_self_adjoint


class TestClosedFormRegressionTable:
    # frozen after verifying each entry against the expansion oracle
    TABLE = {
        "bernoulli": ["1/2", "3/4", "0", "-5/16", "0", "13/32", "0", "-157/256"],
        "free-poisson": ["1", "3", "4", "9", "16", "35", "71", "157"],
        "semicircle": ["0", "3", "0", "2", "0", "2", "0", "2"],
        "atomic-third": ["1", "6", "-8", "-6", "90", "-128", "-798", "3834"],
    }

    def dists(self):
        return {
            "bernoulli": bernoulli_half(),
            "free-poisson": FP1,
            "semicircle": CumulantSequence.semicircular(1, 8),
            "atomic-third": atomic_third(),
        }

    def test_table(self):
        for name, dist in self.dists().items():
            got = [str(closed_form_cumulant(n, dist)) for n in range(1, 9)]
            assert got == self.TABLE[name], name


class TestMomentRouteCrossCheck:
    """Third route to the cumulant sequences: raw moments of the polynomial
    by summing traces of concatenated words (the join condition is vacuous
    for a single word), then inverting the moment-cumulant relation."""

    @staticmethod
    def moments_by_trace(p, order, pair):
        traces = {}  # one walk per distinct word
        values = [Fraction(1)]
        for n in range(1, order + 1):
            total = GR_ZERO
            for choice in itertools.product(p.terms, repeat=n):
                coeff = GR_ONE
                for _w, c in choice:
                    coeff = coeff * c
                word = "".join(w for w, _c in choice)
                if word not in traces:
                    traces[word] = cumulant_of_word_products((word,), pair.dist_s, pair.dist_x)
                total = total + coeff * traces[word]
            assert total.im == 0
            values.append(total.re)
        return MomentSequence(values)

    @pytest.mark.parametrize("poly", [
        commutator_polynomial(I_S_X),
        sum_with_commutator(),
        perturbed_partner(),
    ], ids=["i[s,x]", "s+i[s,x]", "x+i[x,s]"])
    def test_trace_moments_invert_to_engine_cumulants(self, poly):
        for dist_x in (FP1, bernoulli_half()):
            pair = DistributionPair.standard(dist_x, 1, 6)
            m = self.moments_by_trace(poly, 6, pair)
            assert cumulants_from_moments(m, 6) == cumulant_sequence_of(poly, pair, 6)

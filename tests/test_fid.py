from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecommutant.commutator import (
    DistributionPair,
    closed_form_cumulant,
    cumulant_sequence_of,
    sum_with_commutator,
    verify_additivity,
)
from freecommutant.cumulants import CumulantSequence, MomentSequence, moments_from_cumulants
from freecommutant.errors import TruncationError
from freecommutant.fid import FidVerdict, compound_poisson_from_rho, hankel_fid_check
from partition_oracles import boxplus

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestBoxplus:
    def test_semicircle_variances_add(self):
        s = CumulantSequence.semicircular(1, 6)
        got = boxplus(s, s, 6)
        assert got == CumulantSequence.semicircular(2, 6)

    def test_zero_is_neutral(self):
        a = CumulantSequence([1, 2, 3, 4])
        assert boxplus(a, CumulantSequence([0] * 4), 4) == a

    def test_matches_additivity_reports(self):
        pair = DistributionPair.standard(CumulantSequence.free_poisson(1, 6), 1, 6)
        reports = verify_additivity(pair, 6)
        rhs = CumulantSequence([r.rhs_c for r in reports])
        lhs = CumulantSequence([r.lhs for r in reports])
        assert boxplus(pair.dist_s, rhs, 6) == lhs

    def test_truncation(self):
        with pytest.raises(TruncationError):
            boxplus(CumulantSequence([1]), CumulantSequence([1, 2]), 2)

    @settings(max_examples=50)
    @given(st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3))
    def test_commutative_associative(self, a, b, c):
        sa, sb, sc = (CumulantSequence(v) for v in (a, b, c))
        assert boxplus(sa, sb, 3) == boxplus(sb, sa, 3)
        assert boxplus(boxplus(sa, sb, 3), sc, 3) == boxplus(sa, boxplus(sb, sc, 3), 3)


class TestCompoundPoisson:
    def test_point_mass_driver_gives_free_poisson(self):
        rho = MomentSequence.from_atoms([(1, 1)], 8)
        assert compound_poisson_from_rho(rho, 8) == CumulantSequence.free_poisson(1, 8)

    def test_symmetric_bernoulli_driver(self):
        rho = MomentSequence.from_atoms([(Fraction(1, 2), -1), (Fraction(1, 2), 1)], 6)
        got = compound_poisson_from_rho(rho, 6)
        assert got == CumulantSequence([0, 1, 0, 1, 0, 1])

    def test_scaled_point_mass(self):
        rho = MomentSequence.from_atoms([(1, Fraction(3, 2))], 5)
        got = compound_poisson_from_rho(rho, 5)
        assert got == CumulantSequence([Fraction(3, 2) ** n for n in range(1, 6)])

    @pytest.mark.parametrize("order", range(1, 11))
    def test_moment_pipeline_total(self, order):
        rho = MomentSequence.from_atoms([(Fraction(1, 3), -1), (Fraction(2, 3), 2)], order)
        seq = compound_poisson_from_rho(rho, order)
        moments_from_cumulants(seq, order)  # must be total and exact

    def test_truncation(self):
        with pytest.raises(TruncationError):
            compound_poisson_from_rho(MomentSequence.from_atoms([(1, 1)], 3), 4)


class TestHankelCheck:
    def test_semicircle_rank_one_passes(self):
        verdict = hankel_fid_check(CumulantSequence.semicircular(1, 8), 3)
        assert verdict.psd
        assert verdict.failure_index is None
        assert verdict.pivots[0] == 1

    def test_symmetric_bernoulli_fails_at_two(self):
        seq = CumulantSequence([0, 1, 0, -1])
        verdict = hankel_fid_check(seq, 2)
        assert not verdict.psd
        assert verdict.failure_index == 1
        assert verdict.pivots == (1, -1)

    def test_perturbed_free_poisson_commutator_passes(self):
        dist_x = CumulantSequence.free_poisson(1, 8)
        seq = CumulantSequence([closed_form_cumulant(n, dist_x) for n in range(1, 7)])
        verdict = hankel_fid_check(seq, 3)
        assert verdict.psd

    def test_zero_pivot_with_nonzero_row_fails(self):
        # [[0, 1], [1, 0]] is indefinite
        seq = CumulantSequence([9, 0, 1, 0])
        verdict = hankel_fid_check(seq, 2)
        assert not verdict.psd
        assert verdict.failure_index == 0

    def test_append_invariance(self):
        base = CumulantSequence([0, 1, 0, -1])
        longer = CumulantSequence([0, 1, 0, -1, 7, 7, 7, 7])
        assert hankel_fid_check(base, 2) == hankel_fid_check(longer, 2)

    def test_order_bookkeeping(self):
        verdict = hankel_fid_check(CumulantSequence.semicircular(1, 8), 3)
        assert verdict.order_checked == 6
        with pytest.raises(TruncationError):
            hankel_fid_check(CumulantSequence.semicircular(1, 5), 3)

    def test_json_shape(self):
        verdict = FidVerdict(4, (Fraction(1), Fraction(-1, 2)), False, 1)
        assert verdict.to_json() == {
            "order": 4, "psd": False, "failure_index": 1, "pivots": ["1", "-1/2"]}


class TestFidWitnesses:
    @pytest.mark.parametrize("atoms", [
        [(1, 1)],
        [(1, 2)],
        [(Fraction(1, 2), -1), (Fraction(1, 2), 1)],
        [(Fraction(1, 2), 0), (Fraction(1, 2), 3)],
    ], ids=["delta1", "delta2", "symbern", "halfdelta3"])
    def test_both_commutator_sums_pass_at_size_three(self, atoms):
        rho = MomentSequence.from_atoms(atoms, 8)
        dist_x = compound_poisson_from_rho(rho, 8)
        perturbed = CumulantSequence(
            [closed_form_cumulant(n, dist_x) for n in range(1, 7)])
        assert hankel_fid_check(perturbed, 3).psd
        pair = DistributionPair.standard(dist_x, 1, 6)
        summed = cumulant_sequence_of(sum_with_commutator(), pair, 6)
        assert hankel_fid_check(summed, 3).psd

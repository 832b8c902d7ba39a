import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from freecommutant import fock
from freecommutant.commutator import (
    closed_form_cumulant,
    closed_form_cumulants,
    expansion_cumulant,
)
from freecommutant.cumulants import (
    CumulantSequence,
    MomentSequence,
    composition_series,
    dilate,
)
from freecommutant.errors import DomainError, TruncationError
from freecommutant.fid import compound_poisson_from_rho
from freecommutant.fock import (
    ADJOINT_PAIRS,
    FockVector,
    OperatorName,
    _apply_tensor,
    _operator_sums,
    apply,
    composition_formula_cumulant,
    composition_formula_cumulants,
    inner_product,
    model_cumulant,
    model_cumulants,
    verify_adjointness,
)
from partition_oracles import (
    SAMPLE_MOMENT_ORDER,
    add,
    adjoint_pairs_by_exhaustion,
    adjointness_by_fractions,
    enumerated_closed_form,
    enumerated_composition_formula,
    fock_vector,
    vacuum_moments_by_apply,
)

DELTA1 = MomentSequence.from_atoms([(1, 1)], 12)
DELTA2 = MomentSequence.from_atoms([(1, 2)], 12)
SYM_BERN = MomentSequence.from_atoms([(Fraction(1, 2), -1), (Fraction(1, 2), 1)], 12)
HALF_DELTA3 = MomentSequence.from_atoms([(Fraction(1, 2), 0), (Fraction(1, 2), 3)], 12)

ALL_RHOS = [DELTA1, DELTA2, SYM_BERN, HALF_DELTA3]

HAT_OPS = (OperatorName.XHAT, OperatorName.XSHAT, OperatorName.SXHAT)
TILDE_OPS = (OperatorName.XTILDE, OperatorName.XSTILDE, OperatorName.SXTILDE)
VACUUM = fock_vector([((0,), 1)])


def small_tensors(max_len=4, max_exp=2):
    for length in range(1, max_len + 1):
        for exps in itertools.product(range(max_exp + 1), repeat=length):
            yield exps


class TestRhoMoments:
    def test_delta_moments_are_powers(self):
        assert [DELTA2.moment(k) for k in range(5)] == [1, 2, 4, 8, 16]

    def test_weights_validated(self):
        with pytest.raises(DomainError):
            MomentSequence.from_atoms([(Fraction(1, 2), 0)], 4)
        with pytest.raises(DomainError):
            MomentSequence.from_atoms([(Fraction(-1, 2), 0), (Fraction(3, 2), 1)], 4)

    def test_head_must_be_one(self):
        with pytest.raises(DomainError):
            MomentSequence((2, 1))

    def test_from_atoms_equals_the_formal_sequence_of_its_values(self):
        formal = MomentSequence(SYM_BERN.values)
        assert formal == SYM_BERN and hash(formal) == hash(SYM_BERN)
        with pytest.raises(AttributeError):
            formal.values = ()

    def test_indexing_reads_the_moments_and_stops_at_the_ends(self):
        assert [DELTA2.moment(k) for k in range(13)] == [2 ** k for k in range(13)]
        for k in (13, -1):
            with pytest.raises(TruncationError):
                DELTA2.moment(k)


class TestApply:
    def test_xhat_on_vacuum_appends_a_power(self):
        got = apply(OperatorName.XHAT, VACUUM, DELTA1.values)
        assert got == fock_vector([((1,), 1)])

    def test_sxhat_kills_even_lengths(self):
        for exps in [(0, 0), (1, 2), (2, 0, 1, 3)]:
            got = apply(OperatorName.SXHAT, fock_vector([(exps, 1)]), DELTA1.values)
            assert not got.terms

    def test_xshat_on_length_two(self):
        got = apply(OperatorName.XSHAT, fock_vector([((1, 0), 1)]), DELTA1.values)
        assert got == fock_vector([((1, 0, 1), 1), ((2,), 1)])

    def test_parity_of_outputs(self):
        # up moves lengthen by one, down moves shorten by one; the kernel
        # parities force every output length's parity
        for exps in small_tensors():
            v = fock_vector([(exps, 1)])
            n = len(exps)
            for op, alive_parity in [
                (OperatorName.XHAT, 1), (OperatorName.XSHAT, 0), (OperatorName.SXHAT, 1),
                (OperatorName.XTILDE, 0), (OperatorName.XSTILDE, 1), (OperatorName.SXTILDE, 0),
            ]:
                out = apply(op, v, DELTA2.values)
                if n % 2 != alive_parity:
                    assert not out.terms
                for t in out.terms:
                    assert abs(len(t) - n) <= 1

    def test_linearity(self):
        u = fock_vector([((1, 0), Fraction(1, 2)), ((0,), 1)])
        v = fock_vector([((1, 0), 1), ((2, 0, 1), Fraction(-1, 3))])

        def scaled(w):
            return fock_vector((t, c * Fraction(5, 7)) for t, c in w.terms.items())

        for op in list(HAT_OPS) + list(TILDE_OPS):
            left = apply(op, add(u, scaled(v)), SYM_BERN.values)
            right = add(apply(op, u, SYM_BERN.values), scaled(apply(op, v, SYM_BERN.values)))
            assert left == right

    @pytest.mark.parametrize("ops,constant_parity", [
        (HAT_OPS, 1),    # even positions stay constant
        (TILDE_OPS, 0),  # first move appends at position 2: odd positions stay
    ], ids=["hat", "tilde"])
    def test_reachable_states_keep_one_parity_constant(self, ops, constant_parity):
        frontier = [VACUUM]
        for _ in range(5):
            nxt = []
            for state in frontier:
                for op in ops:
                    out = apply(op, state, DELTA2.values)
                    for t in out.terms:
                        assert all(e == 0 for i, e in enumerate(t)
                                   if i % 2 == constant_parity), (op, t)
                    if out.terms:
                        nxt.append(out)
            frontier = nxt


class TestInnerProduct:
    def test_single_slot_moment(self):
        assert inner_product(fock_vector([((1,), 1)]), VACUUM, DELTA2.values) == 2

    def test_length_mismatch_is_zero(self):
        u = fock_vector([((1, 0), 1)])
        assert inner_product(u, VACUUM, DELTA1.values) == 0

    def test_exponents_add_within_slots(self):
        u = fock_vector([((2,), 1)])
        v = fock_vector([((1,), 1)])
        assert inner_product(u, v, DELTA2.values) == DELTA2.moment(3)

    def test_bilinear(self):
        u = fock_vector([((1,), Fraction(1, 2))])
        v = fock_vector([((1,), 3), ((2,), 1)])
        got = inner_product(u, v, HALF_DELTA3.values)
        expected = (Fraction(1, 2) * 3 * HALF_DELTA3.moment(2)
                    + Fraction(1, 2) * HALF_DELTA3.moment(3))
        assert got == expected

    def test_missing_moment_order(self):
        short = MomentSequence((1, 1)).values
        with pytest.raises(IndexError):
            inner_product(fock_vector([((2,), 1)]), fock_vector([((1,), 1)]), short)


class TestModelCumulant:
    def test_first_order_parts(self):
        assert _operator_sums(1, DELTA1) == ([1], [0])

    def test_second_order_parts(self):
        assert _operator_sums(2, DELTA1) == ([1, 2], [0, 1])

    def test_second_order_symmetric_bernoulli(self):
        assert model_cumulant(2, SYM_BERN) == 3

    def test_needs_moments_past_the_order(self):
        with pytest.raises(TruncationError):
            model_cumulant(4, MomentSequence((1, 1, 1, 1)))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            model_cumulant(0, DELTA1)


class TestCompositionFormula:
    def test_first_order_is_first_moment(self):
        assert composition_formula_cumulant(1, DELTA1) == 1
        assert composition_formula_cumulant(1, DELTA2) == 2

    def test_second_order_delta1(self):
        assert composition_formula_cumulant(2, DELTA1) == 3

    def test_third_order_matches_closed_form(self):
        for rho in ALL_RHOS:
            dist_x = compound_poisson_from_rho(rho, 4)
            assert composition_formula_cumulant(3, rho) == closed_form_cumulant(3, dist_x)


class TestIdentityChain:
    @pytest.mark.parametrize("rho", ALL_RHOS, ids=["delta1", "delta2", "symbern", "halfdelta3"])
    def test_model_composition_closed_form_oracle(self, rho):
        dist_x = compound_poisson_from_rho(rho, 6)
        for n in range(1, 7):
            model = model_cumulant(n, rho)
            comp = composition_formula_cumulant(n, rho)
            closed = closed_form_cumulant(n, dist_x)
            oracle = expansion_cumulant(n, dist_x, 1)
            assert model == comp == closed == oracle


class TestModelSequencePastOrderTwelve:
    """The model's one pass over both operator sums against the two
    partition recursions and the partition enumerations at every order."""

    @pytest.mark.parametrize("atoms", [
        [(Fraction(1, 3), -1), (Fraction(2, 3), 2)],
        [(Fraction(3, 4), Fraction(-1, 2)), (Fraction(1, 4), Fraction(3, 2))],
        [(Fraction(1, 4), -2), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), 3)],
        [(Fraction(1, 6), -1), (Fraction(1, 3), 1), (Fraction(1, 2), 2)],
    ], ids=["two-atoms", "two-fractional-atoms", "three-atoms", "three-integer-atoms"])
    def test_every_order_through_fourteen(self, atoms):
        rho = MomentSequence.from_atoms(atoms, 15)
        dist_x = compound_poisson_from_rho(rho, 14)
        models = model_cumulants(14, rho)
        assert len(models) == 14
        assert models == composition_formula_cumulants(14, rho)
        assert models == closed_form_cumulants(14, dist_x)
        for n, model in enumerate(models, start=1):
            assert model == enumerated_composition_formula(n, rho)
            assert model == enumerated_closed_form(n, dist_x)

    def test_prefix_and_single_order_agree(self):
        models = model_cumulants(9, SYM_BERN)
        assert model_cumulants(5, SYM_BERN) == models[:5]
        assert [model_cumulant(n, SYM_BERN) for n in range(1, 10)] == models
        assert [sum(sums[-1] for sums in _operator_sums(n, SYM_BERN))
                for n in range(1, 10)] == models

    def test_needs_moments_past_the_order(self):
        # SYM_BERN carries m_0..m_12: enough for order 12, not for 13
        with pytest.raises(TruncationError):
            model_cumulants(13, SYM_BERN)
        assert model_cumulants(12, SYM_BERN) == composition_formula_cumulants(12, SYM_BERN)
        with pytest.raises(DomainError):
            model_cumulants(0, SYM_BERN)


def assert_parts_equal_the_literal_walk(rho, order):
    hat = vacuum_moments_by_apply(HAT_OPS, order, rho)
    tilde = vacuum_moments_by_apply(TILDE_OPS, order, rho)
    assert _operator_sums(order, rho) == (hat, tilde)
    assert model_cumulants(order, rho) == [h + t for h, t in zip(hat, tilde)]


class TestIntegerWalk:
    """The two-level recursion on integers against the walk on Fraction
    states through apply and inner_product, both operator sums, and the
    premise the recursion is read off from."""

    @pytest.mark.parametrize("atoms", [
        [(Fraction(1, 3), -1), (Fraction(2, 3), 2)],
        [(Fraction(1, 4), Fraction(-1, 2)), (Fraction(1, 2), 1), (Fraction(1, 4), 3)],
        [(Fraction(1, 7), Fraction(-2, 5)), (Fraction(6, 7), Fraction(1, 3))],
        [(Fraction(1, 2), 0), (Fraction(1, 2), 1)],
    ], ids=["two-atoms", "three-atoms", "prime-denominators", "atom-at-zero"])
    def test_atomic_laws_through_twelve(self, atoms):
        assert_parts_equal_the_literal_walk(MomentSequence.from_atoms(atoms, 13), 12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7, 11, 13)))),
        min_size=13, max_size=13))
    @example([Fraction(k % 5 - 2, (2, 3, 5, 7, 11, 13)[k % 6]) for k in range(1, 14)])
    def test_formal_moments_through_twelve(self, moments):
        assert_parts_equal_the_literal_walk(MomentSequence([Fraction(1)] + moments), 12)

    @pytest.mark.parametrize("op", list(OperatorName))
    def test_every_rule_keeps_all_but_the_last_two_slots(self, op):
        # the recursion's premise: a rule reads and writes only the top of a
        # stack of slots, and adds one to the exponent plus moment index
        for t in small_tensors(max_len=4, max_exp=3):
            keep = max(len(t) - 2, 0)
            for out, k in _apply_tensor(op, t):
                assert out[:keep] == t[:keep], (op, t, out)
                assert sum(out) + k == sum(t) + 1, (op, t, out, k)


# m_1..m_11 of a formal driving sequence: zeros, negatives and fractions
_FORMAL_MOMENT = st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))


class TestPartitionRecursions:
    """Both first-block recursions against the enumerations they replace,
    and against the operator model past the enumerations' reach."""

    @pytest.mark.parametrize("rho", ALL_RHOS, ids=["delta1", "delta2", "symbern", "halfdelta3"])
    def test_equal_the_enumerations_through_twelve(self, rho):
        dist_x = compound_poisson_from_rho(rho, 12)
        assert composition_formula_cumulants(12, rho) == [
            enumerated_composition_formula(n, rho) for n in range(1, 13)]
        assert closed_form_cumulants(12, dist_x) == [
            enumerated_closed_form(n, dist_x) for n in range(1, 13)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_FORMAL_MOMENT, min_size=11, max_size=11))
    @example([Fraction(0), Fraction(-1), Fraction(0), Fraction(2, 3)] + [Fraction(-1, 2)] * 7)
    def test_formal_sequences_through_ten(self, moments):
        rho = MomentSequence(tuple([Fraction(1)] + moments))
        dist_x = CumulantSequence(moments[:10])
        comp = composition_formula_cumulants(10, rho)
        assert comp == [enumerated_composition_formula(n, rho) for n in range(1, 11)]
        closed = closed_form_cumulants(10, dist_x)
        assert closed == [enumerated_closed_form(n, dist_x) for n in range(1, 11)]
        assert model_cumulants(10, rho) == comp == closed

    @pytest.mark.parametrize("atoms", [
        [(Fraction(1, 3), -1), (Fraction(2, 3), 2)],
        [(Fraction(1, 4), -2), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), 3)],
    ], ids=["two-atoms", "three-atoms"])
    def test_three_routes_agree_through_twenty_four(self, atoms):
        rho = MomentSequence.from_atoms(atoms, 25)
        dist_x = compound_poisson_from_rho(rho, 24)
        models = model_cumulants(24, rho)
        assert models == composition_formula_cumulants(24, rho) == closed_form_cumulants(24, dist_x)

    @pytest.mark.parametrize("atoms, order", [
        ([(Fraction(1, 3), -1), (Fraction(1, 3), 1), (Fraction(1, 3), 2)], 40),
        ([(Fraction(1, 7), Fraction(-2, 5)), (Fraction(6, 7), Fraction(1, 3))], 40),
        # the model route shares no code with the composition pass
        ([(Fraction(1, 3), -1), (Fraction(1, 3), 1), (Fraction(1, 3), 2)], 100),
    ], ids=["three-atoms", "prime-denominators", "three-atoms-order-100"])
    def test_three_routes_agree_through_forty(self, atoms, order):
        rho = MomentSequence.from_atoms(atoms, order + 1)
        dist_x = compound_poisson_from_rho(rho, order)
        models = model_cumulants(order, rho)
        assert models == composition_formula_cumulants(order, rho) == closed_form_cumulants(
            order, dist_x)

    def test_composition_pass_contract(self):
        def refuse(a, b):
            raise AssertionError(f"no row exists at order 1, weight({a}, {b}) called")

        assert composition_series([1, 5], 1, refuse) == ([1, 0], [0, 0])
        rho = MomentSequence.from_atoms(
            [(Fraction(1, 3), -1), (Fraction(1, 3), 1), (Fraction(1, 3), 2)], 30)
        values, _d = dilate(rho.values)
        for weight in (lambda a, c: math.comb(a - c, c), lambda a, b: 3 * a - 2 * b):
            series, sums = composition_series(values, 30, weight)
            assert sums[0] == 0 and len(series) == len(sums) == 31
            # a row left out of a diagonal shows as a prefix that depends on the order
            for order in range(1, 30):
                assert composition_series(values[:order + 1], order, weight) == (
                    series[:order + 1], sums[:order + 1])

    def test_pinned_orders_twenty_to_twenty_four(self):
        # three atoms, from the agreement of the model and both recursions
        rho = MomentSequence.from_atoms(
            [(Fraction(1, 4), -2), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), 3)], 24)
        pinned = [Fraction(v) for v in (
            "78143610313288802833257/536870912",
            "1837752691761548849480347/2147483648",
            "2714634842242546956387187/536870912",
            "513899917195968331422783949/17179869184",
            "6101317232040852837042467477/34359738368",
        )]
        assert composition_formula_cumulants(24, rho)[19:] == pinned
        assert closed_form_cumulants(24, compound_poisson_from_rho(rho, 24))[19:] == pinned

    def test_reject_nonpositive_order(self):
        with pytest.raises(DomainError):
            composition_formula_cumulants(0, DELTA1)
        with pytest.raises(DomainError):
            closed_form_cumulants(0, compound_poisson_from_rho(DELTA1, 4))


# Pairs the model does not claim adjoint: controls the check should refute.
NON_ADJOINT_PAIRS = (
    (OperatorName.XSHAT, OperatorName.XSHAT),
    (OperatorName.XHAT, OperatorName.XTILDE),
    (OperatorName.XSTILDE, OperatorName.XSTILDE),
    (OperatorName.SXHAT, OperatorName.XSTILDE),
)
BIG_DENOMINATOR_ATOMS = [(Fraction(1, 3), Fraction(1, 10 ** 23)),
                         (Fraction(2, 3), Fraction(-7, 10 ** 20 + 1))]
SYMMETRIC_ATOMS = [(Fraction(1, 2), -1), (Fraction(1, 2), 1)]


@st.composite
def _atomic_laws(draw):
    """1 to 6 atoms with positive weights, some positions over denominators
    past 10^20."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    dens = st.integers(1, 4) | st.integers(10 ** 20, 10 ** 21)
    points = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), dens), min_size=n, max_size=n))
    return [(Fraction(w, sum(weights)), p) for w, p in zip(weights, points)]


class TestAdjointness:
    @settings(max_examples=40, deadline=None)
    @given(_atomic_laws(), st.integers(0, 2 ** 32))
    @example(BIG_DENOMINATOR_ATOMS, 7)
    @example(SYMMETRIC_ATOMS, 11)  # 50 samples miss a control here
    def test_sampled_oracle_agrees_and_every_control_fails(self, atoms, seed):
        rho = MomentSequence.from_atoms(atoms, SAMPLE_MOMENT_ORDER)
        assert verify_adjointness(ADJOINT_PAIRS)
        assert adjointness_by_fractions(ADJOINT_PAIRS, 50, rho, seed)
        # With every odd moment 0 (a symmetric law, or all mass at 0) most
        # sampled pairings vanish, and 50 samples miss a control at some
        # seeds; the exact check has no such exemption.
        refutable = any(rho.moment(k) for k in range(1, SAMPLE_MOMENT_ORDER + 1, 2))
        for pair in NON_ADJOINT_PAIRS:
            assert not verify_adjointness([pair]), pair
            assert not (refutable and adjointness_by_fractions([pair], 50, rho, seed)), pair

    def test_the_sampled_blind_spot_is_refuted(self):
        control = (OperatorName.XSHAT, OperatorName.XSHAT)
        rho = MomentSequence.from_atoms(SYMMETRIC_ATOMS, SAMPLE_MOMENT_ORDER)
        assert adjointness_by_fractions([control], 50, rho, 11)
        assert not verify_adjointness([control])

    @pytest.mark.parametrize("pair", ADJOINT_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_each_claimed_pair_holds(self, pair):
        assert verify_adjointness([pair])

    @pytest.mark.parametrize("control", NON_ADJOINT_PAIRS,
                             ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_each_control_fails(self, control):
        assert not verify_adjointness([control])
        assert not verify_adjointness(ADJOINT_PAIRS + (control,))

    @pytest.mark.parametrize("slots,top", [(3, 1), (3, 2), (4, 2)])
    def test_the_checked_range_decides_every_pair(self, slots, top):
        # the reduction of verify_adjointness: exhausting more slots and
        # larger exponents than it checks gives its verdict on all 36 pairs,
        # six of them adjoint
        ops = OperatorName
        expected = set(ADJOINT_PAIRS) | {(ops.SXHAT, ops.XSHAT), (ops.SXTILDE, ops.XSTILDE)}
        assert {(a, b) for a in ops for b in ops if verify_adjointness([(a, b)])} == expected
        assert adjoint_pairs_by_exhaustion(slots, top) == expected

    @pytest.mark.parametrize("wrong_op,pair", [
        (OperatorName.SXHAT, (OperatorName.XSHAT, OperatorName.SXHAT)),
        (OperatorName.XSTILDE, (OperatorName.XSTILDE, OperatorName.SXTILDE)),
    ], ids=["sxhat", "xstilde"])
    def test_a_wrong_rule_seen_only_from_three_slots_is_refuted(self, monkeypatch, wrong_op, pair):
        # SXHAT and XSTILDE act on odd lengths and go down only from three
        # slots, so only the checked pairs behind a slot of exponent 0 see
        # their down moves; here those read the wrong moment
        table = fock._apply_tensor

        def wrong(op, t):
            for out, k in table(op, t):
                yield out, k + (op is wrong_op and len(out) < len(t))

        monkeypatch.setattr(fock, "_apply_tensor", wrong)
        assert pair not in adjoint_pairs_by_exhaustion(3, 1)
        assert not verify_adjointness([pair])

    def test_every_call_applies_the_operators(self, monkeypatch):
        # the verdict does not depend on rho, but is not cached: the
        # benchmark's traced pass counts these applications
        calls = []
        monkeypatch.setattr(fock, "apply", lambda *args: calls.append(args) or apply(*args))
        for expected in (1, 2):
            assert verify_adjointness(ADJOINT_PAIRS)
            assert len(calls) == expected * len(ADJOINT_PAIRS) * 2 * len(fock._BASIS)

    def test_a_check_of_nothing_is_domain_error(self):
        with pytest.raises(DomainError):
            verify_adjointness([])


class TestFockVector:
    def test_zero_coefficients_absent(self):
        v = fock_vector([((1,), 1), ((1,), -1)])
        assert v.terms == {}

    def test_rejects_empty_tensor(self):
        with pytest.raises(DomainError):
            fock_vector([((), 1)])

    def test_canonical_form(self):
        # like terms merge under one tuple key into one nonzero Fraction
        v = fock_vector([([1, 0], Fraction(1, 2)), ((1, 0), "1/4"), ((2,), 0)])
        assert v == FockVector({(1, 0): Fraction(3, 4)})
        assert [(type(t), type(c)) for t, c in v.terms.items()] == [(tuple, Fraction)]

    @pytest.mark.parametrize("op", list(OperatorName), ids=lambda op: op.value)
    def test_apply_returns_nonzero_terms_over_basis_tensors(self, op):
        # perfbench/tracer.py reads len(apply(...).terms) as fock.peak_states;
        # SYM_BERN and the int moments hold zeros, whose terms must not appear
        tensors = list(small_tensors(max_len=3, max_exp=1))
        fraction_state = fock_vector([(t, Fraction(3 - 2 * len(t), 1 + sum(t))) for t in tensors])
        int_state = FockVector({t: 3 - 2 * len(t) for t in tensors})
        for v, rho, ring in ((fraction_state, SYM_BERN.values, Fraction),
                             (int_state, (1, 0, 2, 0), int)):
            out = apply(op, v, rho)
            assert type(out) is FockVector and type(out.terms) is dict and out.terms
            for t, c in out.terms.items():
                assert type(t) is tuple and t and all(type(e) is int and e >= 0 for e in t)
                assert type(c) is ring and c != 0

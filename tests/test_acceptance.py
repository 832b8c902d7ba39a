"""Acceptance suite: every criterion checked at exact rational equality.

Each test prints one PASS line on success; any failure is a hard assert with
the first counterexample in the message.
"""

import itertools
from fractions import Fraction

from freecommutant.commutator import (
    DistributionPair,
    cancellation_sums,
    closed_form_cumulant,
    cumulant_sequence_of,
    expansion_cumulant,
    freeness_witness,
    sum_with_commutator,
    verify_additivity,
)
from freecommutant.cumulants import (
    CumulantSequence,
    MomentSequence,
    cumulant_of_word_products,
    cumulants_from_moments,
    moments_from_cumulants,
)
from freecommutant.fid import compound_poisson_from_rho, hankel_fid_check
from freecommutant.fock import (
    ADJOINT_PAIRS,
    OperatorName,
    composition_formula_cumulant,
    model_cumulant,
    verify_adjointness,
)
from freecommutant.partitions import (
    Partition,
    PartitionKind,
    compose_interval,
    iter_partitions,
)
from partition_oracles import assign_by_blocks, joined_cumulant_naive, vacuum_moments_by_apply

ORDER = 8
HAT_SUM = (OperatorName.XHAT, OperatorName.XSHAT, OperatorName.SXHAT)
TILDE_SUM = (OperatorName.XTILDE, OperatorName.XSTILDE, OperatorName.SXTILDE)


def atomic_cumulants(atoms, order=ORDER):
    moments = [Fraction(1)] + [
        sum(Fraction(w) * Fraction(a) ** k for w, a in atoms) for k in range(1, order + 1)
    ]
    return cumulants_from_moments(MomentSequence(moments), order)


X_SUITE = {
    "bernoulli(1/2:0,1/2:1)": atomic_cumulants([(Fraction(1, 2), 0), (Fraction(1, 2), 1)]),
    "free-poisson(1)": CumulantSequence.free_poisson(1, ORDER),
    "semicircle(1)": CumulantSequence.semicircular(1, ORDER),
    "atomic(1/3:-1,2/3:2)": atomic_cumulants([(Fraction(1, 3), -1), (Fraction(2, 3), 2)]),
}

S_VARIANCES = (1, 2)

RHO_SUITE = {
    "delta1": MomentSequence.from_atoms([(1, 1)], ORDER + 2),
    "delta2": MomentSequence.from_atoms([(1, 2)], ORDER + 2),
    "half(delta-1+delta1)": MomentSequence.from_atoms(
        [(Fraction(1, 2), -1), (Fraction(1, 2), 1)], ORDER + 2),
    "half-delta0+half-delta3": MomentSequence.from_atoms(
        [(Fraction(1, 2), 0), (Fraction(1, 2), 3)], ORDER + 2),
}

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_criterion_1_additivity():
    for (x_name, dist_x), s_var in itertools.product(X_SUITE.items(), S_VARIANCES):
        pair = DistributionPair(CumulantSequence.semicircular(s_var, ORDER), dist_x)
        for report in verify_additivity(pair, ORDER):
            assert report.holds, (
                f"additivity fails: x={x_name}, s_var={s_var}, n={report.n}: "
                f"{report.lhs} != {report.rhs_s} + {report.rhs_c}")
    print("ACCEPTANCE 1 (additivity, n <= 8, full suite): PASS")


def test_criterion_2_nonfreeness_witness():
    for (x_name, dist_x), s_var in itertools.product(X_SUITE.items(), S_VARIANCES):
        pair = DistributionPair(CumulantSequence.semicircular(s_var, ORDER), dist_x)
        witness = freeness_witness(pair)
        expected = Fraction(s_var) ** 2 * dist_x.kappa(2)
        assert witness == expected, (x_name, s_var, witness, expected)
        if dist_x.kappa(2) > 0:
            assert witness > 0, (x_name, s_var)
    print("ACCEPTANCE 2 (non-freeness witness = k2(s)^2 k2(x)): PASS")


def test_criterion_3_cancellation():
    for (x_name, dist_x), s_var in itertools.product(X_SUITE.items(), S_VARIANCES):
        pair = DistributionPair(CumulantSequence.semicircular(s_var, ORDER), dist_x)
        sums = cancellation_sums(pair, 7)
        for n in range(2, 8):
            for k in range(1, n):
                value = sums[n - 1][k]
                assert not value, (
                    f"cancellation fails: x={x_name}, s_var={s_var}, (n,k)=({n},{k}),"
                    f" value={value}")
    print("ACCEPTANCE 3 (cancellation sums vanish, 1 <= k < n <= 7): PASS")


def test_criterion_4_closed_form_equals_oracle():
    for x_name, dist_x in X_SUITE.items():
        for n in range(1, ORDER + 1):
            closed = closed_form_cumulant(n, dist_x)
            oracle = expansion_cumulant(n, dist_x, 1)
            assert closed == oracle, (
                f"closed form fails: x={x_name}, n={n}: {closed} != {oracle}")
        assert closed_form_cumulant(2, dist_x) == 3 * dist_x.kappa(2), x_name
        assert closed_form_cumulant(3, dist_x) == 4 * dist_x.kappa(3), x_name
    print("ACCEPTANCE 4 (closed form = expansion oracle, n <= 8;"
          " pinned 3*k2 and 4*k3): PASS")


def test_criterion_5_operator_model_chain():
    for rho_name, rho in RHO_SUITE.items():
        dist_x = compound_poisson_from_rho(rho, ORDER)
        # the paper's object itself: the operator sums applied to the vacuum
        walks = zip(vacuum_moments_by_apply(HAT_SUM, ORDER, rho),
                    vacuum_moments_by_apply(TILDE_SUM, ORDER, rho))
        for n, (hat, tilde) in enumerate(walks, start=1):
            walk = hat + tilde
            model = model_cumulant(n, rho)
            comp = composition_formula_cumulant(n, rho)
            closed = closed_form_cumulant(n, dist_x)
            oracle = expansion_cumulant(n, dist_x, 1)
            assert walk == model == comp == closed == oracle, (
                f"operator model chain fails: rho={rho_name}, n={n}:"
                f" {walk}, {model}, {comp}, {closed}, {oracle}")
    print("ACCEPTANCE 5 (literal walk = model = composition = closed form,"
          " n <= 8, all drivers): PASS")


def test_criterion_6_fid_witnesses():
    for rho_name, rho in RHO_SUITE.items():
        dist_x = compound_poisson_from_rho(rho, ORDER)
        perturbed = CumulantSequence(
            [closed_form_cumulant(n, dist_x) for n in range(1, ORDER + 1)])
        verdict = hankel_fid_check(perturbed, 3)
        assert verdict.psd, (rho_name, "x+i[x,s]", verdict)
        pair = DistributionPair.standard(dist_x, 1, ORDER)
        summed = cumulant_sequence_of(sum_with_commutator(), pair, ORDER)
        verdict = hankel_fid_check(summed, 3)
        assert verdict.psd, (rho_name, "s+i[s,x]", verdict)
    control = hankel_fid_check(CumulantSequence([0, 1, 0, -1, 0, -1]), 2)
    assert not control.psd and control.failure_index == 1, control
    print("ACCEPTANCE 6 (FID witnesses pass at size 3; control fails at size 2): PASS")


def test_criterion_7_combinatorial_substrate():
    for n in range(1, 11):
        assert len(list(iter_partitions(n, PartitionKind.NC))) == CATALAN[n]
        assert len(list(iter_partitions(n, PartitionKind.INTERVAL))) == 2 ** (n - 1)
        assert (len(list(iter_partitions(n, PartitionKind.NC_IRREDUCIBLE)))
                == CATALAN[n - 1])
    min2 = {n: len(list(iter_partitions(n, PartitionKind.INTERVAL_MIN2)))
            for n in range(1, 11)}
    assert min2[2] == min2[3] == 1
    for n in range(4, 11):
        assert min2[n] == min2[n - 1] + min2[n - 2]
    sigma = Partition(8, [[1, 2], [3, 4], [5, 6, 7], [8]])
    pi = Partition(4, [[1], [2, 4], [3]])
    assert compose_interval(pi, sigma) == Partition(8, [[1, 2], [3, 4, 8], [5, 6, 7]])
    assert assign_by_blocks([
        ({2, 3, 4, 5}, ("X", "Y", "Z")), ({1, 6, 7}, ("T", "V")),
    ]) == ("T", "X", "Y", "Z", "X", "V", "T")
    assert assign_by_blocks([
        ({1, 2, 3, 4, 7}, ("X", "Y")), ({5, 6}, ("Z",)),
    ]) == ("X", "Y", "X", "Y", "Z", "Z", "X")
    print("ACCEPTANCE 7 (partition counts, block-merge example, cyclic tuples): PASS")


def test_criterion_8_engine_soundness():
    # exact moment<->cumulant round trip to order 10
    seqs = [
        CumulantSequence([Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 16),
                          3, -2, Fraction(5, 3), 7, 1, Fraction(-9, 11)]),
        CumulantSequence.free_poisson(Fraction(2, 3), 10),
        CumulantSequence.semicircular(Fraction(7, 5), 10),
    ]
    for seq in seqs:
        assert cumulants_from_moments(moments_from_cumulants(seq, 10), 10) == seq

    dists = [
        (CumulantSequence.semicircular(1, 8), X_SUITE["free-poisson(1)"]),
        (CumulantSequence([Fraction(1, 3), 2, Fraction(-1, 2), 1, 0, 2, 1, 1]),
         X_SUITE["atomic(1/3:-1,2/3:2)"]),
    ]
    pool = ["s", "x", "sx", "xs"]
    tuples = [t for m in range(1, 5) for t in itertools.product(pool, repeat=m)]
    for tup in tuples:
        for dist_s, dist_x in dists:
            pruned = cumulant_of_word_products(tup, dist_s, dist_x)
            naive = joined_cumulant_naive(tup, dist_s, dist_x)
            assert pruned == naive, (tup, pruned, naive)
            if len(tup) > 1:
                for r in range(1, len(tup)):
                    rotated = tup[r:] + tup[:r]
                    assert cumulant_of_word_products(
                        rotated, dist_s, dist_x) == pruned, (tup, r)

    assert verify_adjointness(ADJOINT_PAIRS)
    print("ACCEPTANCE 8 (round trip, pruned=unpruned, cyclic invariance,"
          " adjointness): PASS")

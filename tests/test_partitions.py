import pytest
from hypothesis import given, settings, strategies as st

from freecommutant.errors import DomainError, GroundSetError, KindError
from freecommutant.partitions import (
    Partition,
    PartitionKind,
    compose_interval,
    is_noncrossing,
    iter_partitions,
)
from partition_oracles import assign_by_blocks, join, joins_to_full

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def crossing_filter_oracle(n):
    """Independent route to NC(n): filter all set partitions."""
    return {p for p in iter_partitions(n, PartitionKind.ALL) if is_noncrossing(p)}


def random_partition(n, labels):
    blocks = {}
    for e, lab in zip(range(1, n + 1), labels):
        blocks.setdefault(lab % n, []).append(e)
    return Partition(n, blocks.values())


partition_pairs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )
)


class TestCanonicalForm:
    def test_blocks_sorted_by_minimum(self):
        p = Partition(5, [[4, 5], [3], [2, 1]])
        assert p.blocks == ((1, 2), (3,), (4, 5))

    def test_recanonicalization_idempotent(self):
        p = Partition(4, [[3, 4], [1, 2]])
        assert Partition(p.n, p.blocks) == p

    def test_rejects_non_cover(self):
        with pytest.raises(DomainError):
            Partition(3, [[1, 2]])
        with pytest.raises(DomainError):
            Partition(3, [[1, 2], [2, 3]])

    def test_rejects_empty_ground_set_and_empty_block(self):
        with pytest.raises(DomainError):
            Partition(0, [])
        with pytest.raises(DomainError):
            Partition(2, [[1, 2], []])

    def test_json_round_trip(self):
        p = Partition(8, [[1, 2], [3, 4, 8], [5, 6, 7]])
        assert p.to_json() == [[1, 2], [3, 4, 8], [5, 6, 7]]
        assert Partition(8, p.to_json()) == p


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_nc_counts_are_catalan(self, n):
        assert len(list(iter_partitions(n, PartitionKind.NC))) == CATALAN[n]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_interval_counts(self, n):
        assert len(list(iter_partitions(n, PartitionKind.INTERVAL))) == 2 ** (n - 1)

    def test_interval_min2_fibonacci_recurrence(self):
        a = {n: len(list(iter_partitions(n, PartitionKind.INTERVAL_MIN2))) for n in range(1, 11)}
        assert a[2] == a[3] == 1
        for n in range(4, 11):
            assert a[n] == a[n - 1] + a[n - 2]

    @pytest.mark.parametrize("k", range(1, 11))
    def test_irreducible_counts_are_shifted_catalan(self, k):
        assert len(list(iter_partitions(k, PartitionKind.NC_IRREDUCIBLE))) == CATALAN[k - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_counts_are_bell(self, n):
        assert len(list(iter_partitions(n, PartitionKind.ALL))) == BELL[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_direct_nc_equals_filter_oracle(self, n):
        direct = set(iter_partitions(n, PartitionKind.NC))
        assert len(direct) == CATALAN[n]
        assert direct == crossing_filter_oracle(n)

    def test_nc3_by_oracle(self):
        got = set(iter_partitions(3, PartitionKind.NC))
        assert got == crossing_filter_oracle(3)
        assert len(got) == 5

    def test_interval_min2_of_4(self):
        got = set(iter_partitions(4, PartitionKind.INTERVAL_MIN2))
        assert got == {Partition(4, [[1, 2, 3, 4]]), Partition(4, [[1, 2], [3, 4]])}

    def test_singleton_ground_set(self):
        assert list(iter_partitions(1, PartitionKind.ALL)) == [Partition(1, [[1]])]

    def test_irreducible_of_3(self):
        got = set(iter_partitions(3, PartitionKind.NC_IRREDUCIBLE))
        assert got == {Partition(3, [[1, 2, 3]]), Partition(3, [[1, 3], [2]])}

    def test_irreducible_means_first_and_last_joined(self):
        for n in range(2, 8):
            owner_sets = list(iter_partitions(n, PartitionKind.NC_IRREDUCIBLE))
            nc = set(iter_partitions(n, PartitionKind.NC))
            expected = {p for p in nc
                        if any(1 in b and n in b for b in p.blocks)}
            assert set(owner_sets) == expected

    def test_enumeration_deterministic(self):
        first = list(iter_partitions(6, PartitionKind.NC))
        second = list(iter_partitions(6, PartitionKind.NC))
        assert first == second

    def test_enumerates_past_the_cli_bounds(self):
        # the bounds of the ``partitions`` command are its own; lazily, the
        # library starts any size, and only an empty ground set is refused
        for kind, bound in [(PartitionKind.ALL, 10), (PartitionKind.NC, 11),
                            (PartitionKind.NC_IRREDUCIBLE, 12), (PartitionKind.INTERVAL, 17),
                            (PartitionKind.INTERVAL_MIN2, 24)]:
            assert next(iter_partitions(bound + 2, kind)).n == bound + 2
            with pytest.raises(DomainError):
                next(iter_partitions(0, kind))


class TestNoncrossing:
    def test_canonical_crossing(self):
        assert not is_noncrossing(Partition(4, [[1, 3], [2, 4]]))

    def test_nesting(self):
        assert is_noncrossing(Partition(4, [[1, 4], [2, 3]]))

    def test_single_block(self):
        assert is_noncrossing(Partition(3, [[1, 2, 3]]))


class TestJoin:
    def test_cycle_connects_everything(self):
        p = Partition(4, [[1, 2], [3, 4]])
        q = Partition(4, [[1, 4], [2, 3]])
        assert join(p, q) == Partition(4, [[1, 2, 3, 4]])

    def test_idempotent_on_self(self):
        p = Partition(5, [[1, 3], [2], [4, 5]])
        assert join(p, p) == p

    def test_with_discrete(self):
        p = Partition(3, [[1, 3], [2]])
        assert join(Partition(3, [[1], [2], [3]]), p) == p

    def test_joins_to_full_by_chain(self):
        assert joins_to_full(Partition(4, [[1, 2], [3, 4]]), Partition(4, [[2, 3], [1], [4]]))

    def test_joins_to_full_false(self):
        assert not joins_to_full(Partition(4, [[1, 2], [3, 4]]),
                                 Partition(4, [[1, 2], [3], [4]]))

    def test_full_joins_with_anything(self):
        assert joins_to_full(Partition(5, [range(1, 6)]), Partition(5, [[i] for i in range(1, 6)]))

    def test_mismatched_ground_sets(self):
        with pytest.raises(GroundSetError):
            join(Partition(3, [[1, 2, 3]]), Partition(4, [[1, 2, 3, 4]]))
        with pytest.raises(GroundSetError):
            joins_to_full(Partition(3, [[1, 2, 3]]), Partition(4, [[1, 2, 3, 4]]))

    @settings(max_examples=150)
    @given(partition_pairs)
    def test_join_laws(self, data):
        n, la, lb = data
        p, q = random_partition(n, la), random_partition(n, lb)
        assert join(p, q) == join(q, p)
        assert join(p, p) == p
        assert joins_to_full(p, q) == (join(p, q) == Partition(n, [range(1, n + 1)]))

    @settings(max_examples=60)
    @given(partition_pairs, st.lists(st.integers(0, 7), min_size=8, max_size=8))
    def test_join_associative(self, data, lc):
        n, la, lb = data
        p, q = random_partition(n, la), random_partition(n, lb)
        r = random_partition(n, lc[:n])
        assert join(join(p, q), r) == join(p, join(q, r))


class TestComposeInterval:
    def test_merge_example(self):
        sigma = Partition(8, [[1, 2], [3, 4], [5, 6, 7], [8]])
        pi = Partition(4, [[1], [2, 4], [3]])
        assert compose_interval(pi, sigma) == Partition(8, [[1, 2], [3, 4, 8], [5, 6, 7]])

    def test_full_pi_merges_all(self):
        sigma = Partition(6, [[1, 2], [3], [4, 5, 6]])
        assert compose_interval(Partition(3, [[1, 2, 3]]), sigma) == Partition(6, [range(1, 7)])

    def test_singleton_pi_is_identity(self):
        sigma = Partition(6, [[1, 2], [3], [4, 5, 6]])
        assert compose_interval(Partition(3, [[1], [2], [3]]), sigma) == sigma

    def test_block_count_mismatch(self):
        sigma = Partition(4, [[1, 2], [3, 4]])
        with pytest.raises(GroundSetError):
            compose_interval(Partition(3, [[1, 2, 3]]), sigma)

    def test_non_interval_sigma_rejected(self):
        with pytest.raises(KindError):
            compose_interval(Partition(2, [[1, 2]]), Partition(4, [[1, 3], [2, 4]]))

    def test_crossing_pi_rejected(self):
        sigma = Partition(4, [[1], [2], [3], [4]])
        with pytest.raises(KindError):
            compose_interval(Partition(4, [[1, 3], [2, 4]]), sigma)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_result_noncrossing_exhaustively(self, n):
        for sigma in iter_partitions(n, PartitionKind.INTERVAL):
            for pi in iter_partitions(sigma.num_blocks, PartitionKind.NC):
                assert is_noncrossing(compose_interval(pi, sigma))


class TestAssignByBlocks:
    def test_first_worked_tuple(self):
        got = assign_by_blocks([
            ({2, 3, 4, 5}, ("X", "Y", "Z")),
            ({1, 6, 7}, ("T", "V")),
        ])
        assert got == ("T", "X", "Y", "Z", "X", "V", "T")

    def test_second_worked_tuple(self):
        got = assign_by_blocks([
            ({1, 2, 3, 4, 7}, ("X", "Y")),
            ({5, 6}, ("Z",)),
        ])
        assert got == ("X", "Y", "X", "Y", "Z", "Z", "X")

    def test_single_block_single_symbol(self):
        assert assign_by_blocks([({1, 2, 3}, ("A",))]) == ("A", "A", "A")

    def test_rejects_non_partition(self):
        with pytest.raises(DomainError):
            assign_by_blocks([({1, 2}, ("A",)), ({2, 3}, ("B",))])
        with pytest.raises(DomainError):
            assign_by_blocks([({1, 3}, ("A",))])

    def test_rejects_empty_symbols(self):
        with pytest.raises(DomainError):
            assign_by_blocks([({1}, ())])

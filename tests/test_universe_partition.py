"""Partition tables: dense/sparse representations and mask algebra."""

import random
from array import array
from itertools import combinations

import pytest

from repro.protocols.broadcast import (
    BroadcastProtocol,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.arena import ArenaStore
from repro.universe.explorer import (
    EnumeratedUniverse,
    PartitionTable,
    Universe,
    iter_bit_ids,
)
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)
from repro.universe.reference import streamed_history_labels

from test_universe_arena import (
    REFERENCE_CASES,
    force_hash_collisions,
    small_chunks,  # noqa: F401  (fixture)
    star5,
)


@pytest.fixture(scope="module")
def star_universe() -> Universe:
    return Universe(
        BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub")
    )


def sparse_twin(table: PartitionTable) -> PartitionTable:
    """The same partition, forced onto the sparse representation."""
    return PartitionTable(table.class_of, table.num_classes, sparse=True)


class TestIterBitIds:
    def test_matches_naive_iteration(self):
        for mask in (0, 1, 0b1010, (1 << 200) | (1 << 3), (1 << 500) - 1):
            naive = [index for index in range(mask.bit_length()) if mask >> index & 1]
            assert list(iter_bit_ids(mask)) == naive


class TestPartitionInvariants:
    @pytest.mark.parametrize("processes", [{"hub"}, {"x"}, {"hub", "x"}, set()])
    def test_masks_partition_the_universe(self, star_universe, processes):
        table = star_universe.partition_table(frozenset(processes))
        union = 0
        for mask in table.masks():
            assert union & mask == 0
            union |= mask
        assert union == star_universe.full_mask

    def test_class_of_agrees_with_masks(self, star_universe):
        table = star_universe.partition_table(frozenset({"hub"}))
        for index, mask in enumerate(table.masks()):
            for config_id in iter_bit_ids(mask):
                assert table.class_of[config_id] == index

    def test_members_ascending_and_complete(self, star_universe):
        table = star_universe.partition_table(frozenset({"x", "y"}))
        seen = set()
        for members in table.members:
            assert list(members) == sorted(members)
            seen.update(members)
        assert seen == set(range(len(star_universe)))

    def test_iso_class_index_matches_class_of(self, star_universe):
        for configuration in star_universe:
            index = star_universe.iso_class_index(configuration, {"hub"})
            config_id = star_universe.config_id(configuration)
            table = star_universe.partition_table(frozenset({"hub"}))
            assert table.class_of[config_id] == index


class TestSparseRepresentation:
    def test_sparse_masks_equal_dense(self, star_universe):
        dense = star_universe.partition_table(frozenset({"hub"}))
        sparse = sparse_twin(dense)
        assert sparse.sparse and not dense.sparse
        assert sparse.masks() == dense.masks()
        for index in range(dense.num_classes):
            assert sparse.class_mask(index) == dense.class_mask(index)

    def test_sparse_compose_equals_dense(self, star_universe):
        dense = star_universe.partition_table(frozenset({"x"}))
        sparse = sparse_twin(dense)
        probes = [1, star_universe.full_mask, (1 << 40) - 1 & star_universe.full_mask]
        for mask in probes:
            assert sparse.compose(mask) == dense.compose(mask)

    def test_sparse_contained_classes_equals_dense(self, star_universe):
        dense = star_universe.partition_table(frozenset({"y"}))
        sparse = sparse_twin(dense)
        probes = [0, star_universe.full_mask, dense.class_mask(0), 0b1011]
        for body in probes:
            assert sparse.contained_classes_mask(
                body
            ) == dense.contained_classes_mask(body)

    def test_fragmented_partition_goes_sparse_past_budget(self, star_universe):
        # The [D]-partition is all singletons; with a tiny budget it must
        # pick the sparse representation and still answer identically.
        import repro.universe.explorer as explorer

        singletons = array("i", range(len(star_universe)))
        dense = PartitionTable(singletons, len(singletons), sparse=False)
        auto = PartitionTable(singletons, len(singletons))
        assert auto.sparse == (
            auto.num_classes * ((auto.size + 63) >> 6)
            > explorer._DENSE_MASK_WORD_BUDGET
        )
        forced = PartitionTable(singletons, len(singletons), sparse=True)
        assert forced.compose(0b101) == dense.compose(0b101) == 0b101
        assert forced.masks() == dense.masks()


class TestCompose:
    def test_compose_is_union_of_touched_classes(self, star_universe):
        table = star_universe.partition_table(frozenset({"hub"}))
        for configuration in list(star_universe)[::7]:
            config_id = star_universe.config_id(configuration)
            composed = star_universe.compose_masks(1 << config_id, {"hub"})
            assert composed == star_universe.iso_class_mask(
                configuration, {"hub"}
            )
            assert table.compose(composed) == composed  # idempotent

    def test_compose_unions_each_class_once(self, star_universe):
        full = star_universe.compose_masks(star_universe.full_mask, {"x"})
        assert full == star_universe.full_mask

    def test_classes_mask_memoises_combinations(self, star_universe):
        table = star_universe.partition_table(frozenset({"hub"}))
        indices = frozenset(range(min(3, table.num_classes)))
        first = table.classes_mask(indices)
        second = table.classes_mask(sorted(indices))
        assert first == second
        expected = 0
        for index in indices:
            expected |= table.class_mask(index)
        assert first == expected


class TestClassAdjacency:
    def test_adjacency_lists_reachable_classes(self, star_universe):
        first = frozenset({"hub"})
        second = frozenset({"x"})
        adjacency = star_universe.class_adjacency(first, second)
        first_table = star_universe.partition_table(first)
        second_table = star_universe.partition_table(second)
        for index, reachable in enumerate(adjacency):
            expected = {
                second_table.class_of[config_id]
                for config_id in first_table.members[index]
            }
            assert set(reachable) == expected
            assert list(reachable) == sorted(reachable)


class TestSparseMaskMemo:
    def test_repeat_class_mask_calls_hit_the_memo(self, star_universe):
        table = sparse_twin(star_universe.partition_table(frozenset({"hub"})))
        first = table.class_mask(0)
        second = table.class_mask(0)
        assert first is second  # memoised, not re-materialised

    def test_memo_respects_the_word_budget(self, star_universe):
        from repro.universe.explorer import _SPARSE_MASK_MEMO_WORDS

        table = sparse_twin(star_universe.partition_table(frozenset({"hub"})))
        for index in range(table.num_classes):
            table.class_mask(index)
        assert table._sparse_memo_words <= _SPARSE_MASK_MEMO_WORDS

    def test_sparse_masks_equal_dense_masks(self, star_universe):
        dense = star_universe.partition_table(frozenset({"hub", "x"}))
        sparse = sparse_twin(dense)
        assert sparse.masks() == dense.masks()


class TestSamePartition:
    def test_equal_partitions_compare_equal(self, star_universe):
        table = star_universe.partition_table(frozenset({"hub"}))
        rebuilt = PartitionTable.from_keys(list(table.class_of))
        assert rebuilt.same_partition_as(table)
        assert table.same_partition_as(rebuilt)

    def test_distinct_partitions_differ(self, star_universe):
        hub = star_universe.partition_table(frozenset({"hub"}))
        x = star_universe.partition_table(frozenset({"x"}))
        assert not hub.same_partition_as(x)

    def test_labels_are_stable_across_rebuilds(self, star_universe):
        """First-occurrence labelling makes class_of canonical, so a
        rebuilt universe's table is the same partition."""
        table = star_universe.partition_table(frozenset({"x"}))
        twin = Universe(
            BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub")
        ).partition_table(frozenset({"x"}))
        assert twin is not table
        assert twin.same_partition_as(table)

    def test_verify_consistency_is_memoised(self, star_universe):
        table = star_universe.partition_table(frozenset({"hub"}))
        assert table.verify_consistency()
        assert table._consistent is True
        assert table.verify_consistency()


class TestRefinementProduct:
    def brute_product(self, universe, first, second):
        p_of = universe.partition_table(first).class_of
        q_of = universe.partition_table(second).class_of
        labels = {}
        out = []
        for config_id in range(len(universe)):
            pair = (p_of[config_id], q_of[config_id])
            out.append(labels.setdefault(pair, len(labels)))
        return out

    def test_matches_brute_force_grouping(self, star_universe):
        first = frozenset({"hub"})
        second = frozenset({"x"})
        product = star_universe.refinement_product(first, second)
        assert list(product.class_of) == self.brute_product(
            star_universe, first, second
        )

    def test_symmetric_and_memoised(self, star_universe):
        first = frozenset({"hub"})
        second = frozenset({"y"})
        forward = star_universe.refinement_product(first, second)
        backward = star_universe.refinement_product(second, first)
        assert forward is backward  # one product per unordered pair

    def test_same_set_returns_the_partition_itself(self, star_universe):
        p = frozenset({"x"})
        assert star_universe.refinement_product(p, p) is (
            star_universe.partition_table(p)
        )

    def test_equals_union_partition_for_valid_universes(self, star_universe):
        """Property 7 instance: [P] ∩ [Q] == [P ∪ Q] here."""
        first = frozenset({"hub"})
        second = frozenset({"x"})
        product = star_universe.refinement_product(first, second)
        union = star_universe.partition_table(first | second)
        assert product.same_partition_as(union)

    def test_adjacency_derives_from_the_product(self, star_universe):
        first = frozenset({"hub"})
        second = frozenset({"z"})
        rows = star_universe.class_adjacency(first, second)
        p_of = star_universe.partition_table(first).class_of
        q_of = star_universe.partition_table(second).class_of
        expected = [set() for _ in rows]
        for config_id in range(len(star_universe)):
            expected[p_of[config_id]].add(q_of[config_id])
        assert [set(row) for row in rows] == expected


def projection_key_labels(universe: Universe, processes) -> list[int]:
    """Oracle: the ``[P]``-partition bucketed by projection keys.

    This is the table build that preceded per-process history labels:
    one pass over the configurations per process set, keyed by the
    history tuple (one process) or the tuple of histories in sorted
    process order (several), classes numbered by first occurrence.
    """
    ordered = sorted(processes)
    buckets: dict[tuple, list[int]] = {}
    for config_id, configuration in enumerate(universe):
        if len(ordered) == 1:
            key = configuration.history(ordered[0])
        else:
            key = tuple(configuration.history(process) for process in ordered)
        buckets.setdefault(key, []).append(config_id)
    class_of = [0] * len(universe)
    for index, ids in enumerate(buckets.values()):
        for config_id in ids:
            class_of[config_id] = index
    return class_of


def all_subsets(processes):
    ordered = sorted(processes)
    for size in range(len(ordered) + 1):
        yield from (frozenset(subset) for subset in combinations(ordered, size))


ORACLE_UNIVERSES = {
    "star5": lambda: Universe(
        BroadcastProtocol(star_topology("hub", ("w", "x", "y", "z")), "hub"),
    ),
    "tree6": lambda: Universe(
        BroadcastProtocol(tree_topology([f"t{i}" for i in range(6)], 2), "t0"),
    ),
    "tree7": lambda: Universe(
        BroadcastProtocol(tree_topology([f"t{i}" for i in range(7)]), "t0"),
    ),
    "ring5": lambda: Universe(
        BroadcastProtocol(ring_topology([f"r{i}" for i in range(5)]), "r0"),
    ),
    "token_bus_h4": lambda: Universe(TokenBusProtocol(max_hops=4)),
    "star5_truncated": lambda: Universe(
        BroadcastProtocol(star_topology("hub", ("w", "x", "y", "z")), "hub"),
        options=ExplorationOptions(limits=Limits(max_events=4)),
    ),
    "star5_capped": lambda: Universe(
        BroadcastProtocol(star_topology("hub", ("w", "x", "y", "z")), "hub"),
        options=ExplorationOptions(
            limits=Limits(max_configurations=200, on_limit="truncate")
        ),
    ),
}


class TestHistoryLabelOracle:
    """Tables built from history label columns equal the projection-key
    build, for every process set."""

    @pytest.mark.parametrize("name", sorted(ORACLE_UNIVERSES))
    def test_every_subset_matches_projection_keys(self, name):
        universe = ORACLE_UNIVERSES[name]()
        if name == "star5_truncated":
            assert not universe.is_complete
        if name == "star5_capped":
            assert not universe.is_complete and len(universe) == 200
        subsets = list(all_subsets(universe.processes))
        assert frozenset() in subsets and universe.processes in subsets
        for p_set in subsets:
            table = universe.partition_table(p_set)
            expected = projection_key_labels(universe, p_set)
            assert list(table.class_of) == expected, sorted(p_set)
            assert table.num_classes == max(expected) + 1
            assert table.verify_consistency()
            # iso_class_mask answers from class_of, with no projection key.
            config_id = len(universe) // 2
            oracle = sum(
                1 << other
                for other, label in enumerate(expected)
                if label == expected[config_id]
            )
            configuration = universe.configuration_of_id(config_id)
            assert universe.iso_class_mask(configuration, p_set) == oracle
            # The lowest member of each class.
            firsts = [expected.index(label) for label in range(table.num_classes)]
            assert list(table.representatives) == firsts
            assert [ids[0] for ids in table.members] == firsts


def assert_labels_match_oracle(universe: Universe) -> None:
    """Every singleton table and its class histories, ``active_processes``
    and ``events()`` equal what materialising every configuration gives."""
    configurations = list(universe._configurations)
    processes = sorted(universe.processes)
    expected = streamed_history_labels(configurations, processes)
    for process, (column, count) in zip(processes, expected):
        table = universe.partition_table({process})
        assert table.class_of == column, process
        assert table.num_classes == count, process
        histories = universe.class_histories(process)
        assert len(histories) == count, process
        for configuration, label in zip(configurations, column):
            assert histories[label] == configuration.history(process), process
    assert universe.events() == frozenset(
        event for configuration in configurations for event in configuration.events()
    )
    assert universe.active_processes == frozenset(
        process for configuration in configurations for process in configuration.processes
    )


class TestPackedHistoryLabels:
    """Labels read from the arena's packed columns equal the streamed
    pass over materialised configurations, whatever built the arena."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "label,factory,bounds",
        REFERENCE_CASES,
        ids=[entry[0] for entry in REFERENCE_CASES],
    )
    def test_reference_cases(self, label, factory, bounds, workers):
        universe = Universe(
            factory(),
            options=ExplorationOptions(
                limits=Limits(**bounds), sharding=Sharding(workers=workers)
            ),
        )
        assert isinstance(universe._configurations, ArenaStore)
        assert_labels_match_oracle(universe)

    @pytest.mark.parametrize("cap", [None, 300], ids=["complete", "mid-run"])
    def test_resumed_checkpoint(self, tmp_path, cap):
        """A resumed arena is refilled by the checkpoint replay, with the
        stream's unpickled events in its vocabulary."""
        checkpoint = CheckpointPolicy(path=tmp_path / "u.ckpt")
        Universe(
            star5(),
            options=ExplorationOptions(
                limits=Limits(max_configurations=cap, on_limit="truncate"),
                checkpoint=checkpoint,
            ),
        )
        resumed = Universe(star5(), options=ExplorationOptions(checkpoint=checkpoint))
        assert resumed._checkpoint_session.resumed_from is not None
        assert resumed.is_complete
        assert_labels_match_oracle(resumed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_forced_hash_collisions(self, monkeypatch, workers):
        force_hash_collisions(monkeypatch)
        universe = Universe(
            star5(), options=ExplorationOptions(sharding=Sharding(workers=workers))
        )
        assert any(type(bucket) is list for bucket in universe._ids_by_hash.values())
        assert_labels_match_oracle(universe)

    def test_sealed_chunks(self, small_chunks):
        universe = Universe(star5())
        assert universe._configurations.stats()["sealed_chunks"] > 1
        assert_labels_match_oracle(universe)

    def test_configuration_list_replays(self):
        """A universe over an explored universe's configuration list
        replays into an arena identical to the explored one: ids, CSR
        arrays and the hash -> id table."""
        universe = Universe(star5())
        listed = EnumeratedUniverse(universe.configurations)
        assert type(listed._configurations) is ArenaStore
        assert list(listed) == list(universe)
        assert listed._succ_offsets == universe._succ_offsets
        assert listed._succ_ids == universe._succ_ids
        assert listed._ids_by_hash == universe._ids_by_hash
        assert_labels_match_oracle(listed)
        for process in sorted(universe.processes):
            assert (
                listed.partition_table({process}).class_of
                == universe.partition_table({process}).class_of
            )

    def test_shuffled_configuration_list(self):
        """Shuffled input still numbers the closure in BFS order (parent
        ids never decrease) and labels it like the streamed oracle."""
        configurations = list(Universe(star5()).configurations)
        random.Random(5).shuffle(configurations)
        listed = EnumeratedUniverse(configurations)
        assert set(listed) == set(configurations)
        store = listed._configurations
        parents = [store.parent_id(index) for index in range(1, len(store))]
        assert parents == sorted(parents)
        offsets = listed._succ_offsets
        for index in range(len(listed)):
            row = list(listed._succ_ids[offsets[index] : offsets[index + 1]])
            assert row == sorted(row)
        assert_labels_match_oracle(listed)

    def test_sealed_scan_leaves_the_chunk_cache(self, small_chunks):
        universe = Universe(star5())
        store = universe._configurations
        assert store.stats()["sealed_chunks"] > 1
        cached = list(store._chunk_cache)
        universe.partition_table({"hub"})
        assert list(store._chunk_cache) == cached


class TestArenaMaterialisationGuard:
    def test_tables_and_vocabulary_materialise_nothing(self):
        """Every singleton and 2-process table, ``active_processes`` and
        ``events()`` are answered from the packed columns and the event
        vocabulary, with no configuration rebuilt."""
        universe = ORACLE_UNIVERSES["star5"]()
        store = universe._configurations
        before = store.materialisations
        processes = sorted(universe.processes)
        for process in processes:
            universe.partition_table(frozenset({process}))
        for pair in combinations(processes, 2):
            universe.partition_table(frozenset(pair))
        assert universe.active_processes == universe.processes
        assert len(universe.events()) > 0
        for process in processes:
            assert universe.class_histories(process)
        assert store.materialisations == before
        assert store.chain_walks == 0
        # Streamed rebuilds count: one full pass rebuilds every id but
        # the pinned root.
        before = store.materialisations
        list(store)
        assert store.materialisations - before == len(universe) - 1

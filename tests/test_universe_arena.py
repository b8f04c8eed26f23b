"""The arena-backed universe against the reference BFS; packed tiers.

Every engine stores its universe in the arena, so the oracle is the
plain BFS of :mod:`repro.universe.reference`: the kernel and the sharded
engine must reproduce its dense ids, CSR successor arrays, hash table
(collision buckets included), completeness flag and truncation point
bit for bit — and, under randomized access patterns, the same
materialised configurations, projections, and mask queries.  The packed
tiers (sealed zlib chunks, bounded LRU with chain-walk
materialisation) are exercised directly by shrinking the chunk size so
small test universes cross every tier.
"""

from __future__ import annotations

import inspect
import pickle
import random
import sys

import pytest

from repro.core.configuration import EMPTY_CONFIGURATION, Configuration
from repro.core.errors import UniverseError
from repro.core.events import internal
from repro.protocols.broadcast import (
    BroadcastProtocol,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.failure_monitor import (
    AsyncFailureMonitorProtocol,
    SyncFailureMonitorProtocol,
)
from repro.protocols.mutex import TokenRingMutexProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.snapshot import SnapshotTokenRingProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.simulation.network import FifoProtocol
from repro.universe import arena as arena_module
from repro.universe.arena import (
    ArenaStore,
    compress_batch,
    decompress_batch,
    record_columns,
)
from repro.universe.explorer import Universe, iter_bit_ids
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)
from repro.universe.protocol import Protocol
from repro.universe.reference import reference_bfs

from test_universe_checkpoint import counting_trusted


def star(receivers: tuple[str, ...]) -> BroadcastProtocol:
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


def star5() -> BroadcastProtocol:
    return star(("w", "x", "y", "z"))


class FreshEventsProtocol(Protocol):
    """Star n=5 flooding whose ``local_steps`` returns freshly built
    events on every call and declares no ``step_shape``: no two calls
    share an event object, so identity hits come only from the step
    table's interning, and value equality must carry everything else."""

    def __init__(self) -> None:
        self.inner = star5()
        super().__init__(self.inner.processes)

    def local_steps(self, process, history):
        return [
            pickle.loads(pickle.dumps(event))
            for event in self.inner.local_steps(process, history)
        ]


REFERENCE_CASES = [
    ("star_n5", star5, {}),
    (
        "tree_d2",
        lambda: BroadcastProtocol(
            tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
        ),
        {},
    ),
    (
        "ring_n5",
        lambda: BroadcastProtocol(
            ring_topology(tuple(f"r{i}" for i in range(5))), "r0"
        ),
        {},
    ),
    ("token_bus_h4", lambda: TokenBusProtocol(max_hops=4), {}),
    ("pingpong_r2", lambda: PingPongProtocol(rounds=2), {}),
    ("mutex_h3", lambda: TokenRingMutexProtocol(max_hops=3), {}),
    # Selective receives (can_receive overrides).
    ("async_monitor", lambda: AsyncFailureMonitorProtocol(heartbeats=2), {}),
    ("snapshot_ring", lambda: SnapshotTokenRingProtocol(max_hops=3), {}),
    # The declarative enabling filter.
    ("sync_monitor", lambda: SyncFailureMonitorProtocol(rounds=2), {}),
    # Custom system-level enabling (enabled_events override).
    (
        "fifo_snapshot",
        lambda: FifoProtocol(
            SnapshotTokenRingProtocol(("a", "b", "c"), max_hops=3)
        ),
        {},
    ),
    ("star_n4_max_events", lambda: star(("x", "y", "z")), {"max_events": 4}),
    (
        "star_n5_truncated",
        star5,
        {"max_configurations": 150, "on_limit": "truncate"},
    ),
    # Equal events are never the same object until the table interns them.
    ("fresh_events", FreshEventsProtocol, {}),
]


def force_hash_collisions(monkeypatch, modulus: int = 1009) -> list[str]:
    """Shrink ``_HASH_MODULUS`` in every loaded ``repro`` module that
    binds it, so content-hash collisions are frequent; returns the
    patched module names.  Scanning ``sys.modules`` means a module that
    starts hashing cannot silently escape the patch."""
    patched = []
    for name, module in sorted(sys.modules.items()):
        if name.partition(".")[0] != "repro" or module is None:
            continue
        if "_HASH_MODULUS" in vars(module):
            monkeypatch.setattr(module, "_HASH_MODULUS", modulus)
            patched.append(name)
    return patched


def assert_same_universe(universe: Universe, reference) -> None:
    """The full bit-identity contract against the reference BFS."""
    assert reference.differences(universe) == []


@pytest.fixture(scope="module")
def star_pair():
    """One medium universe (star n=5, 634 configurations) and its
    reference BFS."""
    return reference_bfs(star5()), Universe(star5())


def tree13() -> BroadcastProtocol:
    return BroadcastProtocol(
        tree_topology(tuple(f"t{i}" for i in range(13))), "t0"
    )


@pytest.fixture(scope="module")
def tree13_reference():
    """The reference BFS of the binary tree of 13 processes (62 954
    configurations)."""
    return reference_bfs(tree13())


class TestReferenceIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "label,factory,bounds",
        REFERENCE_CASES,
        ids=[entry[0] for entry in REFERENCE_CASES],
    )
    def test_engine_matches_reference(self, label, factory, bounds, workers):
        universe = Universe(
            factory(),
            options=ExplorationOptions(
                limits=Limits(**bounds), sharding=Sharding(workers=workers)
            ),
        )
        assert_same_universe(universe, reference_bfs(factory(), **bounds))
        if "max_events" in bounds or "max_configurations" in bounds:
            assert not universe.is_complete

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_mode_matches_reference(self, workers):
        with pytest.raises(UniverseError):
            reference_bfs(star5(), max_configurations=150)
        with pytest.raises(UniverseError):
            Universe(
                star5(),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=150),
                    sharding=Sharding(workers=workers),
                ),
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_forced_hash_collisions(self, monkeypatch, workers):
        """A tiny hash modulus forces content-hash collisions, so the
        collision-bucket and chain-walk paths run against the reference
        (complete and truncated)."""
        patched = force_hash_collisions(monkeypatch)
        assert "repro.core.configuration" in patched
        # The frontier computes every move's delta, and the kernel adds
        # it to the parent's hash; both read the modulus at exploration.
        assert "repro.universe.frontier" in patched
        assert "repro.universe.explorer" in patched
        reference = reference_bfs(star5())
        buckets = [b for b in reference.ids_by_hash.values() if type(b) is list]
        assert len(buckets) > 50
        sharding = Sharding(workers=workers)
        assert_same_universe(
            Universe(star5(), options=ExplorationOptions(sharding=sharding)),
            reference,
        )
        bounds = {"max_configurations": 300, "on_limit": "truncate"}
        assert_same_universe(
            Universe(
                star5(),
                options=ExplorationOptions(
                    limits=Limits(**bounds), sharding=sharding
                ),
            ),
            reference_bfs(star5(), **bounds),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_run_resume_matches_reference(self, tmp_path, workers, tree13_reference):
        """Cap tree 13 mid-run, then resume: the resumed frontier rows are
        rebuilt from the checkpoint's unpickled events, which are equal
        to but not the objects a fresh step table compiles."""
        path = tmp_path / "tree13.ckpt"
        sharding = Sharding(workers=workers)
        partial = Universe(
            tree13(),
            options=ExplorationOptions(
                limits=Limits(max_configurations=30_000, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
                sharding=sharding,
            ),
        )
        assert not partial.is_complete
        del partial
        resumed = Universe(
            tree13(),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path), sharding=sharding
            ),
        )
        assert resumed._checkpoint_session.resumed_from is not None
        assert_same_universe(resumed, tree13_reference)

    @pytest.mark.parametrize("store", ["objects", "parquet"])
    def test_other_stores_rejected(self, store):
        with pytest.raises(UniverseError, match="object store was removed"):
            Universe(
                PingPongProtocol(rounds=1),
                options=ExplorationOptions(store=store),
            )
        with pytest.raises(UniverseError, match="object store was removed"):
            Universe(
                PingPongProtocol(rounds=1),
                options=ExplorationOptions(store=store),
            )

    def test_default_and_explicit_arena_store(self):
        default = Universe(PingPongProtocol(rounds=1))
        explicit = Universe(
            PingPongProtocol(rounds=1),
            options=ExplorationOptions(store="arena"),
        )
        assert isinstance(default._configurations, ArenaStore)
        assert_same_universe(
            explicit, reference_bfs(PingPongProtocol(rounds=1))
        )


class TestRandomizedAccess:
    def test_random_indexing_matches(self, star_pair):
        reference, universe = star_pair
        configurations = reference.configurations
        store = universe._configurations
        rng = random.Random(7)
        for index in rng.sample(range(len(configurations)), 200):
            ours = store[index]
            assert ours == configurations[index]
            assert ours._histories == configurations[index]._histories
        # Negative indices and slices follow list semantics.
        assert store[-1] == configurations[-1]
        assert store[10:20] == configurations[10:20]
        with pytest.raises(IndexError):
            store[len(configurations)]

    def test_random_projections_match(self, star_pair):
        reference, universe = star_pair
        configurations = reference.configurations
        store = universe._configurations
        rng = random.Random(11)
        processes = sorted(universe.processes)
        for index in rng.sample(range(len(configurations)), 64):
            process = rng.choice(processes)
            assert store[index].history(process) == configurations[
                index
            ].history(process)

    def test_random_masks_match(self, star_pair):
        reference, universe = star_pair
        rng = random.Random(13)
        for _ in range(32):
            mask = rng.getrandbits(len(reference))
            assert universe.configurations_in_mask(mask) == tuple(
                reference.configurations[index]
                for index in iter_bit_ids(mask)
            )

    def test_partition_tables_match(self, star_pair):
        reference, universe = star_pair
        for process in sorted(universe.processes):
            label_of: dict = {}
            expected = [
                label_of.setdefault(configuration.history(process), len(label_of))
                for configuration in reference.configurations
            ]
            table = universe.partition_table(frozenset({process}))
            assert table.num_classes == len(label_of)
            assert list(table.class_of) == expected

    def test_config_id_round_trip(self, star_pair):
        reference, universe = star_pair
        rng = random.Random(17)
        for index in rng.sample(range(len(reference)), 64):
            assert universe.config_id(reference.configurations[index]) == index


class TestBatchCodec:
    def test_batch_codec_round_trip(self):
        payload = {"layer": 3, "records": [(0, "a"), (1, "b")], "n": 634}
        assert decompress_batch(compress_batch(payload)) == payload


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the arena chunk to 64 entries so small universes seal and
    compress — every tier crossed in milliseconds."""
    bits = 6
    size = 1 << bits
    monkeypatch.setattr(arena_module, "_CHUNK_BITS", bits)
    monkeypatch.setattr(arena_module, "_CHUNK_SIZE", size)
    monkeypatch.setattr(arena_module, "_CHUNK_MASK", size - 1)
    monkeypatch.setattr(arena_module, "_PARENT_BYTES", 8 * size)
    monkeypatch.setattr(arena_module, "_EVENT_BYTES", 4 * size)


class TestPackedTiers:
    def test_sealed_chunks_stay_equivalent(self, small_chunks):
        reference = reference_bfs(star5())
        universe = Universe(star5())
        store = universe._configurations
        stats = store.stats()
        assert stats["sealed_chunks"] > 0
        assert 0 < stats["compressed_bytes"] < stats["raw_bytes"]
        assert_same_universe(universe, reference)
        assert store == reference.configurations
        # Random access through the cold tier chain-walks and caches.
        configurations = reference.configurations
        rng = random.Random(19)
        for index in rng.sample(range(len(configurations)), 100):
            assert store[index] == configurations[index]
        assert store.chain_walks > 0

    def test_store_takes_only_cache_sizes(self):
        """The arena is all in RAM: its only knobs size its two caches."""
        assert list(inspect.signature(ArenaStore).parameters) == [
            "lru_size",
            "chunk_cache_size",
        ]

    def test_stats_report_in_ram_layout(self, small_chunks):
        """``stats`` reports the sealed zlib chunks perfbench reads, and
        every sealed chunk is one in-memory blob."""
        store = Universe(star5())._configurations
        stats = store.stats()
        assert set(stats) == {
            "configurations", "event_table", "sealed_chunks", "tail_bytes",
            "raw_bytes", "compressed_bytes", "lru", "materialisations",
            "chain_walks",
        }
        assert stats["configurations"] == len(store)
        assert stats["sealed_chunks"] == len(store._chunks) > 0
        assert all(type(chunk) is bytes for chunk in store._chunks)
        assert stats["compressed_bytes"] == sum(map(len, store._chunks))

    def test_replay_into_used_store_resets_layout(self, small_chunks):
        """A replay over a filled store clears it first: the same
        configurations, and the same layout figures as a fresh store."""
        universe = Universe(star5())
        columns = record_columns(
            universe._configurations.records(1, len(universe))
        )
        processes = star5().ordered_processes
        fresh = ArenaStore()
        fresh.replay(*columns, processes)
        used = ArenaStore()
        used.replay(*columns, processes)
        used.replay(*columns, processes)
        layout = ("configurations", "sealed_chunks", "tail_bytes",
                  "raw_bytes", "compressed_bytes")
        assert [used.stats()[key] for key in layout] == [
            fresh.stats()[key] for key in layout
        ]
        assert used == reference_bfs(star5()).configurations

    def test_tiny_lru_replay_matches(self, small_chunks):
        """A pathologically small LRU forces long chain-walks up the
        parent column; replay of the packed discovery records must still
        reproduce the reference exactly."""
        reference = reference_bfs(star5())
        universe = Universe(star5())
        records = universe._configurations.records(1, len(universe))
        tiny = ArenaStore(lru_size=4, chunk_cache_size=2)
        ids_by_hash = tiny.replay(
            *record_columns(records), universe.protocol.ordered_processes
        )
        assert ids_by_hash == reference.ids_by_hash
        tiny.retire(len(tiny))  # seal every chunk: cold reads only
        configurations = reference.configurations
        assert len(tiny) == len(configurations)
        rng = random.Random(29)
        for index in rng.sample(range(len(configurations)), 60):
            ours = tiny[index]
            assert ours == configurations[index]
            assert ours._histories == configurations[index]._histories
        assert len(tiny._lru) <= 4
        assert tiny.chain_walks > 0

    def test_records_skip_roots(self, small_chunks):
        universe = Universe(star(("x", "y")))
        store = universe._configurations
        records = store.records(0, len(store))
        assert len(records) == len(store) - 1  # the root has no record
        assert all(parent >= 0 for parent, _ in records)


def tiny_lru_store() -> tuple[ArenaStore, list]:
    """A star n=5 arena replayed into a 4-object LRU and a 2-chunk
    cache, with its reference configurations.  The receivers' names
    sort before the hub's, so a read that folds a receiver's first event
    into the hub's histories must re-sort the keys.  The replay seals
    every chunk below the last layer and leaves the rest in the tail."""
    protocol = star(("a", "b", "c", "d"))
    universe = Universe(protocol)
    store = ArenaStore(lru_size=4, chunk_cache_size=2)
    store.replay(
        *record_columns(universe._configurations.records(1, len(universe))),
        protocol.ordered_processes,
    )
    return store, reference_bfs(protocol).configurations


class TestReadPath:
    """A cold read folds the parent chain into one object: the target."""

    def test_every_id_in_random_order(self, small_chunks):
        store, configurations = tiny_lru_store()
        stats = store.stats()
        assert stats["sealed_chunks"] > 0 and stats["tail_bytes"] > 0
        # The replay builds no object and decodes no chunk: reads start cold.
        assert not store._lru and not store._chunk_cache
        ids = list(range(len(configurations)))
        random.Random(37).shuffle(ids)
        for index in ids:
            ours, theirs = store[index], configurations[index]
            assert ours == theirs
            assert ours._histories == theirs._histories
            assert list(ours._histories) == sorted(ours._histories)
            assert hash(ours) == store.content_hash(index) == hash(theirs)
            assert len(ours) == len(theirs)
            assert len(store._lru) <= 4

    def test_cold_read_builds_one_object(self, small_chunks, monkeypatch):
        store, configurations = tiny_lru_store()
        deepest = len(configurations) - 1
        assert len(configurations[deepest]) > 2  # a chain of several steps
        built = counting_trusted(monkeypatch)
        assert store[deepest] == configurations[deepest]
        assert len(built) == 1
        assert store.materialisations == 1
        assert list(store._lru) == [deepest]
        targets = [deepest]
        for index in random.Random(41).sample(range(1, deepest), 20):
            before = len(built)
            store[index]
            assert len(built) - before == (index not in targets[-4:])
            targets.append(index)
        assert set(store._lru) <= set(targets)

    def test_identity_hits_call_no_dunder(self, star_pair, monkeypatch):
        """An object the arena handed out is found by its stored hash
        and by identity: no Python-level ``__hash__`` or ``__eq__``."""
        _, universe = star_pair
        calls = []
        for name in ("__hash__", "__eq__"):
            method = getattr(Configuration, name)
            monkeypatch.setattr(
                Configuration,
                name,
                lambda *args, method=method, name=name: (
                    calls.append(name) or method(*args)
                ),
            )
        for index in random.Random(43).sample(range(len(universe)), 50):
            configuration = universe.configuration_of_id(index)
            assert universe.config_id(configuration) == index
            assert configuration in universe
            assert universe.require(configuration) is configuration
            universe.successors(configuration)
        assert calls == []


class TestSharedRootCaches:
    def test_reads_derive_no_message_sets(self):
        """The arena root is the process-wide empty configuration; once
        an unrelated caller caches its message sets, reads and streamed
        configurations still carry none, and compute them lazily."""
        from repro.simulation.simulator import simulate

        simulate(star(("w", "x", "y")))
        assert "in_flight_messages" in EMPTY_CONFIGURATION.__dict__
        reference = reference_bfs(star5()).configurations
        store = Universe(star5())._configurations
        cached = ("received_messages", "in_flight_messages")
        streamed = list(store)[1:]
        read = [store[index] for index in range(1, len(store))]
        for configurations in (streamed, read):
            assert not any(
                name in configuration.__dict__
                for configuration in configurations
                for name in cached
            )
            for ours, theirs in zip(configurations, reference[1:]):
                assert ours.received_messages == theirs.received_messages
                assert ours.in_flight_messages == theirs.in_flight_messages


def tree7() -> BroadcastProtocol:
    return BroadcastProtocol(tree_topology(tuple(f"t{i}" for i in range(7))), "t0")


REPLAY_CASES = [
    ("star_n5", star5, {}),
    ("tree_7", tree7, {}),
    ("token_bus_h4", lambda: TokenBusProtocol(max_hops=4), {}),
    ("mutex_h3", lambda: TokenRingMutexProtocol(max_hops=3), {}),
    # Selective receives (can_receive override).
    ("snapshot_ring", lambda: SnapshotTokenRingProtocol(max_hops=3), {}),
    ("star_n4_max_events", lambda: star(("x", "y", "z")), {"max_events": 4}),
    (
        "star_n5_truncated",
        star5,
        {"max_configurations": 150, "on_limit": "truncate"},
    ),
]


def pickle_each_record(stream: list) -> list:
    """Round-trip every record through its own pickle, so each event is
    a distinct object, equal to but not the same as any other (checkpoint
    segments do this per segment)."""
    return [pickle.loads(pickle.dumps(record)) for record in stream]


def columns(store: ArenaStore) -> list[tuple[int, int, int]]:
    return [store._entry(index) for index in range(len(store))]


class TestObjectFreeReplay:
    """:meth:`ArenaStore.replay` rebuilds the kernel's packed columns,
    event vocabulary and hash buckets from the discovery stream alone."""

    @pytest.mark.parametrize("pickled", [False, True], ids=["live", "pickled"])
    @pytest.mark.parametrize(
        "label,factory,bounds",
        REPLAY_CASES,
        ids=[entry[0] for entry in REPLAY_CASES],
    )
    def test_replay_matches_kernel(self, label, factory, bounds, pickled):
        universe = Universe(
            factory(), options=ExplorationOptions(limits=Limits(**bounds))
        )
        arena = universe._configurations
        stream = arena.records(1, len(arena))
        if pickled:
            stream = pickle_each_record(stream)
            distinct = {id(event) for _, event in stream}
            assert len(distinct) == len(stream)
            assert not distinct & {id(event) for event in arena._events}
        rebuilt = ArenaStore()
        ids_by_hash = rebuilt.replay(
            *record_columns(stream), universe.protocol.ordered_processes
        )
        assert ids_by_hash == universe._ids_by_hash
        assert columns(rebuilt) == columns(arena)
        assert rebuilt._events == arena._events
        assert rebuilt.materialisations == 0
        for index in random.Random(31).sample(range(len(arena)), min(40, len(arena))):
            assert rebuilt[index]._histories == arena[index]._histories

    def test_replay_keeps_collision_buckets(self, monkeypatch):
        force_hash_collisions(monkeypatch)
        universe = Universe(star5())
        assert any(type(b) is list for b in universe._ids_by_hash.values())
        arena = universe._configurations
        stream = pickle_each_record(arena.records(1, len(arena)))
        rebuilt = ArenaStore()
        ids_by_hash = rebuilt.replay(
            *record_columns(stream), universe.protocol.ordered_processes
        )
        assert ids_by_hash == universe._ids_by_hash
        assert columns(rebuilt) == columns(arena)

    def test_replay_seals_whole_chunks(self, small_chunks):
        universe = Universe(star5())
        arena = universe._configurations
        rebuilt = ArenaStore()
        rebuilt.replay(
            *record_columns(arena.records(1, len(arena))),
            universe.protocol.ordered_processes,
        )
        assert rebuilt.stats()["sealed_chunks"] > 1
        assert columns(rebuilt) == columns(arena)

    def test_out_of_order_stream_rejected(self):
        universe = Universe(star5())
        arena = universe._configurations
        stream = arena.records(1, len(arena))
        stream.append((1, stream[-1][1]))
        with pytest.raises(ValueError, match="not in BFS order"):
            ArenaStore().replay(
                *record_columns(stream), universe.protocol.ordered_processes
            )

    def test_undiscovered_parent_rejected(self):
        """A stream naming a parent it has not discovered yet (a
        CRC-valid but inconsistent checkpoint) is a ``ValueError``, the
        error a resume turns into ``CheckpointError``."""
        universe = Universe(star5())
        arena = universe._configurations
        stream = arena.records(1, len(arena))
        stream.append((len(arena) + 5, stream[-1][1]))
        with pytest.raises(ValueError, match="has not discovered yet"):
            ArenaStore().replay(
                *record_columns(stream), universe.protocol.ordered_processes
            )

    def test_columns_slice_across_sealed_chunks(self, small_chunks):
        """``columns(start, end)`` reads the same parent and event ids as
        the per-id entries, over any range of sealed chunks and tail."""
        universe = Universe(star5())
        arena = universe._configurations
        assert arena.stats()["sealed_chunks"] > 2
        entries = columns(arena)
        total = len(arena)
        ranges = ((0, total), (1, 64), (60, 200), (130, total), (64, 128), (5, 5))
        for start, end in ranges:
            parents, events = arena.columns(start, end)
            assert list(parents) == [entry[0] for entry in entries[start:end]]
            assert list(events) == [entry[1] for entry in entries[start:end]]


def fresh_store() -> ArenaStore:
    store = ArenaStore()
    store.append(EMPTY_CONFIGURATION)
    return store


def steps_on_p(count: int) -> list:
    return [internal("p", "step", payload=k) for k in range(count)]


class TestExtendChildren:
    """:meth:`ArenaStore.extend_children`, the arena's one path for
    children: the engines hand it each BFS layer's discoveries, and
    :meth:`ArenaStore.replay` its stream a chunk at a time."""

    def test_new_events_take_indices_in_first_appearance_order(self):
        a, b, c, d = steps_on_p(4)
        store = fresh_store()
        store.extend_children([0, 0, 0], [c, a, c], [11, 12, 13])
        assert store._events == [c, a]
        store.extend_children([1, 2, 2], [b, a, d], [14, 15, 16])
        assert store._events == [c, a, b, d]
        assert columns(store)[1:] == [
            (0, 0, 11), (0, 1, 12), (0, 0, 13),
            (1, 2, 14), (2, 1, 15), (2, 3, 16),
        ]

    def test_unpickled_event_maps_to_the_existing_index(self):
        a, b = steps_on_p(2)
        store = fresh_store()
        store.extend_children([0, 0], [a, b], [11, 12])
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and copy is not b
        store.extend_children([1, 2], [copy, a], [13, 14])
        assert store._events == [a, b]
        assert store._events[1] is b
        assert [event for _, event, _ in columns(store)[1:]] == [0, 1, 1, 0]

    def test_length_is_the_id_count_after_every_extend(self):
        events = steps_on_p(3)
        store = fresh_store()
        count = 1
        for size in (3, 0, 1, 7, 2):
            parent = count - 1
            batch = [events[k % 3] for k in range(size)]
            hashes = list(range(100 * count, 100 * count + size))
            store.extend_children([parent] * size, batch, hashes)
            count += size
            assert len(store) == count
            if size:
                assert store._entry(count - 1) == (
                    parent, store._events.index(batch[-1]), hashes[-1]
                )

    def test_a_layer_across_chunk_boundaries_seals(self, small_chunks):
        """One batch of 150 children crosses two 64-id chunk boundaries;
        retiring it seals both whole chunks, and reads through the cold
        tier rebuild the same configurations as the kernel's arena."""
        universe = Universe(star5())
        arena = universe._configurations
        stream = arena.records(1, len(arena))
        hashes = [arena.content_hash(index) for index in range(1, len(arena))]
        store = fresh_store()
        for start, stop in ((0, 150), (150, len(stream))):
            store.extend_children(
                [parent for parent, _ in stream[start:stop]],
                [event for _, event in stream[start:stop]],
                hashes[start:stop],
            )
            store.retire(1 + stop)
            assert len(store) == 1 + stop
        assert store.stats()["sealed_chunks"] == len(arena) // 64
        assert columns(store) == columns(arena)
        for index in random.Random(37).sample(range(len(arena)), 60):
            assert store[index]._histories == arena[index]._histories

    def test_kernel_extends_once_per_layer_without_row_calls(self, monkeypatch):
        """The kernel hands each BFS layer to the arena in one extend (the
        last, empty, layer included), and without content-hash
        collisions its duplicate probe never calls out to
        ``row_matches``."""
        from collections import Counter

        from repro.universe.frontier import PackedFrontier

        sizes = []
        extend = ArenaStore.extend_children

        def recorded(store, parents, events, hashes):
            sizes.append(len(hashes))
            return extend(store, parents, events, hashes)

        def forbidden(frontier, candidate_id, child_row):
            raise AssertionError("row_matches called without a collision")

        monkeypatch.setattr(ArenaStore, "extend_children", recorded)
        monkeypatch.setattr(PackedFrontier, "row_matches", forbidden)
        reference = reference_bfs(star5())
        assert_same_universe(Universe(star5()), reference)
        depths = Counter(
            sum(map(len, configuration._histories.values()))
            for configuration in reference.configurations
        )
        assert sizes == [depths[depth] for depth in range(1, len(depths) + 1)]

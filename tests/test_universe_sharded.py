"""Multiprocess sharded exploration: bit-identity with the kernel.

The contract of ``Sharding(workers=K)`` is that the merged
universe is *bit-identical* to single-process exploration: same dense
ids, same configuration objects (by value), same CSR successor arrays,
same content-hash table (including collision-bucket layout), same class
masks, same completeness flag — and the same truncation point under
``on_limit="truncate"``.  These tests assert all of it on every protocol
family the kernel special-cases: broadcast stars/trees/rings (compiled
fast path), token bus and ping-pong (value-object message churn),
selective reception (``can_receive`` override) and custom system-level
enabling (``enabled_events`` override).
"""

import random

import pytest

from repro.core.configuration import hash_domain_token
from repro.core.errors import UniverseError
from repro.protocols.broadcast import (
    BroadcastProtocol,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.failure_monitor import SyncFailureMonitorProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.snapshot import SnapshotTokenRingProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.simulation.network import FifoProtocol
from repro.universe.explorer import Universe, iter_bit_ids
from repro.universe.options import ExplorationOptions, Limits, Sharding
from repro.universe.sharded import resolve_workers


def star_protocol(size):
    receivers = tuple(f"p{index}" for index in range(size - 1))
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


def assert_bit_identical(single: Universe, sharded: Universe) -> None:
    """The full bit-identity contract, layer by layer."""
    assert len(single) == len(sharded)
    assert single.is_complete == sharded.is_complete
    # Dense ids: the configuration at every id is the same value, with
    # the same per-process histories.
    for config_id, (ours, theirs) in enumerate(
        zip(single._configurations, sharded._configurations)
    ):
        assert ours == theirs, f"configuration {config_id} differs"
        assert ours._histories == theirs._histories
    # CSR successor store and the content-hash id table (including
    # collision buckets, which must share bucket order).
    assert single._succ_offsets == sharded._succ_offsets
    assert single._succ_ids == sharded._succ_ids
    assert single._ids_by_hash == sharded._ids_by_hash
    # Class masks derived from the dense ids.
    for process in sorted(single.processes)[:2]:
        assert (
            single.partition_table(process).masks()
            == sharded.partition_table(process).masks()
        )
    two = frozenset(sorted(single.processes)[:2])
    assert single.class_masks(two) == sharded.class_masks(two)


PROTOCOLS = [
    pytest.param(lambda: star_protocol(5), 2, id="star5-w2"),
    pytest.param(lambda: star_protocol(6), 3, id="star6-w3"),
    pytest.param(
        lambda: BroadcastProtocol(
            tree_topology(tuple(f"t{index}" for index in range(7))), "t0"
        ),
        2,
        id="tree-d2-w2",
    ),
    pytest.param(
        lambda: BroadcastProtocol(
            ring_topology(tuple(f"r{index}" for index in range(5))), "r0"
        ),
        4,
        id="ring5-w4",
    ),
    pytest.param(lambda: TokenBusProtocol(max_hops=5), 2, id="tokenbus-w2"),
    pytest.param(lambda: PingPongProtocol(rounds=2), 5, id="pingpong-w5"),
    pytest.param(
        lambda: SyncFailureMonitorProtocol(rounds=2),
        2,
        id="custom-enabling-w2",
    ),
    pytest.param(
        lambda: FifoProtocol(
            SnapshotTokenRingProtocol(("a", "b", "c"), max_hops=3)
        ),
        3,
        id="selective-w3",
    ),
]


class TestShardedBitIdentity:
    @pytest.mark.parametrize("factory, workers", PROTOCOLS)
    def test_matches_single_process(self, factory, workers):
        single = Universe(factory())
        sharded = Universe(
            factory(),
            options=ExplorationOptions(sharding=Sharding(workers=workers)),
        )
        assert_bit_identical(single, sharded)

    def test_star7_with_four_workers(self):
        """The n<=7 scale point of the acceptance contract."""
        single = Universe(
            star_protocol(7),
            options=ExplorationOptions(limits=Limits(max_configurations=None)),
        )
        sharded = Universe(
            star_protocol(7),
            options=ExplorationOptions(
                limits=Limits(max_configurations=None),
                sharding=Sharding(workers=4),
            ),
        )
        assert len(single) == 75_974
        assert_bit_identical(single, sharded)

    def test_more_workers_than_frontier(self):
        """K larger than any frontier layer: shards may sit idle."""
        single = Universe(PingPongProtocol(rounds=1))
        sharded = Universe(
            PingPongProtocol(rounds=1),
            options=ExplorationOptions(sharding=Sharding(workers=7)),
        )
        assert_bit_identical(single, sharded)


class TestShardedBounds:
    def test_truncation_is_deterministic(self):
        """``on_limit="truncate"`` stops at the same configuration."""
        single = Universe(
            star_protocol(6),
            options=ExplorationOptions(
                limits=Limits(max_configurations=500, on_limit="truncate"),
            ),
        )
        sharded = Universe(
            star_protocol(6),
            options=ExplorationOptions(
                limits=Limits(max_configurations=500, on_limit="truncate"),
                sharding=Sharding(workers=3),
            ),
        )
        assert len(single) == 500
        assert not sharded.is_complete
        assert_bit_identical(single, sharded)

    def test_truncation_matches_across_worker_counts(self):
        universes = [
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=123, on_limit="truncate"),
                    sharding=Sharding(workers=workers),
                ),
            )
            for workers in (None, 2, 4)
        ]
        for sharded in universes[1:]:
            assert_bit_identical(universes[0], sharded)

    def test_limit_raises_like_kernel(self):
        with pytest.raises(UniverseError, match="exceeded 50"):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=50),
                    sharding=Sharding(workers=2),
                ),
            )

    def test_max_events_bound(self):
        single = Universe(
            star_protocol(5),
            options=ExplorationOptions(limits=Limits(max_events=6)),
        )
        sharded = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_events=6),
                sharding=Sharding(workers=2),
            ),
        )
        assert not single.is_complete
        assert_bit_identical(single, sharded)

    def test_queries_work_on_sharded_universe(self):
        sharded = Universe(
            star_protocol(5),
            options=ExplorationOptions(sharding=Sharding(workers=2)),
        )
        root = sharded.configuration_of_id(0)
        assert sharded.config_id(root) == 0
        assert root in sharded
        successors = sharded.successors(root)
        assert successors
        assert all(sharded.config_id(child) > 0 for child in successors)


class TestWorkerResolution:
    def test_none_zero_one_mean_in_process(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_negative_rejected(self):
        with pytest.raises(UniverseError, match="workers must be >= 0"):
            resolve_workers(-1)

    def test_absurd_counts_rejected(self):
        with pytest.raises(UniverseError, match="workers must be <="):
            resolve_workers(1000)

    def test_hash_domain_token_is_stable_in_process(self):
        assert hash_domain_token() == hash_domain_token()


class TestIterBitIdsWordWalk:
    """The zero-word-skipping mask walk against the byte-table reference
    (the pre-PR implementation, inlined here as the oracle)."""

    @staticmethod
    def reference_iter(mask):
        from repro.universe.explorer import _BYTE_BITS

        if not mask:
            return
        offset = 0
        for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
            if byte:
                for bit in _BYTE_BITS[byte]:
                    yield offset + bit
            offset += 8

    @pytest.mark.parametrize(
        "mask",
        [
            0,
            1,
            2,
            1 << 63,
            1 << 64,
            (1 << 64) - 1,
            (1 << 64) | 1,
            (1 << 128) - 1,
            ((1 << 64) - 1) << 64,
            (1 << 777) | (1 << 63) | 1,
        ],
    )
    def test_word_boundaries(self, mask):
        assert list(iter_bit_ids(mask)) == list(self.reference_iter(mask))

    def test_randomized_equivalence(self):
        rng = random.Random(20260730)
        for _ in range(500):
            mask = 0
            size = rng.randint(1, 4096)
            for _ in range(rng.randint(0, 256)):
                mask |= 1 << rng.randrange(size)
            if rng.random() < 0.5:  # splice a dense run of set bits
                run = (1 << rng.randint(1, 256)) - 1
                mask |= run << rng.randrange(size)
            assert list(iter_bit_ids(mask)) == list(self.reference_iter(mask))

    def test_bit_count_agreement(self):
        rng = random.Random(7)
        for _ in range(100):
            mask = rng.getrandbits(rng.randint(1, 2048))
            ids = list(iter_bit_ids(mask))
            assert len(ids) == mask.bit_count()
            assert ids == sorted(ids)

"""Compiled step tables and the exploration kernel vs. their oracles.

The exploration kernel enables events through
:meth:`Protocol.compiled_enabled_events` — compiled, shape-keyed step
tables plus the memoised receive set — while :meth:`Protocol.enabled_events`
remains the independently-memoised oracle.  These tests pin the
bit-identity (same events, same order) on every bundled protocol, over
complete *and* truncated universes, and check the CSR successor store
against a from-scratch reference BFS.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.events import InternalEvent, Message, ReceiveEvent, SendEvent
from repro.protocols.broadcast import (
    BroadcastProtocol,
    line_topology,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.dijkstra_scholten import DijkstraScholtenProtocol
from repro.protocols.mutex import TokenRingMutexProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.snapshot import SnapshotTokenRingProtocol
from repro.protocols.termination import generate_workload
from repro.protocols.token_bus import TokenBusProtocol
from repro.simulation.network import FifoProtocol
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits, Sharding
from repro.universe.reference import reference_bfs

from test_universe_sharded import assert_bit_identical


def bundled_protocols():
    return [
        ("star", BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub")),
        ("line", BroadcastProtocol(line_topology(("a", "b", "c")), "a")),
        ("ring", BroadcastProtocol(ring_topology(("r0", "r1", "r2", "r3")), "r0")),
        (
            "tree",
            BroadcastProtocol(
                tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
            ),
        ),
        ("token_bus", TokenBusProtocol(max_hops=4)),
        ("pingpong", PingPongProtocol(rounds=2)),
        ("mutex", TokenRingMutexProtocol(max_hops=3)),
        (
            "dijkstra_scholten",
            DijkstraScholtenProtocol(
                generate_workload(("a", "b", "c"), seed=1, activations_per_process=1)
            ),
        ),
    ]


class TestCompiledStepTableOracle:
    @pytest.mark.parametrize(
        "label,protocol", bundled_protocols(), ids=[p[0] for p in bundled_protocols()]
    )
    def test_bit_identical_to_enabled_events_oracle(self, label, protocol):
        """Table-driven enabling == the oracle on every configuration of
        the complete universe (same events, same order)."""
        universe = Universe(protocol)
        assert universe.is_complete
        for configuration in universe:
            assert protocol.compiled_enabled_events(configuration) == tuple(
                protocol.enabled_events(configuration)
            )

    @pytest.mark.parametrize(
        "label,protocol",
        [
            (
                "star_truncated",
                BroadcastProtocol(
                    star_topology("hub", ("w", "x", "y", "z")), "hub"
                ),
            ),
            ("token_bus_truncated", TokenBusProtocol(max_hops=6)),
        ],
    )
    def test_bit_identical_on_truncated_universes(self, label, protocol):
        universe = Universe(
            protocol,
            options=ExplorationOptions(limits=Limits(max_events=4)),
        )
        assert not universe.is_complete
        for configuration in universe:
            assert protocol.compiled_enabled_events(configuration) == tuple(
                protocol.enabled_events(configuration)
            )

    def test_shape_memo_is_exercised(self):
        """Shaped protocols must actually collapse histories onto shared
        shapes (otherwise the compiled table silently degrades to
        exact-history keying)."""
        protocol = BroadcastProtocol(
            star_topology("hub", ("w", "x", "y", "z")), "hub"
        )
        universe = Universe(protocol)
        table = protocol.step_table
        assert table.shape_hits > 0
        assert table.compiled_entries < sum(
            len(per) for per in table._by_history.values()
        )
        del universe

    def test_shape_contract_against_direct_local_steps(self):
        """Equal shapes ⟹ equal step tuples, checked per history against
        an uncached local_steps call."""
        protocol = TokenBusProtocol(max_hops=4)
        universe = Universe(protocol)
        by_shape: dict[tuple, dict[object, tuple]] = {}
        for configuration in universe:
            for process in protocol.ordered_processes:
                history = configuration.history(process)
                shape = protocol.step_shape(process, history)
                steps = tuple(protocol.local_steps(process, history))
                seen = by_shape.setdefault((process,), {})
                if shape in seen:
                    assert seen[shape] == steps
                else:
                    seen[shape] = steps

    def test_build_time_instrumentation(self):
        protocol = PingPongProtocol(rounds=2)
        Universe(protocol)
        table = protocol.step_table
        assert table.build_seconds >= 0.0
        assert table.compiled_entries > 0

    def test_enabling_filter_protocols_ride_the_table(self):
        """The sync failure monitor expresses its synchrony restriction
        as a declarative enabling *filter*, so it is no longer a
        custom-enabling protocol — it rides the compiled step tables,
        and the compiled path stays equivalent to the ``enabled_events``
        oracle on every configuration."""
        from repro.protocols.failure_monitor import SyncFailureMonitorProtocol

        protocol = SyncFailureMonitorProtocol(rounds=1)
        assert not protocol.has_custom_enabling
        assert protocol.has_enabling_filter
        universe = Universe(protocol)
        for configuration in universe:
            assert protocol.compiled_enabled_events(configuration) == tuple(
                protocol.enabled_events(configuration)
            )

    def test_enabling_filter_universe_matches_pre_filter_exploration(self):
        """The filtered kernel fast path discovers exactly the universe
        the enabled_events oracle defines (size + successor structure),
        in both engines."""
        from repro.protocols.failure_monitor import SyncFailureMonitorProtocol

        reference = reference_bfs(SyncFailureMonitorProtocol(rounds=2))
        for workers in (1, 2):
            other = Universe(
                SyncFailureMonitorProtocol(rounds=2),
                options=ExplorationOptions(sharding=Sharding(workers=workers)),
            )
            assert len(other) == len(reference)
            assert other._succ_offsets == reference.succ_offsets
            assert other._succ_ids == reference.succ_ids


class TestCSRSuccessorStore:
    @pytest.mark.parametrize(
        "protocol",
        [
            PingPongProtocol(rounds=2),
            BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub"),
            TokenRingMutexProtocol(max_hops=3),
        ],
    )
    def test_csr_matches_reference_store(self, protocol):
        """Same configurations, same ids, same successor rows (order
        included) as the reference id-list store."""
        universe = Universe(protocol)
        reference = reference_bfs(protocol)
        assert list(universe.configurations) == reference.configurations
        assert universe._succ_offsets == reference.succ_offsets
        assert universe._succ_ids == reference.succ_ids

    def test_offsets_invariants(self, pingpong_universe):
        offsets = pingpong_universe._succ_offsets
        assert offsets[0] == 0
        assert list(offsets) == sorted(offsets)  # monotone
        assert offsets[-1] == len(pingpong_universe._succ_ids)

    def test_successor_api_unchanged(self, pingpong_universe):
        for configuration in pingpong_universe:
            for successor in pingpong_universe.successors(configuration):
                assert len(successor) == len(configuration) + 1
                assert configuration.is_sub_configuration_of(successor)


class TestStreamingMode:
    def test_default_still_raises(self):
        from repro.core.errors import UniverseError

        with pytest.raises(UniverseError):
            Universe(
                PingPongProtocol(rounds=4),
                options=ExplorationOptions(limits=Limits(max_configurations=3)),
            )

    def test_truncate_returns_partial_universe(self):
        universe = Universe(
            PingPongProtocol(rounds=4),
            options=ExplorationOptions(
                limits=Limits(max_configurations=3, on_limit="truncate"),
            ),
        )
        assert len(universe) == 3
        assert not universe.is_complete
        # The partial universe stays fully usable.
        assert universe._succ_offsets[-1] == len(universe._succ_ids)
        assert len(universe._succ_offsets) == len(universe) + 1
        for configuration in universe:
            assert universe.config_id(configuration) >= 0
            universe.successors(configuration)
        table = universe.partition_table(frozenset({"p"}))
        assert table.size == 3

    def test_truncated_prefix_matches_full_exploration(self):
        """Streaming keeps exactly the BFS prefix of the full universe."""
        full = Universe(PingPongProtocol(rounds=4))
        partial = Universe(
            PingPongProtocol(rounds=4),
            options=ExplorationOptions(
                limits=Limits(max_configurations=5, on_limit="truncate"),
            ),
        )
        assert list(partial.configurations) == list(full.configurations)[:5]

    def test_invalid_on_limit_rejected(self):
        from repro.core.errors import UniverseError

        with pytest.raises(UniverseError):
            Universe(
                PingPongProtocol(rounds=1),
                options=ExplorationOptions(limits=Limits(on_limit="explode")),
            )

    def test_non_positive_bound_still_fires(self):
        """max_configurations=0 must bound on the first discovered child
        (the pre-CSR behaviour), not silently disable the safety valve."""
        from repro.core.errors import UniverseError

        with pytest.raises(UniverseError):
            Universe(
                PingPongProtocol(rounds=2),
                options=ExplorationOptions(limits=Limits(max_configurations=0)),
            )
        truncated = Universe(
            PingPongProtocol(rounds=2),
            options=ExplorationOptions(
                limits=Limits(max_configurations=0, on_limit="truncate"),
            ),
        )
        assert len(truncated) == 1  # just the empty configuration
        assert not truncated.is_complete


def warm_cases():
    """The exploration-scale broadcast family: star, tree and ring, plus a
    star capped mid-layer."""
    return [
        pytest.param(
            lambda: BroadcastProtocol(
                star_topology("hub", ("w", "x", "y", "z")), "hub"
            ),
            Limits(),
            id="star5",
        ),
        pytest.param(
            lambda: BroadcastProtocol(
                tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
            ),
            Limits(),
            id="tree7",
        ),
        pytest.param(
            lambda: BroadcastProtocol(
                ring_topology(tuple(f"r{i}" for i in range(5))), "r0"
            ),
            Limits(),
            id="ring5",
        ),
        pytest.param(
            lambda: BroadcastProtocol(
                star_topology("hub", ("w", "x", "y", "z")), "hub"
            ),
            Limits(max_configurations=200, on_limit="truncate"),
            id="star5_capped",
        ),
    ]


class TestWarmTables:
    """A second exploration with the same protocol instance runs on warm
    compiled tables: it compiles no entry, adds no build time, and builds
    the universe a cold instance builds, bit for bit."""

    @pytest.mark.parametrize("factory,limits", warm_cases())
    def test_warm_exploration_compiles_nothing(self, factory, limits):
        options = ExplorationOptions(limits=limits)
        cold = Universe(factory(), options=options)
        protocol = factory()
        Universe(protocol, options=options)
        table = protocol.step_table
        entries, seconds = table.compiled_entries, table.build_seconds
        assert entries > 0
        warm = Universe(protocol, options=options)
        assert table.compiled_entries == entries
        assert table.build_seconds == seconds
        assert_bit_identical(cold, warm)


def identity_cases():
    return [
        (
            "star5",
            BroadcastProtocol(
                star_topology("hub", ("w", "x", "y", "z")), "hub"
            ),
        ),
        (
            "tree7",
            BroadcastProtocol(
                tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
            ),
        ),
    ]


class TestKernelIdentityHits:
    """The step table interns its events, so the kernel's row, set and
    vocabulary comparisons are identity hits, never value ``__eq__``."""

    @pytest.mark.parametrize(
        "label,protocol", identity_cases(), ids=[c[0] for c in identity_cases()]
    )
    def test_warm_rebuild_calls_no_value_eq(self, label, protocol, monkeypatch):
        first = Universe(protocol)
        calls: Counter = Counter()
        for cls in (SendEvent, ReceiveEvent, InternalEvent, Message):
            original = cls.__eq__

            def counting(self, other, _original=original, _name=cls.__name__):
                calls[_name] += 1
                return _original(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        second = Universe(protocol)
        assert calls == Counter()
        monkeypatch.undo()
        assert len(second) == len(first)
        assert second._succ_ids == first._succ_ids

    @pytest.mark.parametrize(
        "label,protocol", identity_cases(), ids=[c[0] for c in identity_cases()]
    )
    def test_arena_vocabulary_is_canonical(self, label, protocol):
        universe = Universe(protocol)
        table = protocol.step_table
        vocabulary = universe._configurations._events
        assert any(isinstance(event, ReceiveEvent) for event in vocabulary)
        for event in vocabulary:
            if isinstance(event, ReceiveEvent):
                canonical = protocol._receive_cache.get(event.message)
            else:
                canonical = table._events.get(event)
            assert canonical is event

    @pytest.mark.parametrize("workers", [1, 2])
    def test_custom_enabling_compiles_no_entries(self, workers):
        protocol = FifoProtocol(
            SnapshotTokenRingProtocol(("a", "b", "c"), max_hops=3)
        )
        assert protocol.has_custom_enabling
        universe = Universe(
            protocol,
            options=ExplorationOptions(sharding=Sharding(workers=workers)),
        )
        assert len(universe) > 1
        assert protocol.step_table.compiled_entries == 0

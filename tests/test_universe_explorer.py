"""Unit tests for exhaustive universe exploration."""

import pytest

from repro.core.configuration import EMPTY_CONFIGURATION
from repro.core.errors import UniverseError
from repro.core.validation import is_valid_configuration
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.builder import figure_3_1_universe
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits, Sharding


def linear_per_configuration(protocol) -> float:
    """Linear prefixes per configuration: a configuration stands for
    every interleaving of its events, counted as root paths in the
    successor graph."""
    universe = Universe(protocol)
    paths = [1] + [0] * (len(universe) - 1)
    for x_id, configuration in enumerate(universe):  # parents first
        for successor in universe.successors(configuration):
            paths[universe.config_id(successor)] += paths[x_id]
    return sum(paths) / len(universe)


class TestExploration:
    def test_pingpong_universe_size(self):
        """One round of ping/pong: null, ping sent, ping received, pong
        sent, pong received — exactly 5 configurations."""
        universe = Universe(PingPongProtocol(rounds=1))
        assert len(universe) == 5
        assert universe.is_complete

    def test_contains_empty_configuration(self, pingpong_universe):
        assert EMPTY_CONFIGURATION in pingpong_universe

    def test_all_configurations_valid(self, pingpong_universe):
        for configuration in pingpong_universe:
            assert is_valid_configuration(configuration)

    def test_bfs_order_is_by_size(self, pingpong_universe):
        sizes = [len(configuration) for configuration in pingpong_universe]
        assert sizes == sorted(sizes)

    def test_closed_under_consistent_cuts(self, broadcast_universe):
        """Every sub-configuration of a member is a member (the closure
        property the composed-relation machinery relies on)."""
        for x, z in broadcast_universe.sub_configuration_pairs():
            assert x in broadcast_universe

    def test_successors_extend_by_one_event(self, pingpong_universe):
        for configuration in pingpong_universe:
            for successor in pingpong_universe.successors(configuration):
                assert len(successor) == len(configuration) + 1
                assert configuration.is_sub_configuration_of(successor)

    @pytest.mark.parametrize(
        "protocol",
        [
            PingPongProtocol(rounds=1),
            PingPongProtocol(rounds=2),
            PingPongProtocol(rounds=3),
            TokenBusProtocol(max_hops=4),
        ],
        ids=["pingpong-1", "pingpong-2", "pingpong-3", "token-bus-4"],
    )
    def test_sequential_protocol_has_one_interleaving(self, protocol):
        """One event enabled at a time leaves nothing to collapse."""
        assert linear_per_configuration(protocol) == 1.0

    def test_configurations_collapse_interleavings(self):
        """Each concurrent leaf of a star widens the gap between linear
        prefixes and configurations."""
        ratios = [
            linear_per_configuration(
                BroadcastProtocol(star_topology("hub", leaves), "hub")
            )
            for leaves in (("x", "y"), ("x", "y", "z"), ("w", "x", "y", "z"))
        ]
        assert 1.0 < ratios[0] < ratios[1] < ratios[2]

    def test_truncation_detected(self):
        truncated = Universe(
            PingPongProtocol(rounds=10),
            options=ExplorationOptions(limits=Limits(max_events=4)),
        )
        assert not truncated.is_complete

    def test_configuration_budget_enforced(self):
        with pytest.raises(UniverseError):
            Universe(
                PingPongProtocol(rounds=4),
                options=ExplorationOptions(limits=Limits(max_configurations=3)),
            )

    def test_require_rejects_foreigners(self, pingpong_universe):
        from repro.core.configuration import Configuration
        from repro.core.events import internal

        foreign = Configuration({"x": (internal("x"),)})
        with pytest.raises(UniverseError):
            pingpong_universe.require(foreign)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_configuration_of_id_rejects_out_of_range(self, workers):
        """Ids outside ``[0, len)`` raise instead of wrapping: ``-1``
        must not silently return the last configuration."""
        universe = Universe(
            PingPongProtocol(rounds=1),
            options=ExplorationOptions(sharding=Sharding(workers=workers)),
        )
        last = len(universe) - 1
        assert universe.config_id(universe.configuration_of_id(last)) == last
        for bad in (-1, len(universe)):
            with pytest.raises(UniverseError):
                universe.configuration_of_id(bad)


class TestIsoClasses:
    def test_iso_class_members_share_projection(self, pingpong_universe):
        for configuration in pingpong_universe:
            for member in pingpong_universe.iso_class(configuration, {"p"}):
                assert member.projection({"p"}) == configuration.projection({"p"})

    def test_iso_class_is_symmetric(self, pingpong_universe):
        for x in pingpong_universe:
            for y in pingpong_universe.iso_class(x, {"q"}):
                assert x in pingpong_universe.iso_class(y, {"q"})

    def test_empty_set_class_is_everything(self, pingpong_universe):
        for configuration in pingpong_universe:
            assert len(
                pingpong_universe.iso_class(configuration, frozenset())
            ) == len(pingpong_universe)

    def test_d_class_is_singleton(self, pingpong_universe):
        """Configurations are canonical [D]-representatives, so the
        [D]-class of each is itself alone."""
        d = pingpong_universe.processes
        for configuration in pingpong_universe:
            assert pingpong_universe.iso_class(configuration, d) == (configuration,)

    def test_events_view(self, pingpong_universe):
        events = pingpong_universe.events()
        # Two rounds: ping#0/#1 and pong#0/#1, each with a send and receive.
        assert len(events) == 8
        assert all(event.process in {"p", "q"} for event in events)


class TestEnumeratedUniverse:
    def test_prefix_closure(self):
        universe = figure_3_1_universe()
        assert EMPTY_CONFIGURATION in universe
        for configuration in universe:
            for smaller in universe:
                if smaller.is_sub_configuration_of(configuration):
                    assert smaller in universe

    def test_has_no_protocol(self):
        universe = figure_3_1_universe()
        with pytest.raises(UniverseError):
            universe.protocol  # noqa: B018

    def test_complement_uses_observed_processes(self):
        universe = figure_3_1_universe()
        assert universe.complement({"p"}) == {"q"}

    def test_successor_structure(self):
        universe = figure_3_1_universe()
        empty = EMPTY_CONFIGURATION
        assert len(universe.successors(empty)) == 4  # a_p, d_p, b_q, c_q

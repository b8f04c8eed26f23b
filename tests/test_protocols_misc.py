"""Ping-pong, toggle and Chang–Roberts protocol behaviour."""

import pytest

from repro.protocols.leader_election import ChangRobertsProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate
from repro.universe.explorer import Universe


class TestPingPong:
    def test_universe_sizes_grow_linearly(self):
        sizes = [len(Universe(PingPongProtocol(rounds=r))) for r in (0, 1, 2, 3)]
        assert sizes == [1, 5, 9, 13]

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            PingPongProtocol(rounds=-1)

    def test_strict_alternation(self):
        trace = simulate(PingPongProtocol(rounds=3), RandomScheduler(0))
        tags = [
            event.message.tag for event in trace.computation if event.is_send
        ]
        assert tags == ["ping", "pong", "ping", "pong", "ping", "pong"]


class TestToggle:
    def test_bit_follows_flips(self):
        protocol = ToggleProtocol(max_flips=3)
        universe = Universe(protocol)
        atom = bit_atom(protocol)
        for configuration in universe:
            flips = sum(
                1
                for event in configuration.history(protocol.owner)
                if getattr(event, "tag", None) == "flip"
            )
            assert atom.fn(configuration) == (flips % 2 == 1)

    def test_reports_carry_the_new_value(self):
        protocol = ToggleProtocol(max_flips=2, report=True)
        trace = simulate(protocol, RandomScheduler(1))
        for event in trace.computation:
            if event.is_send:
                assert isinstance(event.message.payload, bool)

    def test_reportless_variant(self):
        protocol = ToggleProtocol(max_flips=2, report=False)
        trace = simulate(protocol, RandomScheduler(0))
        assert trace.count_messages() == 0
        assert trace.count_internal("flip") == 2


class TestChangRoberts:
    @pytest.mark.parametrize("seed", range(5))
    def test_highest_rank_wins(self, seed):
        ring = tuple(f"n{i}" for i in range(6))
        protocol = ChangRobertsProtocol(ring)
        trace = simulate(protocol, RandomScheduler(seed))
        assert protocol.elected_leader(trace.final_configuration) == "n5"

    def test_custom_ranks(self):
        ring = ("a", "b", "c")
        protocol = ChangRobertsProtocol(ring, ranks={"a": 10, "b": 1, "c": 2})
        trace = simulate(protocol, RandomScheduler(0))
        assert protocol.elected_leader(trace.final_configuration) == "a"

    def test_exactly_one_leader(self):
        ring = tuple(f"n{i}" for i in range(5))
        protocol = ChangRobertsProtocol(ring)
        trace = simulate(protocol, RandomScheduler(2))
        final = trace.final_configuration
        announcements = sum(
            1
            for process in ring
            if protocol.has_announced(final.history(process))
        )
        assert announcements == 1

    def test_message_complexity_bounds(self):
        """n log n average, n^2 worst case, at least 2n - 1... the basic
        sanity envelope: winner's id travels the whole ring."""
        ring = tuple(f"n{i}" for i in range(6))
        protocol = ChangRobertsProtocol(ring)
        trace = simulate(protocol, RandomScheduler(0))
        count = protocol.message_count(trace.final_configuration)
        assert len(ring) <= count <= len(ring) ** 2

    @pytest.mark.parametrize("size", [4, 8, 24])
    def test_worst_case_descending_ranks(self, size):
        ring = tuple(f"n{i}" for i in range(size))
        ranks = {name: size - index for index, name in enumerate(ring)}
        protocol = ChangRobertsProtocol(ring, ranks=ranks)
        trace = simulate(protocol, RandomScheduler(1), max_steps=500_000)
        # Descending order: i-th candidate travels i hops -> n(n+1)/2.
        assert protocol.message_count(trace.final_configuration) == (
            size * (size + 1) // 2
        )

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            ChangRobertsProtocol(("solo",))
        with pytest.raises(ValueError):
            ChangRobertsProtocol(("a", "b"), ranks={"a": 1})
        with pytest.raises(ValueError):
            ChangRobertsProtocol(("a", "b"), ranks={"a": 1, "b": 1})

"""The token bus and the paper's §4.1 nested-knowledge example (E7)."""

from collections.abc import Sequence

import pytest

from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import And, Knows, Not
from repro.protocols.token_bus import (
    TokenBusProtocol,
    check_paper_example,
    holds_token_atom,
    paper_example_formula,
)
from repro.simulation import simulate
from repro.universe.explorer import Universe


class CountingHistory(Sequence):
    """A history that counts the events read from it."""

    def __init__(self, events) -> None:
        self._events = tuple(events)
        self.reads = 0

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        item = self._events[index]
        self.reads += len(item) if isinstance(index, slice) else 1
        return item


class TestProtocol:
    def test_single_token_invariant(self, token_bus_universe):
        """At most one station holds the token; exactly one when no token
        message is in flight."""
        protocol = token_bus_universe.protocol
        for configuration in token_bus_universe:
            holders = [
                station
                for station in protocol.stations
                if protocol.holds_token(station, configuration.history(station))
            ]
            if configuration.in_flight_messages:
                assert len(holders) == 0
            else:
                assert len(holders) == 1

    def test_token_starts_at_leftmost(self):
        protocol = TokenBusProtocol(max_hops=2)
        assert protocol.holds_token("p", ())
        assert not protocol.holds_token("q", ())

    def test_boundaries_have_one_neighbour(self):
        protocol = TokenBusProtocol(max_hops=1)
        assert protocol._neighbours("p") == ("q",)
        assert protocol._neighbours("t") == ("s",)
        assert protocol._neighbours("r") == ("q", "s")

    def test_hop_bound_limits_universe(self):
        small = Universe(TokenBusProtocol(max_hops=1))
        large = Universe(TokenBusProtocol(max_hops=3))
        assert len(small) < len(large)
        assert small.is_complete and large.is_complete

    @pytest.mark.parametrize("station", ["p", "q"])
    def test_local_steps_read_a_fixed_number_of_events(self, station):
        """One call reads as many history events when the history doubles:
        a long simulation's steps do not rescan the station's past."""
        run = simulate(TokenBusProtocol(stations=("p", "q"), max_hops=40))
        history = run.final_configuration.history(station)
        assert len(history) >= 40
        protocol = TokenBusProtocol(stations=("p", "q"), max_hops=1_000)
        reads = []
        for length in (20, 40):
            counted = CountingHistory(history[:length])
            steps = list(protocol.local_steps(station, counted))
            assert steps == list(protocol.local_steps(station, history[:length]))
            reads.append(counted.reads)
        assert reads[0] == reads[1] <= 1

    def test_needs_two_stations(self):
        with pytest.raises(ValueError):
            TokenBusProtocol(stations=("solo",))

    def test_station_names_distinct(self):
        with pytest.raises(ValueError):
            TokenBusProtocol(stations=("a", "a", "b"))


class TestPaperExample:
    def test_formula_valid_on_three_hops(self, token_bus_universe):
        result = check_paper_example(token_bus_universe)
        assert result["valid"]
        assert result["r_holds_count"] > 0  # non-vacuous

    @pytest.mark.parametrize("hops, r_holds", [(2, 1), (4, 2), (5, 4), (6, 13)])
    def test_formula_valid_on_other_depths(self, hops, r_holds):
        """Two hops first hand the token to r; from four hops on, r is
        reachable more than one way."""
        universe = Universe(TokenBusProtocol(max_hops=hops))
        result = check_paper_example(universe)
        assert result["valid"]
        assert result["r_holds_count"] >= r_holds

    def test_nested_knowledge_unpacked(self, token_bus_universe):
        """Check the two conjuncts separately at every r-holding config."""
        evaluator = KnowledgeEvaluator(token_bus_universe)
        protocol = token_bus_universe.protocol
        r_holds = holds_token_atom(protocol, "r")
        q_knows = Knows("q", Not(holds_token_atom(protocol, "p")))
        s_knows = Knows("s", Not(holds_token_atom(protocol, "t")))
        for configuration in evaluator.extension(r_holds):
            assert evaluator.holds(Knows("r", And(q_knows, s_knows)), configuration)

    def test_converse_is_false(self, token_bus_universe):
        """p does NOT always know whether r holds — the knowledge is
        specifically along the bus structure, not universal."""
        evaluator = KnowledgeEvaluator(token_bus_universe)
        protocol = token_bus_universe.protocol
        from repro.knowledge.formula import Sure

        assert not evaluator.is_valid(Sure("p", holds_token_atom(protocol, "r")))

    def test_formula_requires_five_stations(self):
        protocol = TokenBusProtocol(stations=("a", "b"), max_hops=1)
        with pytest.raises(ValueError):
            paper_example_formula(protocol)

    def test_check_requires_token_bus(self, pingpong_universe):
        with pytest.raises(TypeError):
            check_paper_example(pingpong_universe)

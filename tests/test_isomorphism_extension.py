"""The Principle of Computation Extension and Theorem 3 (§3.4)."""

from functools import cache

import pytest

from repro.isomorphism.extension import (
    check_extension_corollary,
    check_extension_principle_part1,
    check_extension_principle_part2,
    check_theorem_3,
    edges_on,
    related_set,
)
from repro.isomorphism.reference import (
    check_extension_corollary_reference,
    check_extension_principle_part1_reference,
    check_extension_principle_part2_reference,
    composed_class_reference,
    extension_event,
)
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits
from test_universe_partition import ORACLE_UNIVERSES

RULES = {
    "part1": (
        check_extension_principle_part1,
        check_extension_principle_part1_reference,
    ),
    "part2": (
        check_extension_principle_part2,
        check_extension_principle_part2_reference,
    ),
    "corollary": (check_extension_corollary, check_extension_corollary_reference),
}


@cache
def oracle_universe(name: str) -> Universe:
    return ORACLE_UNIVERSES[name]()


def outcome(check, universe) -> int | str:
    """A checker's instance count, or the counterexample it raised."""
    try:
        return check(universe)
    except AssertionError as error:
        return str(error)


def theorem_3_by_definition(universe, process_sets) -> dict[str, int]:
    """Theorem 3 on configurations: every transition, its event from the
    two ends, and both ``[P P̄]`` images from the object-level oracle."""
    counts = {"receive": 0, "send": 0, "internal": 0}
    for x in universe:
        for extended in universe.successors(x):
            event = extension_event(x, extended)
            for p_set in process_sets:
                if event.process not in p_set:
                    continue
                sets = [p_set, universe.complement(p_set)]
                before = composed_class_reference(universe, x, sets)
                after = composed_class_reference(universe, extended, sets)
                kind = event.kind.value
                if kind == "receive":
                    assert after <= before
                elif kind == "send":
                    assert before <= after
                else:
                    assert before == after
                counts[kind] += 1
    return counts


class TestExtensionEvent:
    def test_identifies_the_added_event(self, pingpong_universe):
        for x in pingpong_universe:
            for extended in pingpong_universe.successors(x):
                event = extension_event(x, extended)
                assert event is not None
                assert x.extend(event) == extended

    def test_none_for_unrelated_configurations(self, pingpong_universe):
        configs = list(pingpong_universe)
        same_size = [c for c in configs if len(c) == 2]
        if len(same_size) >= 2:
            assert extension_event(same_size[0], same_size[1]) is None


class TestEdgesOn:
    @pytest.mark.parametrize(
        "name", ["pingpong_universe", "broadcast_universe", "token_bus_universe"]
    )
    def test_matches_the_object_level_edges(self, name, request):
        """Each stored transition appears once, under its event's process,
        with the event the two configurations differ by."""
        universe = request.getfixturevalue(name)
        expected = {
            (universe.config_id(x), universe.config_id(y), extension_event(x, y))
            for x in universe
            for y in universe.successors(x)
        }
        found = []
        for process in sorted(universe.processes):
            for event, edges in edges_on(universe, process):
                assert event.process == process
                assert edges == sorted(edges)
                found.extend((x_id, y_id, event) for x_id, y_id in edges)
        assert len(found) == len(set(found)) and set(found) == expected


class TestExtensionPrinciple:
    def test_part1_on_pingpong(self, pingpong_universe):
        assert check_extension_principle_part1(pingpong_universe) > 0

    def test_part2_on_pingpong(self, pingpong_universe):
        assert check_extension_principle_part2(pingpong_universe) > 0

    def test_corollary_on_pingpong(self, pingpong_universe):
        assert check_extension_corollary(pingpong_universe) > 0

    def test_part1_on_broadcast(self, broadcast_universe):
        assert check_extension_principle_part1(broadcast_universe) > 0

    def test_part2_on_broadcast(self, broadcast_universe):
        assert check_extension_principle_part2(broadcast_universe) > 0

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", sorted(ORACLE_UNIVERSES))
    def test_matches_the_object_oracle(self, name, rule):
        """Class ids and edges_on give the object walk's count, or raise
        its counterexample, truncated universes included."""
        check, oracle = RULES[rule]
        universe = oracle_universe(name)
        assert outcome(check, universe) == outcome(oracle, universe)

    def test_star5_counts(self):
        universe = oracle_universe("star5")
        assert [check(universe) for check, _ in RULES.values()] == [
            1_973,
            306_917,
            7_396,
        ]

    def test_truncation_breaks_part1_at_the_oracles_instance(self):
        """Under a max_events bound, a (y;e) past the bound is missing: the
        first failure in the object walk's order is reported, with its
        configurations."""
        universe = oracle_universe("star5_truncated")
        with pytest.raises(AssertionError) as failure:
            check_extension_principle_part1(universe)
        message = str(failure.value)
        assert message.startswith(
            "extension principle part 1 fails: (y;e) missing for "
            "x=Configuration(hub: "
        )
        assert ", y=Configuration(hub: " in message and ", e=snd[" in message
        assert message == outcome(check_extension_principle_part1_reference, universe)

    def test_unstored_edges_are_not_failures(self):
        """A capped universe leaves some (y - e) unexpanded, so the edge into
        y is not stored; y is still an instance that holds."""
        universe = Universe(
            BroadcastProtocol(star_topology("hub", ("w", "x", "y", "z")), "hub"),
            options=ExplorationOptions(
                limits=Limits(max_configurations=400, on_limit="truncate")
            ),
        )
        stored = {
            (x_id, y_id)
            for process in universe.processes
            for _, edges in edges_on(universe, process)
            for x_id, y_id in edges
        }
        unstored = [
            (x, y)
            for x in universe
            for y in universe
            if extension_event(x, y) is not None
            and (universe.config_id(x), universe.config_id(y)) not in stored
        ]
        assert unstored
        assert check_extension_principle_part2(universe) == 57_128
        assert check_extension_principle_part2_reference(universe) == 57_128


class TestTheorem3:
    def test_pingpong_semantics(self, pingpong_universe):
        counts = check_theorem_3(pingpong_universe)
        assert counts["receive"] > 0
        assert counts["send"] > 0

    def test_broadcast_semantics_includes_internal(self, broadcast_universe):
        counts = check_theorem_3(broadcast_universe)
        assert counts["internal"] > 0
        assert counts["receive"] > 0
        assert counts["send"] > 0

    def test_receive_strictly_shrinks_somewhere(self, pingpong_universe):
        """Theorem 3's intuition: receives rule out computations that lack
        the corresponding send.  At least one receive must *strictly*
        shrink the related set."""
        shrank = False
        for x in pingpong_universe:
            for extended in pingpong_universe.successors(x):
                event = extension_event(x, extended)
                if event is None or not event.is_receive:
                    continue
                before = related_set(pingpong_universe, x, {event.process})
                after = related_set(pingpong_universe, extended, {event.process})
                if len(after) < len(before):
                    shrank = True
        assert shrank

    @pytest.mark.parametrize(
        "name", ["pingpong_universe", "broadcast_universe", "token_bus_universe"]
    )
    def test_counts_match_the_definition(self, name, request):
        universe = request.getfixturevalue(name)
        processes = sorted(universe.processes)
        process_sets = [frozenset((process,)) for process in processes]
        process_sets.append(frozenset(processes[:2]))
        assert check_theorem_3(universe, process_sets) == theorem_3_by_definition(
            universe, process_sets
        )

    def test_star6_counts(self):
        leaves = tuple(f"r{index}" for index in range(5))
        universe = Universe(BroadcastProtocol(star_topology("hub", leaves), "hub"))
        assert check_theorem_3(universe) == {
            "receive": 14_245,
            "send": 3_165,
            "internal": 1,
        }

    def test_larger_sets_also_respect_theorem_3(self, pingpong_universe):
        counts = check_theorem_3(
            pingpong_universe, process_sets=[{"p"}, {"q"}, {"p", "q"}]
        )
        assert sum(counts.values()) > 0

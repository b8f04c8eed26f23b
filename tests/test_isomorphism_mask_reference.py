"""Mask engine vs object-level reference oracles, bit for bit.

The composed-relation pipelines and the ten property checkers now run on
partition tables and bitmasks; the pre-mask implementations are retained
in :mod:`repro.isomorphism.reference` as oracles.  These tests assert
both agree on three protocols (star broadcast, token bus at two sizes,
ping-pong) and on a truncated — hence incomplete — universe, and that
the ten properties hold on every one of them.
"""

import pytest

from repro.isomorphism import reference
from repro.isomorphism.algebra import (
    check_all_properties,
    check_containment,
    sequences_equal,
)
from repro.isomorphism.relation import (
    composed_class,
    composed_isomorphic,
    find_composition_witness,
    isomorphic,
)
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits


@pytest.fixture(scope="module")
def star_universe() -> Universe:
    return Universe(
        BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub")
    )


@pytest.fixture(scope="module")
def truncated_universe() -> Universe:
    universe = Universe(
        BroadcastProtocol(star_topology("hub", ("x", "y", "z")), "hub"),
        options=ExplorationOptions(limits=Limits(max_events=4)),
    )
    assert not universe.is_complete
    return universe


@pytest.fixture(scope="module")
def token_universe() -> Universe:
    return Universe(TokenBusProtocol(max_hops=3))


@pytest.fixture(scope="module")
def token_bus_h4() -> Universe:
    return Universe(TokenBusProtocol(max_hops=4))


@pytest.fixture(scope="module")
def pingpong() -> Universe:
    return Universe(PingPongProtocol(rounds=2))


def chains_of(universe):
    processes = sorted(universe.processes)
    first = frozenset({processes[0]})
    last = frozenset({processes[-1]})
    return [
        [],
        [first],
        [first, last],
        [last, first, last],
        [frozenset(processes)],
    ]


ALL_UNIVERSES = [
    "star_universe",
    "token_universe",
    "token_bus_h4",
    "pingpong",
    "truncated_universe",
]


@pytest.mark.parametrize("universe_name", ALL_UNIVERSES)
class TestComposedRelationOracle:
    def test_composed_class_bit_identical(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        for sets in chains_of(universe):
            if not sets:
                continue
            for x in universe:
                assert composed_class(
                    universe, x, sets
                ) == reference.composed_class_reference(universe, x, sets)

    def test_composed_isomorphic_agrees(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        sample = list(universe)[:: max(1, len(universe) // 12)]
        for sets in chains_of(universe):
            for x in sample:
                for z in sample:
                    assert composed_isomorphic(
                        universe, x, sets, z
                    ) == reference.composed_isomorphic_reference(
                        universe, x, sets, z
                    )

    def test_witness_existence_and_validity(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        sample = list(universe)[:: max(1, len(universe) // 10)]
        for sets in chains_of(universe):
            for x in sample:
                for z in sample:
                    witness = find_composition_witness(universe, x, sets, z)
                    expected = reference.find_composition_witness_reference(
                        universe, x, sets, z
                    )
                    assert (witness is None) == (expected is None)
                    if witness is None:
                        continue
                    assert witness[0] == x and witness[-1] == z
                    assert len(witness) == len(sets) + 1
                    for step, entry in enumerate(sets):
                        assert isomorphic(witness[step], witness[step + 1], entry)


@pytest.mark.parametrize("universe_name", ALL_UNIVERSES)
class TestPropertyCheckersOracle:
    def test_verdicts_match_reference_sweep(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        mask_verdicts = check_all_properties(universe, max_sets=4)
        object_verdicts = reference.check_all_properties_reference(
            universe, max_sets=4
        )
        assert mask_verdicts == object_verdicts
        assert all(mask_verdicts.values())

    def test_individual_checkers_match(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        processes = sorted(universe.processes)
        first = frozenset({processes[0]})
        last = frozenset({processes[-1]})
        both = first | last
        pairs = [(first, last), (both, first), (first, both), (first, first)]
        for p_set, q_set in pairs:
            assert reference.check_containment_reference(
                universe, p_set, q_set
            ) == check_containment(universe, p_set, q_set)

    def test_sequences_equal_matches_reference(self, universe_name, request):
        universe = request.getfixturevalue(universe_name)
        processes = sorted(universe.processes)
        first = frozenset({processes[0]})
        last = frozenset({processes[-1]})
        both = first | last
        cases = [
            ([first, first], [first]),
            ([both, first], [first]),
            ([first], [last]),
            ([first, last], [last, first]),
            ([], [first]),
            ([both], [first, last]),
        ]
        for left, right in cases:
            assert sequences_equal(
                universe, left, right
            ) == reference.sequences_equal_reference(universe, left, right)

"""Theorem 1 — the Fundamental Theorem of Process Chains (§3.2)."""

import pytest

from repro.causality.chains import chain_in_suffix
from repro.causality.order import CausalOrder
from repro.isomorphism import fundamental
from repro.isomorphism.fundamental import (
    chain_ranks,
    check_theorem_1,
    composition_witness_by_chains,
)
from repro.isomorphism.reference import composed_class_reference, theorem_1_holds
from repro.isomorphism.relation import isomorphic
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.reference import sub_configuration_pairs

P = frozenset("p")
Q = frozenset("q")
A = frozenset("a")
B = frozenset("b")
C = frozenset("c")


class TestChainRanks:
    def test_ranks_detect_chains(self, broadcast_universe):
        sets = [A, B, C]
        for x, z in sub_configuration_pairs(broadcast_universe):
            ranks = chain_ranks(z.suffix_after(x), sets)
            has_chain = chain_in_suffix(z, x, sets) is not None
            assert has_chain == any(rank >= 3 for rank in ranks.values())

    def test_ranks_are_monotone_along_causality(self, broadcast_universe):
        final = max(broadcast_universe, key=len)
        ranks = chain_ranks(final, [A, B, C])
        order = CausalOrder(final)
        for event in order.events:
            for successor in order.immediate_successors(event):
                assert ranks[successor] >= ranks[event]


class TestTheorem1:
    def test_exhaustive_on_pingpong(self, pingpong_universe):
        sequences = [[P], [Q], [P, Q], [Q, P], [P, Q, P], [frozenset({"p", "q"})]]
        assert check_theorem_1(pingpong_universe, sequences) > 0

    def test_exhaustive_on_broadcast(self, broadcast_universe):
        sequences = [[A], [B], [A, B], [B, A], [A, B, C], [C, B, A]]
        pairs = list(sub_configuration_pairs(broadcast_universe))
        assert all(
            theorem_1_holds(broadcast_universe, x, z, sets)
            for x, z in pairs
            for sets in sequences
        )
        assert check_theorem_1(broadcast_universe, sequences) == len(pairs) * len(
            sequences
        )

    def test_failure_names_lowest_pair(self, broadcast_universe, monkeypatch):
        """With no chain ever found, Theorem 1 fails at every ``x <= z``
        with ``z`` outside ``x``'s composed image.  The error names the
        lowest ``(x id, z id)``, with the first sequence failing there."""
        universe = broadcast_universe
        sequences = [[A, B], [B], [C, A]]
        failing = sorted(
            (universe.config_id(x), universe.config_id(z), index)
            for x, z in sub_configuration_pairs(universe)
            for index, sets in enumerate(sequences)
            if z not in composed_class_reference(universe, x, sets)
        )
        assert len({x_id for x_id, _, _ in failing}) > 1
        x_id, z_id, index = failing[0]
        monkeypatch.setattr(fundamental, "has_process_chain", lambda *_: False)
        with pytest.raises(AssertionError) as raised:
            check_theorem_1(universe, sequences)
        message = str(raised.value)
        assert f"(id {x_id})" in message and f"(id {z_id})" in message
        assert f"no chain {[sorted(s) for s in sequences[index]]}" in message

    def test_exhaustive_on_token_bus(self, token_bus_universe):
        stations = sorted(token_bus_universe.processes)
        p, q, r = stations[0], stations[1], stations[2]
        sequences = [
            [frozenset({p})],
            [frozenset({p}), frozenset({q})],
            [frozenset({p}), frozenset({q}), frozenset({r})],
            [frozenset({r}), frozenset({q}), frozenset({p})],
        ]
        assert check_theorem_1(token_bus_universe, sequences) > 0

    def test_single_instance(self, pingpong_universe):
        configs = sorted(pingpong_universe, key=len)
        empty = configs[0]
        full = max(pingpong_universe, key=len)
        assert theorem_1_holds(pingpong_universe, empty, full, [P, Q])


class TestTheorem1Folds:
    def test_star6_folds_each_base_class_once(self, fold_calls):
        """Theorem 1 reads every ``x``'s image from the frontier of its
        ``[P1]``-class, so each class of each sequence is folded once:
        333 folds where a fold per ``x`` made 25 328."""
        leaves = tuple(f"r{index}" for index in range(5))
        universe = Universe(BroadcastProtocol(star_topology("hub", leaves), "hub"))
        hub, r0, r1 = frozenset({"hub"}), frozenset({"r0"}), frozenset({"r1"})
        sequences = [[hub, r0], [r0, hub, r1], [r0 | r1, hub]]
        assert check_theorem_1(universe, sequences) == 347_274
        assert fold_calls[0] == 333 == sum(
            universe.partition_table(sets[0]).num_classes for sets in sequences
        )


class TestConstructiveWitness:
    def test_witnesses_are_valid_and_linked(self, broadcast_universe):
        sets = [A, B]
        seen = 0
        for x, z in sub_configuration_pairs(broadcast_universe):
            witness = composition_witness_by_chains(x, z, sets)
            if witness is None:
                # Theorem 1 promises nothing; the chain must exist.
                assert chain_in_suffix(z, x, sets) is not None
                continue
            seen += 1
            assert witness[0] == x and witness[-1] == z
            assert len(witness) == len(sets) + 1
            for index, p_set in enumerate(sets):
                assert isomorphic(witness[index], witness[index + 1], p_set)
            for intermediate in witness:
                assert intermediate in broadcast_universe
        assert seen > 0

    def test_three_set_witnesses(self, broadcast_universe):
        sets = [B, A, C]
        for x, z in sub_configuration_pairs(broadcast_universe):
            witness = composition_witness_by_chains(x, z, sets)
            if witness is None:
                continue
            for index, p_set in enumerate(sets):
                assert isomorphic(witness[index], witness[index + 1], p_set)

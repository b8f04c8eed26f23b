"""State-based isomorphism — the §6 generalisation, executable."""

import pytest

from repro.isomorphism.state_based import (
    StateAbstraction,
    StateKnowledgeEvaluator,
    check_state_knowledge_facts,
    counting_abstraction,
    knowledge_gap,
    length_abstraction,
    state_isomorphic,
)
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows
from repro.knowledge.predicates import has_received
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.universe.explorer import Universe


@pytest.fixture(scope="module")
def toggle():
    protocol = ToggleProtocol(max_flips=2)
    return protocol, Universe(protocol)


class TestRelation:
    def test_identity_abstraction_coincides_with_computations(
        self, pingpong_universe
    ):
        from repro.isomorphism.relation import isomorphic

        abstraction = StateAbstraction()  # identity
        for x in pingpong_universe:
            for y in pingpong_universe:
                assert state_isomorphic(abstraction, x, y, {"p"}) == isomorphic(
                    x, y, {"p"}
                )

    def test_coarser_than_computation_isomorphism(self, pingpong_universe):
        """[P] ⊆ [P]_s for every abstraction."""
        from repro.isomorphism.relation import isomorphic

        abstraction = StateAbstraction(default=length_abstraction())
        for x in pingpong_universe:
            for y in pingpong_universe:
                if isomorphic(x, y, {"q"}):
                    assert state_isomorphic(abstraction, x, y, {"q"})

    def test_lossy_abstraction_merges_classes(self, toggle):
        protocol, universe = toggle
        abstraction = StateAbstraction(default=length_abstraction())
        merged = False
        from repro.isomorphism.relation import isomorphic

        for x in universe:
            for y in universe:
                if state_isomorphic(
                    abstraction, x, y, {protocol.observer}
                ) and not isomorphic(x, y, {protocol.observer}):
                    merged = True
        assert merged

    def test_is_an_equivalence(self, pingpong_universe):
        abstraction = StateAbstraction(default=counting_abstraction())
        configs = list(pingpong_universe)
        for x in configs:
            assert state_isomorphic(abstraction, x, x, {"p"})
        for x in configs:
            for y in configs:
                forward = state_isomorphic(abstraction, x, y, {"p"})
                assert forward == state_isomorphic(abstraction, y, x, {"p"})


class TestStateKnowledge:
    def test_weaker_than_computation_knowledge(self, pingpong_universe):
        b = has_received("q", "ping")
        base = KnowledgeEvaluator(pingpong_universe)
        abstraction = StateAbstraction(default=length_abstraction())
        state_evaluator = StateKnowledgeEvaluator(pingpong_universe, abstraction)
        by_state = state_evaluator.knows_extension({"p"}, b)
        by_computation = base.extension(Knows("p", b))
        assert by_state <= by_computation

    def test_gap_is_nonzero_for_lossy_abstractions(self):
        """A participant's knowledge of the 2PC outcome lives in the
        decision payload; forgetting payloads (length abstraction)
        destroys it — state-knowledge is strictly weaker."""
        from repro.protocols.commit import TwoPhaseCommitProtocol

        protocol = TwoPhaseCommitProtocol(("p1", "p2"))
        universe = Universe(protocol)
        abstraction = StateAbstraction(
            per_process={"p1": length_abstraction()}
        )
        gap = knowledge_gap(
            universe, abstraction, {"p1"}, protocol.all_voted_yes()
        )
        assert gap["impossible"] == 0
        assert gap["forgotten"] > 0

    def test_retained_knowledge_falls_with_fidelity(self):
        """Over 2PC, each coarser abstraction retains at most the
        knowledge of the finer one, never invents any, and keeps the
        surviving §4.1 facts."""
        from repro.protocols.commit import TwoPhaseCommitProtocol

        protocol = TwoPhaseCommitProtocol(("p1", "p2"))
        universe = Universe(protocol)
        unanimous = protocol.all_voted_yes()
        retained = []
        for abstraction in (
            StateAbstraction(),
            StateAbstraction(default=counting_abstraction()),
            StateAbstraction(default=length_abstraction()),
        ):
            gap = knowledge_gap(universe, abstraction, {"p1"}, unanimous)
            assert gap["impossible"] == 0
            retained.append(gap["retained"])
            facts = check_state_knowledge_facts(
                universe, abstraction, unanimous, {"p1"}
            )
            assert all(facts.values()), facts
        assert retained == sorted(retained, reverse=True)

    def test_gap_is_zero_for_identity(self, toggle):
        protocol, universe = toggle
        gap = knowledge_gap(
            universe, StateAbstraction(), {protocol.observer}, bit_atom(protocol)
        )
        assert gap["forgotten"] == 0 and gap["impossible"] == 0

    def test_surviving_facts(self, toggle):
        """The §4.1 facts that only need an equivalence relation hold for
        state-based knowledge — the paper's 'most results apply' claim."""
        protocol, universe = toggle
        for abstraction in (
            StateAbstraction(),
            StateAbstraction(default=counting_abstraction()),
            StateAbstraction(default=length_abstraction()),
        ):
            results = check_state_knowledge_facts(
                universe, abstraction, bit_atom(protocol), {protocol.observer}
            )
            assert all(results.values()), results

    def test_holds_requires_membership(self, pingpong_universe):
        from repro.core.configuration import Configuration
        from repro.core.events import internal

        evaluator = StateKnowledgeEvaluator(pingpong_universe, StateAbstraction())
        foreign = Configuration({"x": (internal("x"),)})
        with pytest.raises(Exception):
            evaluator.holds({"p"}, has_received("q", "ping"), foreign)


class TestAbstractions:
    def test_counting_abstraction_filters_tags(self):
        from repro.core.events import internal

        fn = counting_abstraction("a")
        history = (internal("p", tag="a"), internal("p", tag="b"))
        assert fn(history) == ((("internal", "a"), 1),)

    def test_counting_abstraction_counts_messages(self):
        from repro.core.events import message_pair

        snd, _ = message_pair("p", "q", "m")
        fn = counting_abstraction()
        assert fn((snd,)) == ((("send", "m"), 1),)

    def test_length_abstraction(self):
        from repro.core.events import internal

        fn = length_abstraction()
        assert fn(()) == 0
        assert fn((internal("p"), internal("p", seq=1))) == 2

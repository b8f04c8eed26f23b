"""Belief (§6): introspective but not veridical."""

import pytest

from repro.knowledge.belief import BeliefEvaluator, false_belief_census
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows, Not
from repro.knowledge.predicates import has_received
from repro.protocols.failure_monitor import AsyncFailureMonitorProtocol
from repro.universe.explorer import Universe


@pytest.fixture(scope="module")
def failure_setup():
    protocol = AsyncFailureMonitorProtocol(heartbeats=2)
    universe = Universe(protocol)
    crashed = protocol.crashed_atom()
    evaluator = BeliefEvaluator(universe, lambda c: not crashed.fn(c))
    return protocol, universe, crashed, evaluator


class TestBeliefBasics:
    def test_full_plausibility_is_knowledge(self, pingpong_universe):
        b = has_received("q", "ping")
        belief = BeliefEvaluator(pingpong_universe, lambda c: True)
        base = KnowledgeEvaluator(pingpong_universe)
        assert belief.believes_extension({"p"}, b) == base.extension(
            Knows("p", b)
        )

    def test_knowledge_implies_belief(self, failure_setup):
        protocol, universe, crashed, evaluator = failure_setup
        for formula in (crashed, Not(crashed)):
            assert evaluator.knowledge_implies_belief({"m"}, formula)
            assert evaluator.knowledge_implies_belief({"w"}, formula)

    def test_explicit_plausible_set(self, pingpong_universe):
        plausible = [c for c in pingpong_universe if len(c) <= 2]
        evaluator = BeliefEvaluator(pingpong_universe, plausible)
        assert evaluator.plausible == frozenset(plausible)

    def test_foreign_plausible_configuration_rejected(self, pingpong_universe):
        from repro.core.configuration import Configuration
        from repro.core.events import internal

        foreign = Configuration({"x": (internal("x"),)})
        with pytest.raises(Exception):
            BeliefEvaluator(pingpong_universe, [foreign])


class TestNonVeridicality:
    def test_monitor_believes_the_worker_alive_even_when_dead(
        self, failure_setup
    ):
        """The §6 caveat, concretely: with 'no crash' plausibility the
        monitor believes ¬crashed everywhere — including every crashed
        computation."""
        protocol, universe, crashed, evaluator = failure_setup
        alive = Not(crashed)
        false = evaluator.false_beliefs({"m"}, alive)
        assert len(false) > 0
        for configuration in false:
            assert crashed.fn(configuration)

    def test_knowledge_has_no_false_extension(self, failure_setup):
        """Contrast: knowledge of the same predicate is veridical."""
        protocol, universe, crashed, evaluator = failure_setup
        base = KnowledgeEvaluator(universe)
        alive = Not(crashed)
        knows_alive = base.extension(Knows("m", alive))
        alive_extension = base.extension(alive)
        assert knows_alive <= alive_extension

    def test_census(self, failure_setup):
        protocol, universe, crashed, _ = failure_setup
        census = false_belief_census(
            universe, lambda c: not crashed.fn(c), {"m"}, Not(crashed)
        )
        assert census["false_beliefs"] > 0
        assert census["plausible"] < census["universe"]
        assert census["believes"] == census["universe"]

    def test_worker_itself_never_falsely_believes(self, failure_setup):
        """The crash is local to the worker: even under the optimistic
        plausibility, the worker's belief about its own crash state is
        correct wherever it is consistent."""
        protocol, universe, crashed, evaluator = failure_setup
        false = evaluator.false_beliefs({"w"}, Not(crashed))
        for configuration in false:
            # Any false belief of the worker must be at a configuration
            # where its plausibility class is empty (vacuous belief).
            assert not evaluator.is_consistent_at({"w"}, configuration)


class TestIntrospection:
    def test_belief_is_class_stable(self, failure_setup):
        """Belief is a property of the [P]-class (the introspection facts
        reduce to this, as for knowledge)."""
        protocol, universe, crashed, evaluator = failure_setup
        believes = evaluator.believes_extension({"m"}, Not(crashed))
        base = KnowledgeEvaluator(universe)
        for iso_class in base.partition({"m"}):
            values = {member in believes for member in iso_class}
            assert len(values) == 1


class TestBeliefOracle:
    """The class-mask evaluation against belief's definition, read per
    configuration: ``x`` believes ``b`` iff ``b`` holds at every
    plausible ``y`` with ``x [P] y``."""

    @staticmethod
    def believed_by_definition(universe, evaluator, processes, body):
        return frozenset(
            x
            for x in universe
            if all(
                y in body
                for y in universe.iso_class(x, processes)
                if y in evaluator.plausible
            )
        )

    def test_failure_monitor(self, failure_setup):
        protocol, universe, crashed, evaluator = failure_setup
        base = KnowledgeEvaluator(universe)
        for processes in ({"m"}, {"w"}, {"m", "w"}):
            for formula in (crashed, Not(crashed)):
                expected = self.believed_by_definition(
                    universe, evaluator, processes, base.extension(formula)
                )
                assert evaluator.believes_extension(processes, formula) == expected
                for configuration in universe:
                    assert evaluator.believes(
                        processes, formula, configuration
                    ) == (configuration in expected)

    def test_explicit_plausible_subset(self, pingpong_universe):
        b = has_received("q", "ping")
        plausible = [c for index, c in enumerate(pingpong_universe) if index % 3]
        evaluator = BeliefEvaluator(pingpong_universe, plausible)
        base = KnowledgeEvaluator(pingpong_universe)
        for processes in ({"p"}, {"q"}, {"p", "q"}):
            expected = self.believed_by_definition(
                pingpong_universe, evaluator, processes, base.extension(b)
            )
            assert evaluator.believes_extension(processes, b) == expected
            assert evaluator.false_beliefs(processes, b) == expected - base.extension(b)

"""Unit tests for the knowledge model checker (§4.1 definition)."""

import pytest

from repro.core.errors import FormulaError
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import (
    FALSE,
    TRUE,
    CommonKnowledge,
    Iff,
    Implies,
    Knows,
    Not,
    Sure,
    knows,
)
from repro.knowledge.predicates import event_count_at_least, has_received, has_sent
from repro.protocols.pingpong import PingPongProtocol
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits


class TestDefinition:
    def test_knows_is_universal_over_the_class(self, pingpong_universe):
        """(P knows b) at x  ≡  ∀y: x [P] y: b at y — checked literally."""
        evaluator = KnowledgeEvaluator(pingpong_universe)
        b = has_received("q", "ping")
        knows_b = Knows("p", b)
        b_extension = evaluator.extension(b)
        for x in pingpong_universe:
            expected = all(
                y in b_extension for y in pingpong_universe.iso_class(x, {"p"})
            )
            assert evaluator.holds(knows_b, x) == expected

    def test_pong_teaches_p_that_q_received(self, pingpong_universe):
        """The knowledge-gain story of the ping-pong protocol."""
        evaluator = KnowledgeEvaluator(pingpong_universe)
        b = has_received("q", "ping")
        knows_b = Knows("p", b)
        for x in pingpong_universe:
            got_pong = has_received("p", "pong").fn(x)
            if got_pong:
                assert evaluator.holds(knows_b, x)
            if evaluator.holds(knows_b, x):
                assert b.fn(x)  # veridicality, concretely

    def test_p_does_not_know_before_pong(self, pingpong_universe):
        evaluator = KnowledgeEvaluator(pingpong_universe)
        b = has_received("q", "ping")
        # The configuration where the ping was received but no pong sent:
        for x in pingpong_universe:
            if b.fn(x) and not has_sent("q", "pong").fn(x):
                assert not evaluator.holds(Knows("p", b), x)


class TestConnectives:
    def test_boolean_semantics(self, pingpong_evaluator, pingpong_universe):
        evaluator = pingpong_evaluator
        b = has_received("q", "ping")
        everything = set(pingpong_universe)
        assert set(evaluator.extension(TRUE)) == everything
        assert set(evaluator.extension(FALSE)) == set()
        assert set(evaluator.extension(Not(b))) == everything - set(
            evaluator.extension(b)
        )
        assert set(evaluator.extension(b & TRUE)) == set(evaluator.extension(b))
        assert set(evaluator.extension(b | TRUE)) == everything
        assert evaluator.is_valid(Implies(FALSE, b))
        assert evaluator.is_valid(Iff(b, b))

    def test_sure_is_knows_or_knows_not(self, pingpong_evaluator):
        b = has_received("q", "ping")
        sure = Sure("p", b)
        expanded = sure.expand()
        assert set(pingpong_evaluator.extension(sure)) == set(
            pingpong_evaluator.extension(expanded)
        )


class TestGuardrails:
    def test_incomplete_universe_rejected(self):
        truncated = Universe(
            PingPongProtocol(rounds=5),
            options=ExplorationOptions(limits=Limits(max_events=3)),
        )
        assert not truncated.is_complete
        with pytest.raises(FormulaError):
            KnowledgeEvaluator(truncated)

    def test_incomplete_universe_opt_in(self):
        truncated = Universe(
            PingPongProtocol(rounds=5),
            options=ExplorationOptions(limits=Limits(max_events=3)),
        )
        evaluator = KnowledgeEvaluator(truncated, allow_incomplete=True)
        assert evaluator.extension(TRUE)

    def test_foreign_configuration_rejected(self, pingpong_evaluator):
        from repro.core.configuration import Configuration
        from repro.core.events import internal

        foreign = Configuration({"x": (internal("x"),)})
        with pytest.raises(Exception):
            pingpong_evaluator.holds(TRUE, foreign)

    def test_counterexamples(self, pingpong_evaluator):
        b = has_received("q", "ping")
        examples = pingpong_evaluator.counterexamples(b, limit=2)
        assert 0 < len(examples) <= 2
        for configuration in examples:
            assert not b.fn(configuration)

    def test_is_constant(self, pingpong_evaluator):
        assert pingpong_evaluator.is_constant(TRUE)
        assert pingpong_evaluator.is_constant(FALSE)
        assert not pingpong_evaluator.is_constant(has_received("q", "ping"))


class TestPartitions:
    def test_partition_covers_universe(self, pingpong_universe):
        evaluator = KnowledgeEvaluator(pingpong_universe)
        partition = evaluator.partition({"p"})
        total = sum(len(iso_class) for iso_class in partition)
        assert total == len(pingpong_universe)

    def test_partition_members_are_isomorphic(self, pingpong_universe):
        from repro.isomorphism.relation import isomorphic

        evaluator = KnowledgeEvaluator(pingpong_universe)
        for iso_class in evaluator.partition({"q"}):
            first = iso_class[0]
            for member in iso_class:
                assert isomorphic(first, member, {"q"})

    def test_event_count_atom(self, pingpong_evaluator, pingpong_universe):
        atom = event_count_at_least({"p", "q"}, 1)
        extension = pingpong_evaluator.extension(atom)
        assert len(extension) == len(pingpong_universe) - 1  # all but null


class TestStarBroadcast:
    """A hub broadcasting to three and to five leaves (6 332
    configurations)."""

    @pytest.fixture(
        scope="class", params=[("w", "x", "y"), ("v", "w", "x", "y", "z")]
    )
    def evaluator(self, request):
        from repro.protocols.broadcast import BroadcastProtocol, star_topology

        leaves = request.param
        return KnowledgeEvaluator(
            Universe(BroadcastProtocol(star_topology("hub", leaves), "hub"))
        )

    def test_no_knowledge_of_a_delivery_without_acks(self, evaluator):
        """Deliveries are indistinguishable to the hub, so neither its
        knowledge nor common knowledge of x's receipt ever holds."""
        x_got_it = has_received("x", "fact")
        assert evaluator.extension(Knows("hub", x_got_it)) == frozenset()
        assert evaluator.extension(CommonKnowledge({"hub", "x"}, x_got_it)) == (
            frozenset()
        )

    def test_nested_knowledge_implies_its_body(self, evaluator):
        hub_sent = has_sent("hub", "fact")
        nested = evaluator.extension(knows("x", "hub", hub_sent))
        assert nested <= evaluator.extension(hub_sent)

    def test_extension_view_is_the_mask(self, evaluator):
        formula = Knows("x", has_received("x", "fact"))
        mask = evaluator.extension_mask(formula)
        view = evaluator.extension(formula)
        assert view == frozenset(evaluator.universe.configurations_in_mask(mask))
        assert len(view) == mask.bit_count()

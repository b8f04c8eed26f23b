"""The twelve knowledge facts of §4.1 over several universes."""

import pytest

from repro.knowledge.axioms import (
    check_all_facts,
    check_fact_3,
    check_fact_6,
    check_fact_9,
    check_fact_10,
    check_fact_11,
    check_fact_12,
)
from repro.knowledge.formula import Knows, Not
from repro.knowledge.predicates import (
    did_internal,
    event_count_at_least,
    has_received,
    has_sent,
)


class TestAllFactsPerUniverse:
    def test_pingpong(self, pingpong_universe, pingpong_evaluator):
        results = check_all_facts(
            pingpong_universe,
            has_received("q", "ping"),
            has_sent("p", "ping"),
            frozenset({"p"}),
            frozenset({"q"}),
            evaluator=pingpong_evaluator,
        )
        assert all(results.values()), results

    @pytest.mark.parametrize(
        "receiver, p2", [("b", frozenset({"c"})), ("c", frozenset({"a", "c"}))]
    )
    def test_broadcast(self, broadcast_universe, broadcast_evaluator, receiver, p2):
        results = check_all_facts(
            broadcast_universe,
            did_internal("a", "learn"),
            has_received(receiver, "fact"),
            frozenset({"b"}),
            p2,
            evaluator=broadcast_evaluator,
        )
        assert all(results.values()), results

    def test_toggle(self, toggle_universe, toggle_evaluator):
        from repro.protocols.toggle import bit_atom

        results = check_all_facts(
            toggle_universe,
            bit_atom(toggle_universe.protocol),
            has_received("q", "report"),
            frozenset({"q"}),
            frozenset({"p"}),
            evaluator=toggle_evaluator,
        )
        assert all(results.values()), results

    def test_token_bus_with_set_knowers(self, token_bus_universe, token_bus_evaluator):
        from repro.protocols.token_bus import holds_token_atom

        protocol = token_bus_universe.protocol
        results = check_all_facts(
            token_bus_universe,
            holds_token_atom(protocol, "r"),
            holds_token_atom(protocol, "p"),
            frozenset({"q", "r"}),
            frozenset({"s"}),
            evaluator=token_bus_evaluator,
        )
        assert all(results.values()), results


class TestIndividualFacts:
    def test_monotonicity_in_the_process_set(self, pingpong_evaluator):
        b = has_received("q", "ping")
        assert check_fact_3(pingpong_evaluator, b, {"p"}, {"q"})

    def test_veridicality_concretely(self, pingpong_evaluator):
        b = has_received("q", "ping")
        knows_b = Knows("p", b)
        for configuration in pingpong_evaluator.extension(knows_b):
            assert b.fn(configuration)

    def test_conjunction_distribution(self, pingpong_evaluator):
        assert check_fact_6(
            pingpong_evaluator,
            has_received("q", "ping"),
            has_sent("q", "pong"),
            {"p"},
        )

    def test_consequence_closure(self, pingpong_evaluator):
        # has_received(q, ping) implies event_count >= 1 at all computations
        assert check_fact_9(
            pingpong_evaluator,
            has_received("q", "ping"),
            event_count_at_least({"p", "q"}, 1),
            {"p"},
        )

    def test_positive_introspection(self, pingpong_evaluator):
        assert check_fact_10(pingpong_evaluator, has_received("q", "ping"), {"p"})

    def test_negative_introspection_lemma_2(self, pingpong_evaluator):
        """The paper's Lemma 2, philosophically contested elsewhere,
        is a theorem of the isomorphism semantics."""
        assert check_fact_11(pingpong_evaluator, has_received("q", "ping"), {"p"})

    def test_knowledge_of_constants(self, pingpong_evaluator):
        assert check_fact_12(pingpong_evaluator, True, {"p"})
        assert check_fact_12(pingpong_evaluator, False, {"p"})

    def test_nobody_knows_a_falsehood(self, pingpong_evaluator):
        b = has_received("q", "ping")
        contradiction = b & Not(b)
        assert len(pingpong_evaluator.extension(Knows("p", contradiction))) == 0

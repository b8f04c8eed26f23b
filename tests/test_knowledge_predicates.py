"""Local predicates and the eight facts of §4.2.

Each check runs on history atoms, whose locality to a superset of their
processes holds by construction, and on plain atoms of the same
function, whose locality is checked with ``Sure`` at every
configuration, so the facts are not answered by construction alone.
"""

import pytest

from repro.knowledge.formula import HistoryAtom, Knows, Not
from repro.knowledge.predicates import (
    atom,
    check_all_local_facts,
    check_identical_knowledge_corollary,
    check_local_fact_5,
    check_local_fact_6,
    check_local_fact_8,
    has_received,
    has_sent,
    is_local_to,
    locality_violations,
)


def plain(built):
    """``built``'s function as a plain per-configuration atom."""
    assert isinstance(built, HistoryAtom)
    return atom(f"{built.name} (per configuration)", built.fn)


both = pytest.mark.parametrize("kind", [lambda b: b, plain], ids=["history", "plain"])


class TestLocality:
    @both
    def test_own_receipt_is_local(self, pingpong_evaluator, kind):
        """What q has received is a predicate local to q."""
        b = kind(has_received("q", "ping"))
        assert is_local_to(pingpong_evaluator, b, {"q"})

    @both
    def test_remote_state_is_not_local(self, pingpong_evaluator, kind):
        """q's receipt is not local to p: p is unsure mid-flight."""
        b = kind(has_received("q", "ping"))
        assert not is_local_to(pingpong_evaluator, b, {"p"})

    def test_locality_violations_are_genuine(self, pingpong_evaluator):
        b = has_received("q", "ping")
        for configuration in locality_violations(pingpong_evaluator, b, {"p"}):
            assert not pingpong_evaluator.holds(Knows("p", b), configuration)
            assert not pingpong_evaluator.holds(Knows("p", Not(b)), configuration)

    @both
    def test_locality_of_whole_set(self, pingpong_evaluator, kind):
        """Every predicate of both processes' histories is local to D."""
        b = kind(has_received("q", "ping"))
        assert is_local_to(pingpong_evaluator, b, {"p", "q"})


class TestEightFacts:
    @both
    def test_all_facts_pingpong(self, pingpong_universe, pingpong_evaluator, kind):
        results = check_all_local_facts(
            pingpong_universe,
            kind(has_received("q", "ping")),
            frozenset({"q"}),
            frozenset({"p"}),
            evaluator=pingpong_evaluator,
        )
        assert all(results.values()), results

    @both
    def test_all_facts_broadcast(self, broadcast_universe, broadcast_evaluator, kind):
        from repro.protocols.broadcast import fact_known_atom

        protocol = broadcast_universe.protocol
        results = check_all_local_facts(
            broadcast_universe,
            kind(fact_known_atom(protocol, "b")),
            frozenset({"b"}),
            frozenset({"a", "c"}),
            evaluator=broadcast_evaluator,
        )
        assert all(results.values()), results

    def test_knows_is_local_to_the_knower(self, pingpong_evaluator):
        """Fact 5 in isolation (the key to Lemma 4)."""
        assert check_local_fact_5(
            pingpong_evaluator, has_received("q", "ping"), {"p"}
        )
        assert check_local_fact_5(
            pingpong_evaluator, has_sent("p", "ping"), {"q"}
        )

    def test_sure_is_local_to_the_knower(self, pingpong_evaluator):
        assert check_local_fact_8(
            pingpong_evaluator, has_received("q", "ping"), {"p"}
        )

    @both
    def test_disjoint_locality_forces_constancy(self, pingpong_evaluator, kind):
        """Lemma 3, non-vacuously: has_received(q) is local to q but not
        to p, so the hypothesis never both holds — and for constants it
        does hold and they are constant."""
        from repro.knowledge.formula import TRUE

        assert check_local_fact_6(pingpong_evaluator, TRUE, {"p"}, {"q"})
        assert check_local_fact_6(
            pingpong_evaluator, kind(has_received("q", "ping")), {"p"}, {"q"}
        )

    def test_identical_knowledge_corollary(self, pingpong_evaluator):
        assert check_identical_knowledge_corollary(
            pingpong_evaluator, has_received("q", "ping"), {"p"}, {"q"}
        )

"""Property-based tests of the knowledge layer with RANDOM predicates.

The paper's facts are claimed for *every* predicate on computations.
Atoms here are drawn as arbitrary subsets of the universe (predicates
over configurations are automatically ``[D]``-invariant), so these tests
quantify over the full predicate space — far beyond the named protocol
predicates used elsewhere.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.knowledge.axioms import check_all_facts
from repro.knowledge.common import check_common_knowledge
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Atom, Knows, Not
from repro.knowledge.hierarchy import (
    check_hierarchy_converges_to_common_knowledge,
)
from repro.knowledge.reference import check_theorem_4_reference
from repro.knowledge.transfer import (
    check_theorem_4,
    check_theorem_5_gain,
    check_theorem_6_loss,
)
from repro.protocols.pingpong import PingPongProtocol
from repro.universe.explorer import Universe

UNIVERSE = Universe(PingPongProtocol(rounds=2))
CONFIGS = tuple(UNIVERSE.configurations)
P = frozenset("p")
Q = frozenset("q")

_counter = [0]


def atom_of(subset: frozenset) -> Atom:
    """An atom whose extension is exactly ``subset``."""
    _counter[0] += 1

    def fn(configuration) -> bool:
        return configuration in subset

    return Atom(f"random-{_counter[0]}", fn)


subsets = st.sets(st.sampled_from(CONFIGS)).map(frozenset)
process_sets = st.sampled_from([P, Q, P | Q])


class TestFactsForRandomPredicates:
    @given(subsets, subsets, process_sets, process_sets)
    @settings(max_examples=40, deadline=None)
    def test_all_twelve_facts(self, first, second, p_set, q_set):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        results = check_all_facts(
            UNIVERSE,
            atom_of(first),
            atom_of(second),
            p_set,
            q_set,
            evaluator=evaluator,
        )
        assert all(results.values()), results

    @given(subsets, process_sets)
    @settings(max_examples=40, deadline=None)
    def test_knowledge_is_interior_operator(self, subset, p_set):
        """K is the interior operator of the [P]-partition topology:
        idempotent, deflationary, monotone."""
        evaluator = KnowledgeEvaluator(UNIVERSE)
        b = atom_of(subset)
        knows_b = evaluator.extension(Knows(p_set, b))
        # Deflationary.
        assert knows_b <= evaluator.extension(b)
        # Idempotent.
        assert evaluator.extension(Knows(p_set, Knows(p_set, b))) == knows_b

    @given(subsets, subsets, process_sets)
    @settings(max_examples=40, deadline=None)
    def test_knowledge_monotone_in_the_predicate(self, first, second, p_set):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        smaller = atom_of(first & second)
        larger = atom_of(first | second)
        assert evaluator.extension(Knows(p_set, smaller)) <= evaluator.extension(
            Knows(p_set, larger)
        )

    @given(subsets)
    @settings(max_examples=30, deadline=None)
    def test_dual_possibility(self, subset):
        """¬K¬b is the closure operator: b ⊆ ¬K¬b, and it is the union of
        classes meeting b."""
        evaluator = KnowledgeEvaluator(UNIVERSE)
        b = atom_of(subset)
        possible = evaluator.extension(Not(Knows(P, Not(b))))
        assert evaluator.extension(b) <= possible
        for iso_class in evaluator.partition(P):
            touches = any(member in subset for member in iso_class)
            for member in iso_class:
                assert (member in possible) == touches


class TestTransferForRandomPredicates:
    @given(subsets)
    @settings(max_examples=25, deadline=None)
    def test_theorem_4(self, subset):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        formula = atom_of(subset)
        report = check_theorem_4(evaluator, [P, Q], formula)
        assert report.holds, report
        assert report == check_theorem_4_reference(evaluator, [P, Q], formula)

    @given(subsets)
    @settings(max_examples=25, deadline=None)
    def test_theorem_5_gain(self, subset):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        report = check_theorem_5_gain(
            evaluator, [P], atom_of(subset), check_receive=False
        )
        assert report.holds, report

    @given(subsets)
    @settings(max_examples=25, deadline=None)
    def test_theorem_6_loss(self, subset):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        report = check_theorem_6_loss(
            evaluator, [Q], atom_of(subset), check_send=False
        )
        assert report.holds, report


class TestCommonKnowledgeForRandomPredicates:
    @given(subsets)
    @settings(max_examples=20, deadline=None)
    def test_constancy_and_fixpoint(self, subset):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        results = check_common_knowledge(
            UNIVERSE, atom_of(subset), evaluator=evaluator
        )
        assert all(results.values()), results

    @given(subsets)
    @settings(max_examples=20, deadline=None)
    def test_hierarchy_limit_is_gfp(self, subset):
        evaluator = KnowledgeEvaluator(UNIVERSE)
        assert check_hierarchy_converges_to_common_knowledge(
            evaluator, {"p", "q"}, atom_of(subset)
        )

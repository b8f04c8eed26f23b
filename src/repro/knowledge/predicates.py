"""Base predicates and *local* predicates (paper, §4.2).

A predicate ``b`` is **local to** a process set ``P`` when ``P`` is always
sure of its value: ``∀x: (P sure b) at x``.  Local predicates are the
paper's key to understanding knowledge transfer (Theorems 5 and 6 hinge on
``b`` being local to the complement set).

This module provides:

* ready-made atom builders over histories (event counts, message
  receipt, internal steps), each local to its processes by construction;
* :func:`is_local_to` — the locality check over a universe;
* executable checkers for the eight local-predicate facts of §4.2,
  including Lemma 3 (a predicate local to two disjoint sets is constant).
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.events import ReceiveEvent, SendEvent
from repro.core.process import ProcessSetLike, as_process_set, format_process_set
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import (
    Atom,
    Formula,
    HistoryAtom,
    Iff,
    Knows,
    Not,
    Sure,
)
from repro.universe.explorer import Universe
from repro.universe.protocol import History


# ----------------------------------------------------------------------
# Atom builders
# ----------------------------------------------------------------------
def atom(name: str, fn) -> Atom:
    """A named base predicate over configurations."""
    return Atom(name, fn)


def event_count_at_least(processes: ProcessSetLike, count: int) -> Atom:
    """True when the given processes have at least ``count`` events."""
    p_set = as_process_set(processes)

    def predicate(*histories: History) -> bool:
        return sum(map(len, histories)) >= count

    return Atom.of_history(
        f"|events on {format_process_set(p_set)}| >= {count}", p_set, predicate
    )


def has_sent(process: str, tag: str) -> Atom:
    """True when ``process`` has sent a message tagged ``tag``."""

    def predicate(history: History) -> bool:
        return any(
            isinstance(event, SendEvent) and event.message.tag == tag
            for event in history
        )

    return Atom.of_history(f"{process} has sent '{tag}'", process, predicate)


def has_received(process: str, tag: str) -> Atom:
    """True when ``process`` has received a message tagged ``tag``."""

    def predicate(history: History) -> bool:
        return any(
            isinstance(event, ReceiveEvent) and event.message.tag == tag
            for event in history
        )

    return Atom.of_history(f"{process} has received '{tag}'", process, predicate)


def did_internal(process: str, tag: str) -> Atom:
    """True when ``process`` has performed an internal event tagged ``tag``."""

    def predicate(history: History) -> bool:
        return any(
            event.is_internal and getattr(event, "tag", None) == tag
            for event in history
        )

    return Atom.of_history(f"{process} did '{tag}'", process, predicate)


# ----------------------------------------------------------------------
# Locality
# ----------------------------------------------------------------------
def is_local_to(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """``b is local to P  ≡  ∀x: (P sure b) at x`` over the universe.

    A :class:`HistoryAtom` on ``Q`` is local to every ``P ⊇ Q`` by
    construction, so that case answers ``True`` without evaluating
    anything; every other case checks ``P sure b`` on every
    configuration (:func:`repro.knowledge.reference.is_local_to_reference`
    always does).
    """
    p_set = as_process_set(processes)
    if isinstance(formula, HistoryAtom) and formula.processes <= p_set:
        return True
    return evaluator.is_valid(Sure(p_set, formula))


def locality_violations(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    processes: ProcessSetLike,
    limit: int = 3,
) -> list[Configuration]:
    """Configurations at which ``P`` is *unsure* of ``formula``."""
    return evaluator.counterexamples(Sure(processes, formula), limit=limit)


# ----------------------------------------------------------------------
# The eight facts about local predicates (§4.2)
# ----------------------------------------------------------------------
def check_local_fact_1(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 1: ``b`` local to ``P`` and ``x [P] y`` imply
    ``b at x = b at y``."""
    if not is_local_to(evaluator, formula, processes):
        return True
    extension = evaluator.extension(formula)
    for iso_class in evaluator.partition(processes):
        values = {member in extension for member in iso_class}
        if len(values) > 1:
            return False
    return True


def check_local_fact_2(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 2: ``b`` local to ``P`` implies ``b ≡ P knows b``."""
    if not is_local_to(evaluator, formula, processes):
        return True
    return evaluator.is_valid(Iff(formula, Knows(processes, formula)))


def check_local_fact_3(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 3: ``b`` local to ``P``  =  ``¬b`` local to ``P``."""
    return is_local_to(evaluator, formula, processes) == is_local_to(
        evaluator, Not(formula), processes
    )


def check_local_fact_4(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    local_set: ProcessSetLike,
    observer_set: ProcessSetLike,
) -> bool:
    """Fact 4: ``b`` local to ``P`` implies
    ``Q knows b  ≡  Q knows P knows b``."""
    if not is_local_to(evaluator, formula, local_set):
        return True
    return evaluator.is_valid(
        Iff(
            Knows(observer_set, formula),
            Knows(observer_set, Knows(local_set, formula)),
        )
    )


def check_local_fact_5(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 5: ``(P knows b)`` is local to ``P`` — for every ``b``."""
    return is_local_to(evaluator, Knows(processes, formula), processes)


def check_local_fact_6(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    first: ProcessSetLike,
    second: ProcessSetLike,
) -> bool:
    """Fact 6 / Lemma 3: ``b`` local to disjoint ``P`` and ``Q`` implies
    ``b`` is constant."""
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    if p_set & q_set:
        return True
    if not (
        is_local_to(evaluator, formula, p_set)
        and is_local_to(evaluator, formula, q_set)
    ):
        return True
    return evaluator.is_constant(formula)


def check_local_fact_7(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 7: ``b`` constant implies ``b`` local to every ``P``."""
    if not evaluator.is_constant(formula):
        return True
    return is_local_to(evaluator, formula, processes)


def check_local_fact_8(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """Fact 8: ``(P sure b)`` is local to ``P``."""
    return is_local_to(evaluator, Sure(processes, formula), processes)


def check_identical_knowledge_corollary(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    first: ProcessSetLike,
    second: ProcessSetLike,
) -> bool:
    """§4.2 corollary: disjoint ``P, Q`` with identical knowledge of ``b``
    (``P knows b ≡ Q knows b`` everywhere) have *constant* knowledge."""
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    if p_set & q_set:
        return True
    if not evaluator.is_valid(Iff(Knows(p_set, formula), Knows(q_set, formula))):
        return True
    return evaluator.is_constant(Knows(p_set, formula)) and evaluator.is_constant(
        Knows(q_set, formula)
    )


def check_all_local_facts(
    universe: Universe,
    formula: Formula,
    first: ProcessSetLike,
    second: ProcessSetLike,
    evaluator: KnowledgeEvaluator | None = None,
) -> dict[str, bool]:
    """Run all eight facts (plus the identical-knowledge corollary) for one
    predicate and two process sets; returns verdicts keyed by fact name."""
    if evaluator is None:
        evaluator = KnowledgeEvaluator(universe)
    return {
        "1-iso-invariance": check_local_fact_1(evaluator, formula, first),
        "2-b-iff-knows-b": check_local_fact_2(evaluator, formula, first),
        "3-negation": check_local_fact_3(evaluator, formula, first),
        "4-nested": check_local_fact_4(evaluator, formula, first, second),
        "5-knows-is-local": check_local_fact_5(evaluator, formula, first),
        "6-disjoint-constant": check_local_fact_6(evaluator, formula, first, second),
        "7-constant-local": check_local_fact_7(evaluator, formula, first),
        "8-sure-is-local": check_local_fact_8(evaluator, formula, first),
        "identical-knowledge": check_identical_knowledge_corollary(
            evaluator, formula, first, second
        ),
    }

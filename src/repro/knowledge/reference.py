"""Object-level reference implementations: atoms, locality and the §4.3
transfer checks.

:func:`atom_mask_reference` evaluates an atom's function on every
configuration, the oracle of the evaluator's one call per ``[P]``-class
for a :class:`~repro.knowledge.formula.HistoryAtom`, and
:func:`is_local_to_reference` checks ``P sure b`` everywhere, the oracle
of :func:`~repro.knowledge.predicates.is_local_to`, which answers a
history atom's locality by construction.  Neither takes those shortcuts.

The transfer checkers here are the ones :mod:`repro.knowledge.transfer`
used before it moved Theorem 4 and Lemma 4 onto dense ids: they walk
:class:`~repro.core.configuration.Configuration` objects one instance at
a time.  They are kept as **oracles**: the cross-check tests assert the
production checkers report the same verdict, instance count and
counterexample on complete and truncated universes.

To stay independent of the code they check, the oracles never read
partition tables, class adjacency or the CSR successor arrays.  Theorem 4
quantifies over :func:`repro.isomorphism.reference.composed_class_reference`
(the ``[P]`` classes grouped by ``projection(P)``), and Lemma 4 walks
:meth:`~repro.universe.explorer.Universe.successors` and names each
edge's event with :func:`~repro.isomorphism.reference.extension_event`,
the object oracle that no production checker calls any more: they read
their transitions from :func:`~repro.isomorphism.extension.edges_on`.
Knowledge extensions come from
:class:`~repro.knowledge.evaluator.KnowledgeEvaluator`, which
``tests/test_knowledge_bitset_reference.py`` holds to its own frozenset
oracle.

The transfer checkers follow the :class:`~repro.knowledge.transfer.TransferReport`
contract: ``checked`` is the full non-vacuous count and the
counterexample is the failing pair with the lowest ``(x id, y id)``.
Nothing here should be called on hot paths.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.configuration import Configuration
from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.reference import composed_class_reference, extension_event
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Atom, Formula, Knows, Not, Sure
from repro.knowledge.transfer import TransferReport, nested_knowledge
from repro.universe.explorer import Universe, mask_of_ids


def atom_mask_reference(universe: Universe, atom: Atom) -> int:
    """The extension of ``atom`` as a mask over dense ids: its function
    called on every configuration of the universe."""
    fn = atom.fn
    return mask_of_ids(
        [
            config_id
            for config_id, configuration in enumerate(universe)
            if fn(configuration)
        ]
    )


def is_local_to_reference(
    evaluator: KnowledgeEvaluator, formula: Formula, processes: ProcessSetLike
) -> bool:
    """``b is local to P  ≡  ∀x: (P sure b) at x``, checked at every
    configuration for every formula, history atoms included."""
    return evaluator.is_valid(Sure(processes, formula))


def _lowest(
    universe: Universe,
    failure: tuple[Configuration, Configuration] | None,
    candidate: tuple[Configuration, Configuration],
) -> tuple[Configuration, Configuration]:
    """The one of two failing pairs with the lower ``(x id, y id)``."""
    if failure is None:
        return candidate

    def key(pair: tuple[Configuration, Configuration]) -> tuple[int, int]:
        return universe.config_id(pair[0]), universe.config_id(pair[1])

    return min(failure, candidate, key=key)


def _check_composed_transfer_reference(
    universe: Universe,
    antecedent_extension: frozenset[Configuration],
    target_extension: frozenset[Configuration],
    sets: list[frozenset],
) -> TransferReport:
    checked = 0
    failure = None
    for x in antecedent_extension:
        for y in composed_class_reference(universe, x, sets):
            checked += 1
            if y not in target_extension:
                failure = _lowest(universe, failure, (x, y))
    return TransferReport(checked, failure is None, failure)


def check_theorem_4_reference(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
    sure: bool = False,
) -> TransferReport:
    """Theorem 4 (and its ``sure`` variant), one ``(x, y)`` at a time."""
    normalised = [as_process_set(entry) for entry in sets]
    nested = nested_knowledge(normalised, formula, sure=sure)
    target = (
        Sure(normalised[-1], formula) if sure else Knows(normalised[-1], formula)
    )
    return _check_composed_transfer_reference(
        evaluator.universe,
        evaluator.extension(nested),
        evaluator.extension(target),
        normalised,
    )


def check_theorem_4_negative_corollary_reference(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
) -> TransferReport:
    """Theorem 4's negative corollary, one ``(x, y)`` at a time."""
    normalised = [as_process_set(entry) for entry in sets]
    not_knows = Not(Knows(normalised[-1], formula))
    if len(normalised) == 1:
        antecedent: Formula = not_knows
    else:
        antecedent = nested_knowledge(normalised[:-1], not_knows)
    return _check_composed_transfer_reference(
        evaluator.universe,
        evaluator.extension(antecedent),
        evaluator.extension(not_knows),
        normalised,
    )


def check_lemma_4_reference(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    processes: ProcessSetLike,
) -> dict[str, TransferReport]:
    """Lemma 4 over ``successors()``, naming each edge's event."""
    universe = evaluator.universe
    p_set = as_process_set(processes)
    complement = universe.complement(p_set)
    counts = {"receive": 0, "send": 0, "internal": 0}
    failures: dict[str, tuple[Configuration, Configuration] | None]
    failures = dict.fromkeys(counts)
    if not is_local_to_reference(evaluator, formula, complement):
        return {kind: TransferReport(0, True) for kind in counts}
    knows_extension = evaluator.extension(Knows(p_set, formula))
    for x in universe:
        for extended in universe.successors(x):
            event = extension_event(x, extended)
            if event is None or event.process not in p_set:
                continue
            before = x in knows_extension
            after = extended in knows_extension
            if event.is_receive:
                kind = "receive"
                failed = before and not after
            elif event.is_send:
                kind = "send"
                failed = after and not before
            else:
                kind = "internal"
                failed = before != after
            counts[kind] += 1
            if failed:
                failures[kind] = _lowest(universe, failures[kind], (x, extended))
    return {
        kind: TransferReport(counts[kind], failures[kind] is None, failures[kind])
        for kind in counts
    }

"""State-based isomorphism — the first generalisation of §6.

The paper closes: *"we can define isomorphism based on states of
processes, rather than computations … Most of the results in this paper
are applicable in the first case."*  This module makes that
generalisation executable.

A :class:`StateAbstraction` maps each process's local history to an
abstract *state* (any hashable value).  Two computations are
**state-isomorphic with respect to P**, written ``x [P]_s y``, when every
process of ``P`` is in the same abstract state in both.  Since equal
histories yield equal states, ``[P] ⊆ [P]_s``: the state relation is
coarser, and state-based knowledge is *weaker* — a process may know a
fact by history yet not by state (its state has forgotten how it got
there).

Executable consequences (verified by the test-suite and the E14 rows of
``repro report``):

* ``[P]_s`` is an equivalence relation, and properties 1, 3, 4, 5, 6, 7
  of §3 carry over verbatim (they use only relation algebra);
* the knowledge facts 1–12 of §4.1 hold for state-based knowledge (the
  proofs use only that ``[P]_s`` is an equivalence indexed by ``P`` with
  ``[P ∪ Q]_s = [P]_s ∩ [Q]_s``);
* state-based knowledge is implied by computation-based knowledge for
  the same predicate, never the converse —
  :func:`knowledge_gap` measures the configurations where the two
  differ;
* Theorems 5/6 (chains) survive in the *sound* direction: gaining
  state-knowledge still requires the chain, because state-knowledge gain
  implies computation-knowledge gain of the induced predicate.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping

from repro.core.configuration import Configuration
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Formula
from repro.universe.explorer import PartitionTable, Universe

StateFn = Callable[[tuple], Hashable]
"""Maps a local history (tuple of events) to an abstract state."""


class StateAbstraction:
    """Per-process state functions.

    ``default`` applies to processes without an explicit entry; the
    identity abstraction (``None``) keeps the full history, making
    state-isomorphism coincide with computation-isomorphism.
    """

    def __init__(
        self,
        per_process: Mapping[ProcessId, StateFn] | None = None,
        default: StateFn | None = None,
    ) -> None:
        self._per_process = dict(per_process or {})
        self._default = default

    def state_of(self, process: ProcessId, history: tuple) -> Hashable:
        fn = self._per_process.get(process, self._default)
        if fn is None:
            return history
        return fn(history)

    def configuration_state(
        self, configuration: Configuration, processes: ProcessSetLike
    ) -> tuple:
        """The canonical key of ``configuration``'s ``[P]_s``-class."""
        p_set = as_process_set(processes)
        return tuple(
            (process, self.state_of(process, configuration.history(process)))
            for process in sorted(p_set)
        )


def counting_abstraction(*tags: str) -> StateFn:
    """A standard abstraction: per-tag counts of sends/receives/internal
    events — the 'counters' view many protocol states reduce to."""

    def fn(history: tuple) -> Hashable:
        counts: dict[tuple[str, str], int] = {}
        for event in history:
            tag = getattr(event, "tag", None)
            if tag is None:
                tag = event.message.tag  # type: ignore[attr-defined]
            if tags and tag not in tags:
                continue
            key = (event.kind.value, tag)
            counts[key] = counts.get(key, 0) + 1
        return tuple(sorted(counts.items()))

    return fn


def length_abstraction() -> StateFn:
    """The coarsest useful abstraction: only the history length survives.

    Forgets message payloads entirely, so knowledge carried *in* payloads
    (e.g. a reported bit value) is lost — the abstraction that maximises
    :func:`knowledge_gap`.
    """

    def fn(history: tuple) -> Hashable:
        return len(history)

    return fn


def state_isomorphic(
    abstraction: StateAbstraction,
    x: Configuration,
    y: Configuration,
    processes: ProcessSetLike,
) -> bool:
    """``x [P]_s y``: equal abstract states on every process of ``P``."""
    p_set = as_process_set(processes)
    return abstraction.configuration_state(
        x, p_set
    ) == abstraction.configuration_state(y, p_set)


class StateKnowledgeEvaluator:
    """Model-check knowledge under state-based isomorphism.

    Mirrors :class:`~repro.knowledge.evaluator.KnowledgeEvaluator` but
    partitions the universe by abstract state.  Only the modal layer
    changes; boolean structure is delegated to a base-predicate
    evaluator.
    """

    def __init__(
        self,
        universe: Universe,
        abstraction: StateAbstraction,
        allow_incomplete: bool = False,
    ) -> None:
        self._universe = universe
        self._abstraction = abstraction
        self._base = KnowledgeEvaluator(universe, allow_incomplete=allow_incomplete)
        self._tables: dict[frozenset[ProcessId], PartitionTable] = {}

    @property
    def universe(self) -> Universe:
        return self._universe

    def partition_table(self, processes: ProcessSetLike) -> PartitionTable:
        """The ``[P]_s``-partition on dense configuration ids.

        Same :class:`~repro.universe.explorer.PartitionTable` machinery as
        the universe's computation-based ``[P]`` partitions, keyed by
        abstract state instead of projection — the modal layer runs on
        class masks either way.
        """
        p_set = as_process_set(processes)
        table = self._tables.get(p_set)
        if table is None:
            state = self._abstraction.configuration_state
            table = PartitionTable.from_keys(
                state(configuration, p_set) for configuration in self._universe
            )
            self._tables[p_set] = table
        return table

    def partition(self, processes: ProcessSetLike) -> list[list[Configuration]]:
        """The ``[P]_s``-classes of the universe, as configuration lists."""
        universe = self._universe
        return [
            [universe.configuration_of_id(config_id) for config_id in members]
            for members in self.partition_table(processes).members
        ]

    def knows_extension_mask(
        self, processes: ProcessSetLike, formula: Formula
    ) -> int:
        """Bitmask of configurations at which ``P`` state-knows ``formula``."""
        body = self._base.extension_mask(formula)
        return self.partition_table(processes).contained_classes_mask(body)

    def knows_extension(
        self, processes: ProcessSetLike, formula: Formula
    ) -> frozenset[Configuration]:
        """Configurations at which ``P`` state-knows ``formula``."""
        return frozenset(
            self._universe.configurations_in_mask(
                self.knows_extension_mask(processes, formula)
            )
        )

    def holds(
        self,
        processes: ProcessSetLike,
        formula: Formula,
        configuration: Configuration,
    ) -> bool:
        """``(P knows_s formula) at configuration``."""
        config_id = self._universe.config_id(configuration)
        return bool(
            self.knows_extension_mask(processes, formula) >> config_id & 1
        )


def knowledge_gap(
    universe: Universe,
    abstraction: StateAbstraction,
    processes: ProcessSetLike,
    formula: Formula,
) -> dict[str, int]:
    """How much knowledge the state abstraction loses.

    Returns counts of configurations where the process set knows the
    formula by computation but not by state (``forgotten``), by both
    (``retained``), and by neither (``neither``).  State-knowledge
    without computation-knowledge is impossible (the state relation is
    coarser); the returned ``impossible`` count asserts that (always 0).
    """
    base = KnowledgeEvaluator(universe)
    from repro.knowledge.formula import Knows

    p_set = as_process_set(processes)
    by_computation = base.extension_mask(Knows(p_set, formula))
    state_evaluator = StateKnowledgeEvaluator(universe, abstraction)
    by_state = state_evaluator.knows_extension_mask(p_set, formula)
    return {
        "retained": (by_computation & by_state).bit_count(),
        "forgotten": (by_computation & ~by_state).bit_count(),
        "impossible": (by_state & ~by_computation).bit_count(),
        "neither": len(universe) - (by_computation | by_state).bit_count(),
    }


def check_state_knowledge_facts(
    universe: Universe,
    abstraction: StateAbstraction,
    formula: Formula,
    processes: ProcessSetLike,
) -> dict[str, bool]:
    """The §4.1 facts that only need an equivalence relation, re-proved
    for state-based knowledge on a concrete universe.

    Covers veridicality, totality, positive and negative introspection,
    and class-stability — the facts the paper says carry over.
    """
    evaluator = StateKnowledgeEvaluator(universe, abstraction)
    base = KnowledgeEvaluator(universe)
    p_set = as_process_set(processes)
    body = base.extension_mask(formula)
    knows = evaluator.knows_extension_mask(p_set, formula)
    table = evaluator.partition_table(p_set)

    results: dict[str, bool] = {}
    results["4-veridical"] = knows & body == knows
    results["5-total"] = True  # extensions are total by construction
    # Class stability: knowledge is constant on each [P]_s-class — every
    # class mask lies wholly inside or wholly outside the extension.
    stable = True
    stable_negative = True
    for index in range(table.num_classes):
        class_mask = table.class_mask(index)
        overlap = class_mask & knows
        if overlap and overlap != class_mask:
            stable = False
            stable_negative = False
            break
    results["1-class-property"] = stable
    # Positive introspection: K b -> K K b, i.e. the class of a knowing
    # configuration lies inside the knows-extension (holds iff stable).
    results["10-positive-introspection"] = stable
    # Negative introspection likewise reduces to class stability of the
    # complement.
    results["11-negative-introspection"] = stable_negative
    # State-knowledge never exceeds computation-knowledge ([P] refines
    # [P]_s, so the universal quantifier ranges over a superset).
    from repro.knowledge.formula import Knows

    computation_knows = base.extension_mask(Knows(p_set, formula))
    results["weaker-than-computation"] = knows & computation_knows == knows
    return results

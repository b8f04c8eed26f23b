"""Belief — the §6 generalisation the paper's results do *not* survive.

The paper closes by noting that one "can define belief in terms of
isomorphism", and that most of its results do **not** carry over to that
case.  This module makes the claim executable.

Belief is knowledge relative to a *plausibility set*: a subset of the
universe the agent considers possible (e.g. "runs without crashes",
"runs with fair scheduling").  Formally

    ``(P believes b) at x  ≡  ∀y: x [P] y and y plausible: b at y``

with the convention that an agent whose entire isomorphism class is
implausible believes everything (the standard KD45 degenerate case —
:meth:`BeliefEvaluator.is_consistent_at` detects it).

Executable consequences, verified by the tests:

* belief satisfies the introspection axioms (its classes are unions of
  ``[P]``-classes restricted to plausibility) and distribution over
  conjunction;
* **veridicality fails**: a process can believe a falsehood — the async
  failure monitor with "no crash" plausibility believes the worker is
  alive in every crashed run (:func:`false_belief_census` counts such
  configurations);
* knowledge implies belief whenever the current computation is plausible
  for the agent, never conversely.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.configuration import Configuration
from repro.core.process import ProcessSetLike
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Formula, Knows
from repro.universe.explorer import Universe, mask_of_ids

PlausibilityFn = Callable[[Configuration], bool]


class BeliefEvaluator:
    """Evaluate belief over a universe with a plausibility set."""

    def __init__(
        self,
        universe: Universe,
        plausible: Iterable[Configuration] | PlausibilityFn,
        allow_incomplete: bool = False,
    ) -> None:
        self._universe = universe
        self._base = KnowledgeEvaluator(universe, allow_incomplete=allow_incomplete)
        if callable(plausible):
            self._plausible = frozenset(
                configuration
                for configuration in universe
                if plausible(configuration)
            )
        else:
            self._plausible = frozenset(plausible)
        # config_id rejects a configuration outside the universe.
        self._plausible_mask = mask_of_ids(
            sorted(map(universe.config_id, self._plausible))
        )

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def plausible(self) -> frozenset[Configuration]:
        return self._plausible

    # ------------------------------------------------------------------
    # Belief
    # ------------------------------------------------------------------
    def _believes_mask(self, processes: ProcessSetLike, formula: Formula) -> int:
        """``P believes b`` is ``P knows (plausible → b)``: the classes of
        ``partition_table(P)`` wholly inside ``b ∪ ¬plausible``."""
        universe = self._universe
        implication = self._base.extension_mask(formula) | (
            universe.full_mask & ~self._plausible_mask
        )
        return universe.partition_table(processes).contained_classes_mask(
            implication
        )

    def believes_extension(
        self, processes: ProcessSetLike, formula: Formula
    ) -> frozenset[Configuration]:
        """All configurations at which ``P believes formula``."""
        mask = self._believes_mask(processes, formula)
        return frozenset(self._universe.configurations_in_mask(mask))

    def believes(
        self,
        processes: ProcessSetLike,
        formula: Formula,
        configuration: Configuration,
    ) -> bool:
        """``(P believes formula) at configuration``."""
        config_id = self._universe.config_id(configuration)
        return bool(self._believes_mask(processes, formula) >> config_id & 1)

    def is_consistent_at(
        self, processes: ProcessSetLike, configuration: Configuration
    ) -> bool:
        """Does the agent's plausibility class at this configuration
        contain anything?  (If not, it vacuously believes everything.)"""
        iso_class = self._universe.iso_class_mask(configuration, processes)
        return bool(iso_class & self._plausible_mask)

    # ------------------------------------------------------------------
    # Relationship to knowledge
    # ------------------------------------------------------------------
    def knowledge_implies_belief(
        self, processes: ProcessSetLike, formula: Formula
    ) -> bool:
        """``P knows b ⇒ P believes b`` — holds for every plausibility
        set (the belief quantifier ranges over a subset)."""
        knows = self._base.extension_mask(Knows(processes, formula))
        return not knows & ~self._believes_mask(processes, formula)

    def false_beliefs(
        self, processes: ProcessSetLike, formula: Formula
    ) -> frozenset[Configuration]:
        """Configurations where ``P believes formula`` but it is false —
        the failure of veridicality (empty for knowledge, by fact 4)."""
        believes = self._believes_mask(processes, formula)
        false = believes & ~self._base.extension_mask(formula)
        return frozenset(self._universe.configurations_in_mask(false))


def false_belief_census(
    universe: Universe,
    plausible: PlausibilityFn,
    processes: ProcessSetLike,
    formula: Formula,
) -> dict[str, int]:
    """Counts quantifying the §6 caveat on one universe.

    ``false_beliefs`` > 0 demonstrates belief is not veridical;
    ``knowledge_implies_belief`` is asserted as a sanity check.
    """
    evaluator = BeliefEvaluator(universe, plausible)
    believes = evaluator.believes_extension(processes, formula)
    false = evaluator.false_beliefs(processes, formula)
    assert evaluator.knowledge_implies_belief(processes, formula)
    return {
        "universe": len(universe),
        "plausible": len(evaluator.plausible),
        "believes": len(believes),
        "false_beliefs": len(false),
    }

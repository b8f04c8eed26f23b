"""Model checking knowledge formulas over a computation universe.

``(P knows b) at x`` universally quantifies over the ``[P]``-class of
``x`` within the set of all system computations.  With a complete finite
universe that quantifier is exact, and every formula has a well-defined
*extension*: the set of configurations at which it holds.

:class:`KnowledgeEvaluator` computes extensions bottom-up and memoises
them per formula, so repeated queries (and nested ``knows``) cost one
pass each.  Internally an extension is an **int bitmask** over the
universe's dense configuration ids (see PERFORMANCE.md): boolean
connectives are single bitwise operations, ``knows`` tests class
containment with ``class_mask & body == class_mask``, and the
common-knowledge fixpoint iterates over class masks instead of
rebuilding membership lists.  The public API still speaks frozensets of
:class:`Configuration`; those views are materialised lazily per formula.

Atoms are the only formulas that read configurations.  A plain
:class:`Atom` is called once per configuration.  A :class:`HistoryAtom`
on ``P`` is constant on ``[P]``-classes, so its predicate is called once
per class of ``partition_table(P)``, on the histories of the class's
lowest member (read from ``Universe.class_histories``, so no
configuration is built), and the true classes are OR-ed into one mask;
the per-configuration pass stays in :mod:`repro.knowledge.reference` as
the oracle.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.configuration import Configuration
from repro.core.errors import FormulaError
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.knowledge.formula import (
    And,
    Atom,
    CommonKnowledge,
    Constant,
    Formula,
    HistoryAtom,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Sure,
)
from repro.universe.explorer import Universe, mask_of_ids


class KnowledgeEvaluator:
    """Evaluate knowledge formulas over one universe.

    The evaluator refuses incomplete universes by default: with a
    truncated computation space, ``knows`` could report knowledge the
    process does not have (missing indistinguishable computations).
    Pass ``allow_incomplete=True`` to accept the approximation knowingly.
    """

    def __init__(self, universe: Universe, allow_incomplete: bool = False) -> None:
        if not universe.is_complete and not allow_incomplete:
            raise FormulaError(
                "refusing to evaluate knowledge over an incomplete universe; "
                "pass allow_incomplete=True to accept the approximation"
            )
        self._universe = universe
        self._masks: dict[Formula, int] = {}
        self._views: dict[Formula, frozenset[Configuration]] = {}
        self._partitions: dict[
            frozenset[ProcessId], list[list[Configuration]]
        ] = {}

    @property
    def universe(self) -> Universe:
        return self._universe

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def holds(self, formula: Formula, configuration: Configuration) -> bool:
        """``formula at configuration``."""
        config_id = self._universe.config_id(configuration)
        return bool(self.extension_mask(formula) >> config_id & 1)

    def extension(self, formula: Formula) -> frozenset[Configuration]:
        """All configurations of the universe at which ``formula`` holds."""
        view = self._views.get(formula)
        if view is None:
            view = frozenset(
                self._universe.configurations_in_mask(self.extension_mask(formula))
            )
            self._views[formula] = view
        return view

    def extension_mask(self, formula: Formula) -> int:
        """The extension as a bitmask over dense configuration ids."""
        mask = self._masks.get(formula)
        if mask is None:
            mask = self._compute_mask(formula)
            self._masks[formula] = mask
        return mask

    def is_valid(self, formula: Formula) -> bool:
        """True iff ``formula`` holds at every computation of the universe."""
        return self.extension_mask(formula) == self._universe.full_mask

    def is_constant(self, formula: Formula) -> bool:
        """The paper's *constant* predicates: same value at every
        computation."""
        mask = self.extension_mask(formula)
        return mask == 0 or mask == self._universe.full_mask

    def counterexamples(
        self, formula: Formula, limit: int = 3
    ) -> list[Configuration]:
        """Up to ``limit`` configurations at which ``formula`` fails."""
        failing = self._universe.full_mask & ~self.extension_mask(formula)
        found = []
        for configuration in self._universe.configurations_in_mask(failing):
            found.append(configuration)
            if len(found) >= limit:
                break
        return found

    # ------------------------------------------------------------------
    # Partition machinery
    # ------------------------------------------------------------------
    def partition(
        self, processes: ProcessSetLike
    ) -> list[list[Configuration]]:
        """The ``[P]``-classes of the universe."""
        p_set = as_process_set(processes)
        cached = self._partitions.get(p_set)
        if cached is None:
            cached = [
                list(self._universe.configurations_in_mask(mask))
                for mask in self._universe.class_masks(p_set)
            ]
            self._partitions[p_set] = cached
        return cached

    # ------------------------------------------------------------------
    # Extension computation
    # ------------------------------------------------------------------
    def _compute_mask(self, formula: Formula) -> int:
        everything = self._universe.full_mask
        if isinstance(formula, Constant):
            return everything if formula.value else 0
        if isinstance(formula, HistoryAtom):
            return self._history_atom_mask(formula)
        if isinstance(formula, Atom):
            fn = formula.fn
            return mask_of_ids(
                [
                    config_id
                    for config_id, configuration in enumerate(self._universe)
                    if fn(configuration)
                ]
            )
        if isinstance(formula, Not):
            return everything & ~self.extension_mask(formula.operand)
        if isinstance(formula, And):
            return self.extension_mask(formula.left) & self.extension_mask(
                formula.right
            )
        if isinstance(formula, Or):
            return self.extension_mask(formula.left) | self.extension_mask(
                formula.right
            )
        if isinstance(formula, Implies):
            return (
                everything & ~self.extension_mask(formula.left)
            ) | self.extension_mask(formula.right)
        if isinstance(formula, Iff):
            left = self.extension_mask(formula.left)
            right = self.extension_mask(formula.right)
            return everything & ~(left ^ right)
        if isinstance(formula, Knows):
            return self._knows_mask(formula.processes, formula.operand)
        if isinstance(formula, Sure):
            return self._knows_mask(
                formula.processes, formula.operand
            ) | self._knows_mask(formula.processes, Not(formula.operand))
        if isinstance(formula, CommonKnowledge):
            return self._common_knowledge_mask(formula.processes, formula.operand)
        raise FormulaError(f"unknown formula type: {formula!r}")

    def _history_atom_mask(self, atom: HistoryAtom) -> int:
        """One predicate call per ``[P]``-class, on the histories of its
        lowest member, read from the per-process class histories."""
        universe = self._universe
        columns = [
            (
                universe.partition_table(frozenset((process,))).class_of,
                universe.class_histories(process),
            )
            for process in sorted(atom.processes)
        ]
        table = universe.partition_table(atom.processes)
        predicate = atom.predicate
        true_classes: list[int] = []
        false_classes: list[int] = []
        for index, first in enumerate(table.representatives):
            arguments = [histories[class_of[first]] for class_of, histories in columns]
            (true_classes if predicate(*arguments) else false_classes).append(index)
        # OR the smaller side: a sparse table's union costs one step per
        # member id.
        if len(true_classes) > len(false_classes):
            return universe.full_mask & ~table.classes_mask(false_classes)
        return table.classes_mask(true_classes)

    def _knows_mask(
        self, processes: frozenset[ProcessId], operand: Formula
    ) -> int:
        body = self.extension_mask(operand)
        return self._universe.partition_table(processes).contained_classes_mask(
            body
        )

    def _common_knowledge_mask(
        self, processes: Iterable[ProcessId], operand: Formula
    ) -> int:
        """Greatest fixpoint: start from the extension of ``operand`` and
        delete configurations whose ``[p]``-class leaks out, until stable."""
        current = self.extension_mask(operand)
        per_process = [
            self._universe.partition_table({process})
            for process in sorted(as_process_set(processes))
        ]
        changed = True
        while changed:
            changed = False
            for table in per_process:
                kept = table.contained_classes_mask(current)
                if kept != current:
                    current = kept
                    changed = True
        return current

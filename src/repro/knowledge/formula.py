"""Knowledge formulas (paper, section 4).

Predicates on system computations are total boolean functions of the
configuration (the ``[D]``-class), which bakes in the paper's standing
assumption that ``x [D] y`` implies ``b at x = b at y``.

The AST mirrors the paper's predicate language:

* :class:`Atom` — a base predicate given by a Python function of the
  configuration;
* :class:`HistoryAtom` (built by :meth:`Atom.of_history`) — a base
  predicate given by a function of the histories of a process set ``P``
  only, so it is local to ``P`` (constant on ``[P]``-classes) by
  construction, and the evaluator computes it once per class;
* boolean connectives :class:`Not`, :class:`And`, :class:`Or`,
  :class:`Implies`, :class:`Iff`;
* :class:`Knows` — ``P knows b``, defined by
  ``(P knows b) at x  ≡  ∀y: x [P] y: b at y``;
* :class:`Sure` — ``P sure b  ≡  (P knows b) or (P knows ¬b)``;
* :class:`CommonKnowledge` — the greatest-fixpoint operator of §4.2.

Formulas are immutable and hashable; evaluation is performed by
:class:`repro.knowledge.evaluator.KnowledgeEvaluator`, which memoises the
extension (set of satisfying configurations) of every subformula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.configuration import Configuration
from repro.core.errors import FormulaError
from repro.core.process import ProcessSetLike, as_process_set, format_process_set

PredicateFn = Callable[[Configuration], bool]
"""A base predicate: any boolean function of the configuration."""

HistoryPredicate = Callable[..., bool]
"""A predicate on histories: called with one history tuple per process of
its set, in sorted process order."""


class Formula:
    """Base class of all knowledge formulas.

    Overloads ``&``, ``|``, ``~`` and ``>>`` (implies) so formulas read
    close to the paper::

        Knows("p", b) >> b          # knowledge axiom: P knows b implies b
    """

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, _coerce(other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, _coerce(other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, _coerce(other))

    def subformulas(self):
        """Direct subformulas (for traversal)."""
        return ()


def _coerce(value) -> "Formula":
    if isinstance(value, Formula):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    raise FormulaError(f"cannot use {value!r} as a formula")


@dataclass(frozen=True)
class Constant(Formula):
    """The constant predicate ``true`` or ``false``."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Constant(True)
FALSE = Constant(False)


@dataclass(frozen=True)
class Atom(Formula):
    """A named base predicate backed by a Python function.

    Two atoms are equal iff they have the same name *and* the same
    function object; give distinct predicates distinct names.
    """

    name: str
    fn: PredicateFn = field(compare=True)

    def __str__(self) -> str:
        return self.name

    @staticmethod
    def of_history(
        name: str, processes: ProcessSetLike, predicate: HistoryPredicate
    ) -> "HistoryAtom":
        """A base predicate that reads only the histories of ``processes``:
        ``predicate`` is called with one history tuple per process, in
        sorted process order (for one process, its history alone)."""
        return HistoryAtom(name, processes, predicate)


@dataclass(frozen=True, init=False)
class HistoryAtom(Atom):
    """An atom on the histories of ``processes`` only.

    ``x [P] y`` means every process of ``P`` has the same history in ``x``
    and ``y``, so the atom is constant on ``[P]``-classes: local to ``P``,
    and to every superset of ``P``, by construction.  ``fn`` is derived
    from ``predicate``, so every caller of an :class:`Atom` keeps working;
    the evaluator instead calls ``predicate`` once per ``[P]``-class.

    Two history atoms are equal iff they have the same name, process set
    and predicate object.
    """

    fn: PredicateFn = field(compare=False, repr=False)
    processes: frozenset[str]
    predicate: HistoryPredicate

    def __init__(
        self, name: str, processes: ProcessSetLike, predicate: HistoryPredicate
    ) -> None:
        p_set = as_process_set(processes)
        ordered = tuple(sorted(p_set))

        def fn(configuration: Configuration) -> bool:
            return predicate(*map(configuration.history, ordered))

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "processes", p_set)
        object.__setattr__(self, "predicate", predicate)


@dataclass(frozen=True)
class Not(Formula):
    """``¬ operand``."""

    operand: Formula

    def __str__(self) -> str:
        return f"¬({self.operand})"

    def subformulas(self):
        return (self.operand,)


@dataclass(frozen=True)
class And(Formula):
    """``left and right``."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"

    def subformulas(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Or(Formula):
    """``left or right``."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"

    def subformulas(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Implies(Formula):
    """``left implies right``."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} ⇒ {self.right})"

    def subformulas(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Iff(Formula):
    """``left iff right``."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} ⇔ {self.right})"

    def subformulas(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Knows(Formula):
    """``P knows b``: true at ``x`` iff ``b`` holds at every ``y`` with
    ``x [P] y``."""

    processes: frozenset[str]
    operand: Formula

    def __init__(self, processes: ProcessSetLike, operand: Formula) -> None:
        object.__setattr__(self, "processes", as_process_set(processes))
        object.__setattr__(self, "operand", _coerce(operand))

    def __str__(self) -> str:
        return f"K{format_process_set(self.processes)}({self.operand})"

    def subformulas(self):
        return (self.operand,)


@dataclass(frozen=True)
class Sure(Formula):
    """``P sure b  ≡  (P knows b) or (P knows ¬b)`` (paper, §4.2)."""

    processes: frozenset[str]
    operand: Formula

    def __init__(self, processes: ProcessSetLike, operand: Formula) -> None:
        object.__setattr__(self, "processes", as_process_set(processes))
        object.__setattr__(self, "operand", _coerce(operand))

    def expand(self) -> Formula:
        """The defining disjunction."""
        return Or(
            Knows(self.processes, self.operand),
            Knows(self.processes, Not(self.operand)),
        )

    def __str__(self) -> str:
        return f"Sure{format_process_set(self.processes)}({self.operand})"

    def subformulas(self):
        return (self.operand,)


@dataclass(frozen=True)
class CommonKnowledge(Formula):
    """``b is common knowledge`` among ``processes`` (paper, §4.2).

    Defined as the greatest fixpoint of
    ``C  ≡  b  ∧  (p knows C)  for all p in processes``.
    """

    processes: frozenset[str]
    operand: Formula

    def __init__(self, processes: ProcessSetLike, operand: Formula) -> None:
        object.__setattr__(self, "processes", as_process_set(processes))
        object.__setattr__(self, "operand", _coerce(operand))

    def __str__(self) -> str:
        return f"C{format_process_set(self.processes)}({self.operand})"

    def subformulas(self):
        return (self.operand,)


def knows(*processes_then_formula) -> Knows:
    """Nested knowledge builder: ``knows(P1, P2, …, Pn, b)`` is
    ``P1 knows P2 knows … Pn knows b``.

    Each ``Pi`` may be a process name or an iterable of names.
    """
    *sets, formula = processes_then_formula
    if not sets:
        raise FormulaError("knows() needs at least one process set")
    result = _coerce(formula)
    for entry in reversed(sets):
        result = Knows(entry, result)
    return result


def unsure(processes: ProcessSetLike, operand: Formula) -> Formula:
    """``P unsure b  ≡  ¬(P sure b)``."""
    return Not(Sure(processes, operand))

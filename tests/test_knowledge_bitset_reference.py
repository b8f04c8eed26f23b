"""Bitmask knowledge evaluator vs a reference frozenset implementation.

The production :class:`KnowledgeEvaluator` computes extensions as int
bitmasks over dense configuration ids.  :class:`ReferenceEvaluator` below
re-implements the original frozenset algebra (the seed algorithm, kept
deliberately independent of the bitmask machinery) and the tests compare
the two on every shipped protocol universe and an enumerated universe.
The suite mixes history atoms (one predicate call per ``[P]``-class in
the evaluator) with a plain atom of the same function (one call per
configuration), and the reference calls ``fn`` on every configuration
for both.
"""

import pytest

from repro.core.errors import UniverseError
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    CommonKnowledge,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Sure,
    knows,
)
from repro.knowledge.predicates import (
    atom,
    did_internal,
    event_count_at_least,
    has_received,
    has_sent,
)
from repro.protocols.broadcast import (
    BroadcastProtocol,
    fact_known_atom,
    line_topology,
)
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.protocols.token_bus import TokenBusProtocol, holds_token_atom
from repro.universe.builder import figure_3_1_universe
from repro.universe.explorer import Universe


class ReferenceEvaluator:
    """The seed frozenset algorithm, independent of bitmasks."""

    def __init__(self, universe):
        self._universe = universe
        self._partitions = {}

    def partition(self, processes):
        p_set = frozenset(processes)
        cached = self._partitions.get(p_set)
        if cached is None:
            buckets = {}
            for configuration in self._universe:
                buckets.setdefault(
                    configuration.projection(p_set), []
                ).append(configuration)
            cached = list(buckets.values())
            self._partitions[p_set] = cached
        return cached

    def extension(self, formula):
        everything = frozenset(self._universe)
        if isinstance(formula, Atom):
            return frozenset(c for c in self._universe if formula.fn(c))
        if isinstance(formula, Not):
            return everything - self.extension(formula.operand)
        if isinstance(formula, And):
            return self.extension(formula.left) & self.extension(formula.right)
        if isinstance(formula, Or):
            return self.extension(formula.left) | self.extension(formula.right)
        if isinstance(formula, Implies):
            return (everything - self.extension(formula.left)) | self.extension(
                formula.right
            )
        if isinstance(formula, Iff):
            left = self.extension(formula.left)
            right = self.extension(formula.right)
            return (left & right) | (everything - left - right)
        if isinstance(formula, Knows):
            return self._knows(formula.processes, formula.operand)
        if isinstance(formula, Sure):
            return self._knows(formula.processes, formula.operand) | self._knows(
                formula.processes, Not(formula.operand)
            )
        if isinstance(formula, CommonKnowledge):
            return self._common(formula.processes, formula.operand)
        # Constant
        return everything if formula.value else frozenset()

    def _knows(self, processes, operand):
        body = self.extension(operand)
        satisfied = set()
        for iso_class in self.partition(processes):
            if all(member in body for member in iso_class):
                satisfied.update(iso_class)
        return frozenset(satisfied)

    def _common(self, processes, operand):
        current = set(self.extension(operand))
        changed = True
        while changed:
            changed = False
            for process in sorted(processes):
                for iso_class in self.partition({process}):
                    inside = [member for member in iso_class if member in current]
                    if inside and len(inside) != len(iso_class):
                        for member in inside:
                            current.discard(member)
                        changed = True
        return frozenset(current)


def universes():
    yield "pingpong", Universe(PingPongProtocol(rounds=2))
    yield "broadcast", Universe(
        BroadcastProtocol(line_topology(("a", "b", "c")), root="a")
    )
    yield "token_bus", Universe(TokenBusProtocol(max_hops=3))
    yield "toggle", Universe(ToggleProtocol(max_flips=2))
    yield "fig31", figure_3_1_universe()


def protocol_atom(universe):
    """A history atom of the universe's own protocol, if it ships one."""
    try:
        protocol = universe.protocol
    except UniverseError:  # an enumerated universe has no protocol
        return None
    first = sorted(universe.processes)[0]
    if isinstance(protocol, BroadcastProtocol):
        return fact_known_atom(protocol, protocol.root)
    if isinstance(protocol, TokenBusProtocol):
        return holds_token_atom(protocol, first)
    if isinstance(protocol, ToggleProtocol):
        return bit_atom(protocol)
    return has_received(first, "pong")


def formula_suite(universe):
    processes = sorted(universe.processes)
    first, last = processes[0], processes[-1]
    busy_first = event_count_at_least({first}, 1)
    busy_last = event_count_at_least({last}, 1)
    busy_both = event_count_at_least({first, last}, 3)
    plain_busy_last = atom("busy last (per configuration)", busy_last.fn)
    history_atoms = [
        busy_both,
        has_sent(last, "ping"),
        has_received(first, "token"),
        did_internal(first, "learn"),
    ]
    own = protocol_atom(universe)
    if own is not None:
        history_atoms += [own, Knows(last, own), CommonKnowledge(processes, own)]
    return history_atoms + [
        plain_busy_last,
        Knows(first, plain_busy_last),
        Sure(first, plain_busy_last),
        Iff(busy_last, plain_busy_last),
        TRUE,
        FALSE,
        busy_first,
        Not(busy_first),
        And(busy_first, busy_last),
        Or(busy_first, Not(busy_last)),
        Implies(busy_first, busy_last),
        Iff(busy_first, busy_last),
        Knows(first, busy_last),
        Knows(frozenset(processes), busy_first),
        knows(first, last, busy_first),  # nested knowledge
        Sure(last, busy_first),
        CommonKnowledge(frozenset({first, last}), busy_first),
        CommonKnowledge(frozenset(processes), Or(busy_first, busy_last)),
    ]


@pytest.mark.parametrize(
    "name,universe", list(universes()), ids=lambda value: value if isinstance(value, str) else ""
)
def test_bitset_extensions_match_reference(name, universe):
    fast = KnowledgeEvaluator(universe)
    reference = ReferenceEvaluator(universe)
    for formula in formula_suite(universe):
        assert fast.extension(formula) == reference.extension(formula), (
            name,
            str(formula),
        )


def test_holds_and_validity_match_reference():
    universe = Universe(PingPongProtocol(rounds=2))
    fast = KnowledgeEvaluator(universe)
    reference = ReferenceEvaluator(universe)
    for formula in formula_suite(universe):
        ref_extension = reference.extension(formula)
        assert fast.is_valid(formula) == (len(ref_extension) == len(universe))
        assert fast.is_constant(formula) == (
            len(ref_extension) in (0, len(universe))
        )
        for configuration in universe:
            assert fast.holds(formula, configuration) == (
                configuration in ref_extension
            )


def test_partition_matches_reference():
    universe = Universe(TokenBusProtocol(max_hops=3))
    fast = KnowledgeEvaluator(universe)
    reference = ReferenceEvaluator(universe)
    for process_set in [{p} for p in universe.processes] + [universe.processes]:
        fast_classes = {frozenset(c) for c in fast.partition(process_set)}
        ref_classes = {frozenset(c) for c in reference.partition(process_set)}
        assert fast_classes == ref_classes


def test_counterexamples_fail_the_formula():
    universe = Universe(PingPongProtocol(rounds=2))
    fast = KnowledgeEvaluator(universe)
    processes = sorted(universe.processes)
    formula = Knows(processes[0], event_count_at_least({processes[-1]}, 1))
    extension = fast.extension(formula)
    for counterexample in fast.counterexamples(formula, limit=5):
        assert counterexample not in extension
        assert counterexample in universe

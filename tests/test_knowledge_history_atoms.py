"""History atoms vs the per-configuration oracle.

An atom built by :meth:`Atom.of_history` reads only the histories of its
process set ``P``, so the evaluator calls its predicate once per
``[P]``-class and ORs the true classes, and :func:`is_local_to` answers
its locality for ``Q ⊇ P`` without evaluating anything.  Every history
atom the library builds is held here to
:func:`~repro.knowledge.reference.atom_mask_reference` (its ``fn`` on
every configuration) and to
:func:`~repro.knowledge.reference.is_local_to_reference` (``Q sure b`` at
every configuration), on every ``ORACLE_UNIVERSES`` entry, truncated and
capped ones included, and on a universe of each protocol that ships an
atom of its own.  CI runs this file under two hash seeds.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Atom, HistoryAtom, Knows, Not, Sure
from repro.knowledge.predicates import (
    atom,
    did_internal,
    event_count_at_least,
    has_received,
    has_sent,
    is_local_to,
)
from repro.knowledge.reference import atom_mask_reference, is_local_to_reference
from repro.protocols.broadcast import (
    FACT_TAG,
    LEARN_TAG,
    BroadcastProtocol,
    fact_known_atom,
)
from repro.protocols.commit import TwoPhaseCommitProtocol
from repro.protocols.failure_monitor import (
    AsyncFailureMonitorProtocol,
    SyncFailureMonitorProtocol,
)
from repro.protocols.mutex import ENTER_TAG, TokenRingMutexProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.protocols.token_bus import TOKEN_TAG, TokenBusProtocol, holds_token_atom
from repro.simulation import failures
from repro.universe.builder import figure_3_1_universe
from repro.universe.explorer import Universe

from test_universe_partition import ORACLE_UNIVERSES


def _generic_atoms(universe) -> list[Atom]:
    """The protocol-independent builders, on every process of ``universe``."""
    ordered = sorted(universe.processes)
    atoms = [
        event_count_at_least(ordered[:2], 2),
        event_count_at_least(ordered, 3),
        event_count_at_least((), 0),
    ]
    for process in ordered:
        atoms += [
            event_count_at_least(process, 1),
            has_sent(process, FACT_TAG),
            has_sent(process, TOKEN_TAG),
            has_received(process, FACT_TAG),
            has_received(process, TOKEN_TAG),
            did_internal(process, LEARN_TAG),
            failures.crashed_atom(process),
        ]
    return atoms


def _protocol_atoms(universe) -> list[Atom]:
    """The atoms ``universe``'s own protocol builds."""
    protocol = universe.protocol
    ordered = sorted(universe.processes)
    if isinstance(protocol, BroadcastProtocol):
        return [fact_known_atom(protocol, process) for process in ordered]
    if isinstance(protocol, TokenBusProtocol):
        return [holds_token_atom(protocol, process) for process in ordered]
    if isinstance(protocol, TokenRingMutexProtocol):
        return [protocol.in_cs_atom(process) for process in ordered] + [
            did_internal(process, ENTER_TAG) for process in ordered
        ]
    if isinstance(protocol, ToggleProtocol):
        return [bit_atom(protocol)]
    if isinstance(protocol, TwoPhaseCommitProtocol):
        return [
            built
            for participant in protocol.participants
            for built in (
                protocol.voted_atom(participant, True),
                protocol.voted_atom(participant, False),
                protocol.committed_atom(participant),
            )
        ]
    if isinstance(
        protocol, (AsyncFailureMonitorProtocol, SyncFailureMonitorProtocol)
    ):
        return [protocol.crashed_atom()]
    if isinstance(protocol, failures.CrashableProtocol):
        return [failures.crashed_atom(process) for process in ordered]
    return []


PROTOCOL_UNIVERSES = {
    "mutex": lambda: Universe(TokenRingMutexProtocol(max_hops=3, max_sessions=1)),
    "toggle": lambda: Universe(ToggleProtocol(max_flips=3)),
    "commit": lambda: Universe(TwoPhaseCommitProtocol(("p1", "p2"))),
    "async_monitor": lambda: Universe(AsyncFailureMonitorProtocol(heartbeats=2)),
    "sync_monitor": lambda: Universe(SyncFailureMonitorProtocol(rounds=2)),
    "crashable_pingpong": lambda: Universe(
        failures.CrashableProtocol(PingPongProtocol(rounds=2), crashable={"q"})
    ),
}

UNIVERSES = {**ORACLE_UNIVERSES, **PROTOCOL_UNIVERSES}


@cache
def _evaluator(name: str) -> KnowledgeEvaluator:
    universe = UNIVERSES[name]()
    return KnowledgeEvaluator(universe, allow_incomplete=not universe.is_complete)


def _atoms(name: str) -> list[HistoryAtom]:
    universe = _evaluator(name).universe
    atoms = _generic_atoms(universe) + _protocol_atoms(universe)
    assert all(isinstance(built, HistoryAtom) for built in atoms)
    return atoms


def _counting(history_atom: HistoryAtom) -> tuple[HistoryAtom, list[int]]:
    """A copy of ``history_atom`` whose predicate counts its calls."""
    calls = [0]
    predicate = history_atom.predicate

    def counted(*histories):
        calls[0] += 1
        return predicate(*histories)

    return Atom.of_history(history_atom.name, history_atom.processes, counted), calls


@pytest.mark.parametrize("name", sorted(UNIVERSES))
class TestHistoryAtomsEqualOracle:
    def test_universe_kinds(self, name):
        universe = _evaluator(name).universe
        if name == "star5_truncated":
            assert not universe.is_complete
        if name == "star5_capped":
            assert not universe.is_complete and len(universe) == 200

    def test_mask_equals_per_configuration_oracle(self, name):
        universe = _evaluator(name).universe
        nontrivial = 0
        for built in _atoms(name):
            counted, calls = _counting(built)
            mask = KnowledgeEvaluator(
                universe, allow_incomplete=True
            ).extension_mask(counted)
            assert mask == atom_mask_reference(universe, built), built.name
            table = universe.partition_table(built.processes)
            assert calls[0] == table.num_classes, built.name
            nontrivial += mask not in (0, universe.full_mask)
        assert nontrivial > 0

    def test_protocol_atoms_are_exercised(self, name):
        universe = _evaluator(name).universe
        masks = {
            _evaluator(name).extension_mask(built)
            for built in _protocol_atoms(universe)
        }
        if name not in ("star5_capped", "star5_truncated"):
            assert masks - {0, universe.full_mask}, name

    def test_locality_matches_sure_oracle(self, name):
        evaluator = _evaluator(name)
        universe = evaluator.universe
        ordered = sorted(universe.processes)
        process_sets = [frozenset((process,)) for process in ordered]
        process_sets += [frozenset(ordered[:2]), universe.processes, frozenset()]
        for built in _atoms(name)[:12] + _protocol_atoms(universe):
            for p_set in process_sets:
                assert is_local_to(evaluator, built, p_set) == (
                    is_local_to_reference(evaluator, built, p_set)
                ), (built.name, sorted(p_set))

    def test_superset_locality_evaluates_nothing(self, name):
        evaluator = _evaluator(name)
        universe = evaluator.universe
        for built in _protocol_atoms(universe):
            counted, calls = _counting(built)
            assert is_local_to(evaluator, counted, counted.processes)
            assert is_local_to(evaluator, counted, universe.processes)
            assert calls[0] == 0
            assert is_local_to_reference(evaluator, counted, counted.processes)


class TestHistoryAtomValue:
    def test_fn_reads_the_histories_in_sorted_order(self):
        seen = []

        def predicate(*histories):
            seen.append(histories)
            return True

        built = Atom.of_history("probe", {"q", "p"}, predicate)
        universe = Universe(PingPongProtocol(rounds=1))
        configuration = universe.configuration_of_id(len(universe) - 1)
        assert built.fn(configuration)
        assert seen == [(configuration.history("p"), configuration.history("q"))]
        assert built.processes == frozenset({"p", "q"})
        assert isinstance(built, Atom) and str(built) == "probe"

    def test_equality_ignores_the_derived_fn(self):
        first = Atom.of_history("b", "p", len)
        assert first == Atom.of_history("b", {"p"}, len)
        assert hash(first) == hash(Atom.of_history("b", {"p"}, len))
        assert first != Atom.of_history("b", "q", len)
        assert first != Atom("b", first.fn)

    def test_plain_atom_keeps_the_per_configuration_path(self):
        """A plain atom with the same function gives the same mask, and
        its locality still goes through ``Sure``."""
        evaluator = KnowledgeEvaluator(Universe(PingPongProtocol(rounds=2)))
        built = has_received("q", "ping")
        plain = atom("q has received 'ping' (plain)", built.fn)
        assert not isinstance(plain, HistoryAtom)
        assert evaluator.extension_mask(plain) == evaluator.extension_mask(built)
        assert is_local_to(evaluator, plain, {"q"})
        assert not is_local_to(evaluator, plain, {"p"})
        assert not is_local_to(evaluator, built, {"p"})

    def test_enumerated_universe(self):
        universe = figure_3_1_universe()
        evaluator = KnowledgeEvaluator(universe)
        for built in _generic_atoms(universe):
            assert evaluator.extension_mask(built) == atom_mask_reference(
                universe, built
            ), built.name
            assert evaluator.extension_mask(
                Not(Knows(sorted(universe.processes)[0], built))
            ) == evaluator.extension_mask(
                Not(Knows(sorted(universe.processes)[0], atom("plain", built.fn)))
            )
            assert evaluator.is_valid(Sure(built.processes, built))

"""Dense-id transfer checkers vs the object-level oracles (§4.3).

:mod:`repro.knowledge.transfer` checks Theorem 4 one ``[P1]``-class at a
time and Lemma 4 by one scan of the CSR successor arrays.  The oracles in
:mod:`repro.knowledge.reference` walk configurations one instance at a
time.  Every report must be equal: verdict, instance count and
counterexample, on complete universes, a truncated one, multi-process
``P`` and the ``sure`` variant.

Theorems 5 and 6 and Lemma 4's corollaries walk ``x <= y`` as
descendant masks over the stored successor graph
(:meth:`~repro.universe.explorer.Universe.descendant_masks`).  Their
independent oracle is a brute-force walk of the pair enumerator
:func:`repro.universe.reference.sub_configuration_pairs`, which compares
histories and never reads the successor arrays.  Stored reachability
must equal that enumerator on every complete universe here and on
further protocols; on the capped universes the missing pairs are pinned.

The counterexample contract (lowest ``(x id, y id)``, full count) is
exercised with an evaluator stub that flips one bit of a formula's mask,
so the theorems fail at many pairs.  CI runs this module under two hash
seeds.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import pytest

from repro.causality.chains import chain_in_suffix
from repro.core.process import as_process_set
from repro.isomorphism.reference import composed_class_reference
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows, Not, Sure
from repro.knowledge.predicates import (
    atom,
    did_internal,
    event_count_at_least,
    has_received,
    has_sent,
)
from repro.knowledge.reference import (
    check_lemma_4_reference,
    check_theorem_4_negative_corollary_reference,
    check_theorem_4_reference,
)
from repro.knowledge.transfer import (
    TransferReport,
    check_lemma_4,
    check_lemma_4_corollaries,
    check_theorem_4,
    check_theorem_4_negative_corollary,
    check_theorem_5_gain,
    check_theorem_6_loss,
    nested_knowledge,
)
from repro.protocols.broadcast import (
    BroadcastProtocol,
    fact_known_atom,
    line_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.commit import TwoPhaseCommitProtocol
from repro.protocols.failure_monitor import SyncFailureMonitorProtocol
from repro.protocols.leader_election import ChangRobertsProtocol
from repro.protocols.mutex import ENTER_TAG, TOKEN_TAG, TokenRingMutexProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.snapshot import SnapshotTokenRingProtocol
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.protocols.token_bus import TokenBusProtocol, holds_token_atom
from repro.simulation.network import FifoProtocol
from repro.universe.builder import figure_3_1_universe
from repro.universe.explorer import Universe, iter_bit_ids
from repro.universe.options import ExplorationOptions, Limits
from repro.universe.reference import sub_configuration_pairs
from test_universe_partition import ORACLE_UNIVERSES


def _explore(protocol, cap: int | None = None) -> Universe:
    """The universe of ``protocol``, truncated at ``cap`` configurations."""
    limits = Limits(max_configurations=cap, on_limit="truncate")
    universe = Universe(protocol, options=ExplorationOptions(limits=limits))
    assert universe.is_complete is (cap is None)
    return universe


def _star(size: int) -> BroadcastProtocol:
    leaves = tuple(f"r{index}" for index in range(size - 1))
    return BroadcastProtocol(star_topology("hub", leaves), "hub")


def _tree(size: int) -> BroadcastProtocol:
    names = [f"t{index}" for index in range(size)]
    return BroadcastProtocol(tree_topology(names, 2), names[0])


def _root_fact(universe: Universe):
    return fact_known_atom(universe.protocol, universe.protocol.root)


def _plain(history_atom):
    """The same function as a plain atom, evaluated per configuration and
    checked for locality with ``Sure``, not by construction."""
    return atom(f"{history_atom.name} (per configuration)", history_atom.fn)


# name -> (universe, atoms, Theorem 4 set sequences, Lemma 4 process sets)
CASES = {
    "pingpong": (
        lambda: _explore(PingPongProtocol(rounds=2)),
        lambda universe: [
            has_received("q", "ping"),
            Not(has_sent("q", "pong")),
            _plain(has_sent("q", "pong")),
        ],
        [["p"], ["p", "q"], ["q", "p"], ["p", "q", "p"]],
        [{"p"}, {"q"}],
    ),
    "broadcast": (
        lambda: _explore(BroadcastProtocol(line_topology(("a", "b", "c")), "a")),
        lambda universe: [did_internal("a", "learn")],
        [["c", "b", "a"], ["a", "b"], ["b", "c"]],
        [{"b", "c"}, {"b"}, {"c"}],
    ),
    "token-bus": (
        lambda: _explore(TokenBusProtocol(max_hops=3)),
        lambda universe: [
            holds_token_atom(universe.protocol, "p"),
            holds_token_atom(universe.protocol, "r"),
        ],
        [["q", "p"], ["r", "q", "p"], ["s"]],
        [{"q"}, {"r", "s"}],
    ),
    "mutex": (
        lambda: _explore(TokenRingMutexProtocol(max_hops=3)),
        lambda universe: [did_internal("p", ENTER_TAG), has_sent("q", TOKEN_TAG)],
        [["q", "p"], ["r", "q"]],
        [{"q"}, {"r"}, {"q", "r"}],
    ),
    "toggle": (
        lambda: _explore(ToggleProtocol(max_flips=2)),
        lambda universe: [bit_atom(universe.protocol)],
        [["q", "p"], ["q"], ["p", "q"]],
        [{"q"}],
    ),
    "figure-3-1": (
        figure_3_1_universe,
        lambda universe: [event_count_at_least("p", 1), event_count_at_least("q", 2)],
        [["q", "p"], ["p", "q"]],
        [{"p"}, {"q"}],
    ),
    "star4": (
        lambda: _explore(_star(4)),
        lambda universe: [
            _root_fact(universe),
            fact_known_atom(universe.protocol, "r0"),
            _plain(_root_fact(universe)),
        ],
        [["r0", "hub"], ["r1", "r0", "hub"], ["hub"]],
        [{"r0"}, {"r1", "r2"}],
    ),
    "star5": (
        lambda: _explore(_star(5)),
        lambda universe: [_root_fact(universe)],
        [["r0", "hub"]],
        [{"r0"}, {"r3"}],
    ),
    "tree6": (
        lambda: _explore(_tree(6)),
        lambda universe: [_root_fact(universe)],
        [["t3", "t1", "t0"], ["t5", "t0"]],
        [{"t3"}, {"t3", "t4"}],
    ),
    "star5-truncated": (
        lambda: _explore(_star(5), cap=300),
        lambda universe: [_root_fact(universe)],
        [["r0", "hub"], ["r1", "r0"]],
        [{"r0"}, {"r1", "r2"}],
    ),
}


REACHABILITY_UNIVERSES = {
    **ORACLE_UNIVERSES,
    **{f"case-{name}": entry[0] for name, entry in CASES.items()},
    "sync-monitor": lambda: Universe(SyncFailureMonitorProtocol(rounds=2)),
    "fifo-snapshot": lambda: Universe(FifoProtocol(SnapshotTokenRingProtocol())),
    "commit": lambda: Universe(TwoPhaseCommitProtocol(("p1", "p2"))),
    "election": lambda: Universe(ChangRobertsProtocol(("a", "b", "c"))),
}

# Capped universes: the ``x <= y`` pairs whose every stored path runs
# through a configuration the cap left unexpanded.
UNREACHED_PAIRS = {
    "star5_capped": {(9, 199), (28, 199), (84, 199), (87, 197)},
    "case-star5-truncated": {(17, 299), (56, 299), (147, 298), (148, 299), (150, 296)},
}


@pytest.mark.parametrize("name", sorted(REACHABILITY_UNIVERSES))
def test_descendant_masks_are_the_prefix_order(name):
    """Stored reachability equals ``x <= y`` on every universe that is
    complete or bounded by ``max_events``, and under-approximates it by
    the pinned pairs on the capped ones."""
    universe = REACHABILITY_UNIVERSES[name]()
    reached = {
        (x_id, y_id)
        for x_id, descendants in universe.descendant_masks(universe.full_mask)
        for y_id in iter_bit_ids(descendants)
    }
    pairs = {
        (universe.config_id(x), universe.config_id(y))
        for x, y in sub_configuration_pairs(universe)
    }
    assert reached <= pairs
    assert pairs - reached == UNREACHED_PAIRS.get(name, set())
    if name == "star5_capped":
        assert (len(pairs), len(reached)) == (1_280, 1_276)


def test_descendant_masks_visit_requested_ids_highest_first():
    universe = _explore(PingPongProtocol(rounds=2))
    every = dict(universe.descendant_masks(universe.full_mask))
    requested = 0b10_0110
    visited = list(universe.descendant_masks(requested))
    assert [x_id for x_id, _ in visited] == [5, 2, 1]
    assert all(every[x_id] == mask for x_id, mask in visited)
    assert list(universe.descendant_masks(0)) == []


@cache
def _evaluator(name: str) -> KnowledgeEvaluator:
    universe = CASES[name][0]()
    return KnowledgeEvaluator(universe, allow_incomplete=not universe.is_complete)


def _atoms(name: str) -> list:
    return CASES[name][1](_evaluator(name).universe)


@pytest.mark.parametrize("name", sorted(CASES))
class TestEqualsOracle:
    def test_theorem_4(self, name):
        evaluator = _evaluator(name)
        exercised = 0
        for formula in _atoms(name):
            for sets in CASES[name][2]:
                for sure in (False, True):
                    report = check_theorem_4(evaluator, sets, formula, sure=sure)
                    assert report == check_theorem_4_reference(
                        evaluator, sets, formula, sure=sure
                    ), (sets, sure)
                    exercised += report.checked
        assert exercised > 0

    def test_theorem_4_negative_corollary(self, name):
        evaluator = _evaluator(name)
        for formula in _atoms(name):
            for sets in CASES[name][2]:
                report = check_theorem_4_negative_corollary(evaluator, sets, formula)
                assert report == check_theorem_4_negative_corollary_reference(
                    evaluator, sets, formula
                ), sets

    def test_lemma_4(self, name):
        evaluator = _evaluator(name)
        for formula in _atoms(name):
            for processes in CASES[name][3]:
                reports = check_lemma_4(evaluator, formula, processes)
                assert reports == check_lemma_4_reference(
                    evaluator, formula, processes
                ), processes


class FlippedBitEvaluator:
    """An evaluator whose ``formula`` extension has one id flipped: lost
    if it was a member, gained if not.

    Every other formula, including the ones ``formula`` is nested in,
    keeps the real extension, so a theorem whose target is ``formula``
    fails at every instance reaching a lost ``config_id``.
    """

    def __init__(self, evaluator, formula, config_id: int) -> None:
        self._evaluator = evaluator
        self._formula = formula
        self._config_id = config_id

    @property
    def universe(self) -> Universe:
        return self._evaluator.universe

    def extension_mask(self, formula) -> int:
        mask = self._evaluator.extension_mask(formula)
        if formula == self._formula:
            mask ^= 1 << self._config_id
        return mask

    def extension(self, formula):
        return frozenset(
            self.universe.configurations_in_mask(self.extension_mask(formula))
        )

    def is_valid(self, formula) -> bool:
        return self.extension_mask(formula) == self.universe.full_mask


@pytest.mark.parametrize("name", ["pingpong", "star4", "tree6", "star5-truncated"])
def test_theorem_4_reports_lowest_counterexample(name):
    evaluator = _evaluator(name)
    universe = evaluator.universe
    formula = _atoms(name)[0]
    sequence = next(entry for entry in CASES[name][2] if len(entry) > 1)
    sets = [as_process_set(entry) for entry in sequence]
    target = Knows(sets[-1], formula)
    antecedent = evaluator.extension_mask(nested_knowledge(sets, formula))
    assert antecedent, "the stub needs a non-vacuous antecedent"
    # x [P1 … Pn] x, so clearing an antecedent id from the target fails
    # at least (x, x); every x whose image reaches it fails too.
    cleared = antecedent.bit_length() - 1
    stub = FlippedBitEvaluator(evaluator, target, cleared)
    report = check_theorem_4(stub, sets, formula)
    assert not report.holds
    assert report == check_theorem_4_reference(stub, sets, formula)
    assert report.checked == check_theorem_4(evaluator, sets, formula).checked
    x, y = report.counterexample
    assert universe.config_id(y) == cleared
    assert universe.config_id(x) == min(
        universe.config_id(candidate)
        for candidate in universe.configurations_in_mask(antecedent)
        if y in composed_class_reference(universe, candidate, sets)
    )


@pytest.mark.parametrize("name", ["pingpong", "mutex", "star5-truncated"])
def test_lemma_4_reports_lowest_counterexample(name):
    """Clear each id of the knows set in turn: a cleared ``y`` refutes
    receives into it from knowing ``x`` and sends out of it to knowing
    successors, so several edges can fail at once."""
    evaluator = _evaluator(name)
    universe = evaluator.universe
    refuted = 0
    for formula in _atoms(name):
        for processes in map(as_process_set, CASES[name][3]):
            target = Knows(processes, formula)
            real = check_lemma_4(evaluator, formula, processes)
            for cleared in iter_bit_ids(evaluator.extension_mask(target)):
                stub = FlippedBitEvaluator(evaluator, target, cleared)
                reports = check_lemma_4(stub, formula, processes)
                assert reports == check_lemma_4_reference(stub, formula, processes)
                for kind, report in reports.items():
                    assert report.checked == real[kind].checked
                    if not report.holds:
                        refuted += 1
                        x, y = report.counterexample
                        ids = universe.config_id(x), universe.config_id(y)
                        assert cleared in ids
    assert refuted > 0


def _brute_force(universe, before, after, holds: Callable):
    """Every ``x <= y`` with ``x`` in ``before`` and ``y`` in ``after`` is
    an instance.  Returns the report naming the lowest failing ``(x id,
    y id)``, and the number of failing instances."""
    checked, failing = 0, []
    for x, y in sub_configuration_pairs(universe):
        if x in before and y in after:
            checked += 1
            if not holds(x, y):
                failing.append((universe.config_id(x), universe.config_id(y)))
    if not failing:
        return TransferReport(checked, True), 0
    pair = tuple(map(universe.configuration_of_id, min(failing)))
    return TransferReport(checked, False, pair), len(failing)


def _has_event(x, y, processes, kind: str) -> bool:
    return any(
        getattr(event, kind)
        for process, history in y.suffix_after(x).items()
        if process in processes
        for event in history
    )


def _expected_theorems_5_6(stub, formula, sets):
    universe = stub.universe
    last = sets[-1]
    nested = stub.extension(nested_knowledge(sets, formula))
    not_knows = stub.extension(Not(Knows(last, formula)))
    local = stub.is_valid(Sure(universe.complement(last), formula))

    def chain(order, kind):
        return lambda x, y: chain_in_suffix(y, x, order) is not None and (
            not local or _has_event(x, y, last, kind)
        )

    return {
        "theorem-5": _brute_force(
            universe, not_knows, nested, chain(sets[::-1], "is_receive")
        ),
        "theorem-6": _brute_force(universe, nested, not_knows, chain(sets, "is_send")),
    }


def _expected_corollaries(stub, formula, processes):
    universe = stub.universe
    if not stub.is_valid(Sure(universe.complement(processes), formula)):
        vacuous = (TransferReport(0, True), 0)
        return {"gain-receive": vacuous, "loss-send": vacuous}
    knows = stub.extension(Knows(processes, formula))
    ignorant = frozenset(universe) - knows

    def event(kind):
        return lambda x, y: _has_event(x, y, processes, kind)

    return {
        "gain-receive": _brute_force(universe, ignorant, knows, event("is_receive")),
        "loss-send": _brute_force(universe, knows, ignorant, event("is_send")),
    }


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if not name.endswith("-truncated"))
)
def test_chain_checkers_equal_brute_force(name):
    """Theorems 5 and 6 and Lemma 4's corollaries on the descendant masks
    report what the brute-force walk of every ``x <= y`` pair reports.
    (On the truncated case the masks miss the pinned unreached pairs.)"""
    evaluator = _evaluator(name)
    for formula in _atoms(name):
        for sequence in CASES[name][2]:
            sets = [as_process_set(entry) for entry in sequence]
            expected = _expected_theorems_5_6(evaluator, formula, sets)
            expected.update(_expected_corollaries(evaluator, formula, sets[-1]))
            actual = {
                "theorem-5": check_theorem_5_gain(evaluator, sets, formula),
                "theorem-6": check_theorem_6_loss(evaluator, sets, formula),
                **check_lemma_4_corollaries(evaluator, formula, sets[-1]),
            }
            assert actual == {key: report for key, (report, _) in expected.items()}


def test_theorem_5_trusts_the_descendant_masks(monkeypatch):
    """``x <= y`` comes from the descendant masks, so Theorem 5 slices
    each suffix without re-checking it (no ``is_sub_configuration_of``
    call) and still reports what the brute-force walk reports."""
    from repro.core.configuration import Configuration

    evaluator = _evaluator("star4")
    formula = _root_fact(evaluator.universe)
    sets = [as_process_set(entry) for entry in ["r0", "hub"]]
    expected, _ = _expected_theorems_5_6(evaluator, formula, sets)["theorem-5"]
    calls = []
    original = Configuration.is_sub_configuration_of

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Configuration, "is_sub_configuration_of", counted)
    report = check_theorem_5_gain(evaluator, sets, formula)
    assert calls == []
    assert report == expected
    assert report.checked > 0


@pytest.mark.parametrize("name", ["pingpong", "mutex"])
def test_chain_checkers_report_lowest_counterexample(name):
    """Flip each id of ``¬(Pn knows b)`` (Theorems 5 and 6) and of ``Pn
    knows b`` (Lemma 4's corollaries, ``P = Pn``) in turn.  Every report
    must carry the full instance count and the lowest failing pair, and
    each checker must meet a flip that refutes it at two or more pairs."""
    evaluator = _evaluator(name)
    most: dict[str, int] = {}
    for formula in _atoms(name):
        for sequence in CASES[name][2]:
            sets = [as_process_set(entry) for entry in sequence]
            knows = Knows(sets[-1], formula)
            for flipped in range(len(evaluator.universe)):
                stub = FlippedBitEvaluator(evaluator, Not(knows), flipped)
                expected = _expected_theorems_5_6(stub, formula, sets)
                actual = {
                    "theorem-5": check_theorem_5_gain(stub, sets, formula),
                    "theorem-6": check_theorem_6_loss(stub, sets, formula),
                }
                stub = FlippedBitEvaluator(evaluator, knows, flipped)
                expected.update(_expected_corollaries(stub, formula, sets[-1]))
                actual.update(check_lemma_4_corollaries(stub, formula, sets[-1]))
                for key, (report, failures) in expected.items():
                    assert actual[key] == report, (key, sequence, flipped)
                    most[key] = max(most.get(key, 0), failures)
    assert len(most) == 4 and min(most.values()) >= 2, most

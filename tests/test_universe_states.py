"""The packed frontier's interned per-process states.

Both engines expand rows of :class:`repro.universe.frontier.State`
objects, one per ``(process, history)`` an exploration reaches.  The
interning is held to the arena's history labels, which are computed
independently from the parent and event columns
(:func:`repro.universe.explorer.packed_history_labels`): the states of
each process are exactly its ``[p]``-classes, in class order.  The
transition memos are keyed by canonical events, so protocols whose hooks
build fresh, equal events on every call must still leave one memo entry
per distinct ``(state, event)``, with the universe bit-identical to the
reference BFS.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.configuration import _entry_hash
from repro.universe.explorer import Universe
from repro.universe.frontier import PackedFrontier
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)
from repro.universe.protocol import Protocol
from repro.universe.reference import reference_bfs

from test_universe_arena import REFERENCE_CASES, FreshEventsProtocol

COMPLETE_CASES = [case for case in REFERENCE_CASES if not case[2]]
"""The reference cases that explore their whole universe."""


def fresh(event):
    """An equal event that is not the same object."""
    return pickle.loads(pickle.dumps(event))


class FreshFilterProtocol(FreshEventsProtocol):
    """Fresh local steps, and an enabling filter that returns fresh
    copies of the events it keeps: the hub may not send to ``z`` before
    ``w`` has an event, nor ``w`` receive before ``x`` has one."""

    def filter_enabled_events(self, configuration, events):
        histories = configuration.histories
        return [
            fresh(event)
            for event in events
            if not (
                event.is_send
                and event.message.receiver == "z"
                and not histories.get("w")
            )
            and not (
                event.is_receive and event.process == "w" and not histories.get("x")
            )
        ]


class FreshCustomProtocol(FreshEventsProtocol):
    """Custom system-level enabling whose every event is a fresh copy."""

    def enabled_events(self, configuration):
        return tuple(map(fresh, Protocol.enabled_events(self, configuration)))


class FreshSelectiveProtocol(FreshEventsProtocol):
    """Fresh local steps on the selective-receive path (``can_receive``
    is overridden, though it accepts every message)."""

    def can_receive(self, process, history, message):
        return True


FRESH_CASES = [
    ("local_steps", FreshEventsProtocol),
    ("filter", FreshFilterProtocol),
    ("custom", FreshCustomProtocol),
    ("selective", FreshSelectiveProtocol),
]


@pytest.fixture
def frontiers(monkeypatch):
    """Every ``PackedFrontier`` this interpreter builds while the test
    runs (a shard worker's frontier lives in its own process)."""
    built = []
    init = PackedFrontier.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PackedFrontier, "__init__", capturing)
    return built


def sharded(workers: int, **options) -> ExplorationOptions:
    return ExplorationOptions(sharding=Sharding(workers=workers), **options)


def assert_one_entry_per_transition(frontier: PackedFrontier) -> None:
    """Every memo entry is keyed by its own event's id, that event is the
    step table's canonical object, and no state holds two entries for
    equal events."""
    intern = frontier.protocol.step_table.intern
    for table in frontier.states:
        for state in table.values():
            moves = list(state.transitions.values())
            assert [id(move[3]) for move in moves] == list(state.transitions)
            assert all(intern(move[3]) is move[3] for move in moves)
            assert len({move[3] for move in moves}) == len(moves)
            assert all(move[1].history == state.history + (move[3],) for move in moves)


def assert_states_are_classes(frontier: PackedFrontier, universe: Universe) -> None:
    """The states of each process are its ``[p]``-classes, in class
    order, each contributing its history's rolling entry hash."""
    for position, process in enumerate(frontier.ordered):
        states = list(frontier.states[position].values())
        assert len(states) == universe.partition_table({process}).num_classes
        assert [state.history for state in states] == list(
            universe.class_histories(process)
        )
        assert all(state.position == position for state in states)
        assert states[0].contribution == 0
        assert all(
            state.contribution == _entry_hash(process, state.history)
            for state in states[1:]
        )


class TestInterning:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "label,factory,bounds",
        COMPLETE_CASES,
        ids=[entry[0] for entry in COMPLETE_CASES],
    )
    def test_states_are_the_history_classes(
        self, frontiers, label, factory, bounds, workers
    ):
        """One state per distinct history of each process, made in the
        order the history labels number the ``[p]``-classes, each with
        the rolling entry hash of its history as its contribution."""
        universe = Universe(factory(), options=sharded(workers))
        assert universe.is_complete
        (frontier,) = frontiers
        assert_states_are_classes(frontier, universe)


class TestCanonicalTransitions:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "label,factory", FRESH_CASES, ids=[entry[0] for entry in FRESH_CASES]
    )
    def test_fresh_events_memoise_once(self, frontiers, label, factory, workers):
        universe = Universe(factory(), options=sharded(workers))
        assert reference_bfs(factory()).differences(universe) == []
        (frontier,) = frontiers
        assert_one_entry_per_transition(frontier)
        assert_states_are_classes(frontier, universe)

    @pytest.mark.parametrize(
        "label,factory", FRESH_CASES, ids=[entry[0] for entry in FRESH_CASES]
    )
    def test_capped_exploration(self, frontiers, label, factory):
        """The ``max_events`` cap probes the capped layer with the
        protocol's own enumeration; the transitions made below it are
        canonical all the same."""
        universe = Universe(
            factory(), options=ExplorationOptions(limits=Limits(max_events=3))
        )
        assert reference_bfs(factory(), max_events=3).differences(universe) == []
        (frontier,) = frontiers
        assert_one_entry_per_transition(frontier)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "label,factory", FRESH_CASES, ids=[entry[0] for entry in FRESH_CASES]
    )
    def test_mid_run_resume(self, tmp_path, frontiers, label, factory, workers):
        """A resumed frontier is rebuilt from the checkpoint's unpickled
        vocabulary, which must map onto the canonical events too."""
        checkpoint = CheckpointPolicy(path=tmp_path / "fresh.ckpt")
        limits = Limits(max_configurations=300, on_limit="truncate")
        Universe(
            factory(),
            options=ExplorationOptions(limits=limits, checkpoint=checkpoint),
        )
        frontiers.clear()
        resumed = Universe(factory(), options=sharded(workers, checkpoint=checkpoint))
        assert resumed._checkpoint_session.resumed_from is not None
        assert reference_bfs(factory()).differences(resumed) == []
        (frontier,) = frontiers
        assert_one_entry_per_transition(frontier)

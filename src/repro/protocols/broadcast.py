"""Flooding broadcast: knowledge dissemination along a topology.

A ``root`` process performs an internal ``learn`` event (establishing a
fact local to the root) and then floods a ``fact`` message through an
arbitrary topology; every process forwards the message to every
neighbour it has not already sent to, once it has learnt the fact.

This is the canonical *knowledge gain* workload: process ``v`` knows the
fact exactly when a process chain ``<root … v>`` has carried it there, so
Theorems 1 and 5 have dense non-vacuous instances (experiments E3, E9).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.knowledge.formula import Atom
from repro.universe.protocol import History, Protocol

FACT_TAG = "fact"
LEARN_TAG = "learn"


def line_topology(names: Sequence[ProcessId]) -> dict[ProcessId, tuple[ProcessId, ...]]:
    """A line ``n0 - n1 - … - nk`` as an adjacency map."""
    adjacency: dict[ProcessId, tuple[ProcessId, ...]] = {}
    for index, name in enumerate(names):
        neighbours = []
        if index > 0:
            neighbours.append(names[index - 1])
        if index < len(names) - 1:
            neighbours.append(names[index + 1])
        adjacency[name] = tuple(neighbours)
    return adjacency


def star_topology(
    centre: ProcessId, leaves: Sequence[ProcessId]
) -> dict[ProcessId, tuple[ProcessId, ...]]:
    """A star with ``centre`` connected to every leaf."""
    adjacency: dict[ProcessId, tuple[ProcessId, ...]] = {
        centre: tuple(leaves)
    }
    for leaf in leaves:
        adjacency[leaf] = (centre,)
    return adjacency


def ring_topology(names: Sequence[ProcessId]) -> dict[ProcessId, tuple[ProcessId, ...]]:
    """A ring over the given names."""
    count = len(names)
    return {
        name: (names[(index - 1) % count], names[(index + 1) % count])
        for index, name in enumerate(names)
    }


def tree_topology(
    names: Sequence[ProcessId], branching: int = 2
) -> dict[ProcessId, tuple[ProcessId, ...]]:
    """A complete ``branching``-ary tree over ``names`` in level order.

    Node ``i``'s children are nodes ``branching*i + 1 … branching*i +
    branching`` (the heap layout); ``names[0]`` is the root.  The depth
    scale targets of the exploration benchmarks are built from this.
    """
    if branching < 1:
        raise ValueError("branching must be at least 1")
    adjacency: dict[ProcessId, tuple[ProcessId, ...]] = {}
    count = len(names)
    for index, name in enumerate(names):
        neighbours = []
        if index > 0:
            neighbours.append(names[(index - 1) // branching])
        first_child = branching * index + 1
        for child in range(first_child, min(first_child + branching, count)):
            neighbours.append(names[child])
        adjacency[name] = tuple(neighbours)
    return adjacency


class BroadcastProtocol(Protocol):
    """Flooding of one fact from ``root`` over ``topology``."""

    def __init__(
        self,
        topology: Mapping[ProcessId, Sequence[ProcessId]],
        root: ProcessId,
    ) -> None:
        super().__init__(topology.keys())
        if root not in topology:
            raise ValueError(f"root {root!r} is not in the topology")
        self.topology = {
            process: tuple(neighbours) for process, neighbours in topology.items()
        }
        self.root = root

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def knows_fact(self, process: ProcessId, history: History) -> bool:
        """Has this process learnt the fact (locally or by message)?"""
        for event in history:
            if isinstance(event, InternalEvent) and event.tag == LEARN_TAG:
                return True
            if isinstance(event, ReceiveEvent) and event.message.tag == FACT_TAG:
                return True
        return False

    def _already_sent_to(self, history: History) -> frozenset[ProcessId]:
        return frozenset(
            event.message.receiver
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == FACT_TAG
        )

    def _heard_from(self, history: History) -> frozenset[ProcessId]:
        """Neighbours this process has already received the fact from —
        no need to echo it back to them."""
        return frozenset(
            event.message.sender
            for event in history
            if isinstance(event, ReceiveEvent) and event.message.tag == FACT_TAG
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if process == self.root and not self.knows_fact(process, history):
            yield self.next_internal(history, process, LEARN_TAG)
            return
        if not self.knows_fact(process, history):
            return
        skip = self._already_sent_to(history) | self._heard_from(history)
        for neighbour in self.topology[process]:
            if neighbour not in skip:
                message = self.next_message(history, process, neighbour, FACT_TAG)
                yield self.send_of(message)

    def step_shape(self, process: ProcessId, history: History) -> object:
        """Flooding steps depend only on (knows fact, blocked neighbours).

        Every FACT message carries seq 0 (a neighbour is flooded at most
        once) and the learn event carries seq 0 (it only fires before the
        fact is known), so histories with equal shapes yield equal event
        tuples — one history scan instead of the three in ``local_steps``
        plus event construction.
        """
        knows = False
        blocked: list[ProcessId] = []
        for event in history:
            if isinstance(event, ReceiveEvent):
                if event.message.tag == FACT_TAG:
                    knows = True
                    blocked.append(event.message.sender)
            elif isinstance(event, SendEvent):
                if event.message.tag == FACT_TAG:
                    blocked.append(event.message.receiver)
            elif event.tag == LEARN_TAG:
                knows = True
        return (knows, frozenset(blocked))


def fact_known_atom(protocol: BroadcastProtocol, process: ProcessId) -> Atom:
    """``process has learnt the fact`` as a knowledge atom (local to the
    process)."""

    def predicate(history: History) -> bool:
        return protocol.knows_fact(process, history)

    return Atom.of_history(f"{process} knows fact", process, predicate)


def fact_established_atom(protocol: BroadcastProtocol) -> Atom:
    """``the root has performed its learn event`` — local to the root."""
    return fact_known_atom(protocol, protocol.root)

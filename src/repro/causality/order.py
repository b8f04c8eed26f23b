"""The happened-before relation of Lamport, as used in section 3.1.

The paper defines ``e -> e'`` (in a computation ``z``) as the least
reflexive-transitive relation containing (1) send-to-corresponding-receive
pairs and (2) process order.  :class:`CausalOrder` materialises this
relation for any *segment*: a map from processes to event sequences.  A
segment may be a whole computation, a configuration, or a suffix
``(x, z)`` — restriction to a suffix is sound because no event of a suffix
can happen before an event of its prefix, so causal paths between suffix
events never leave the suffix.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.events import Event, Message, ReceiveEvent, SendEvent
from repro.core.process import ProcessId, ProcessSetLike, as_process_set

SegmentLike = Mapping[ProcessId, Sequence[Event]]
"""Any per-process map of event sequences."""


def segment_of(
    source: Computation | Configuration | SegmentLike | CausalOrder,
) -> dict[ProcessId, tuple[Event, ...]]:
    """Normalise a computation, configuration, raw map or causal order
    into a segment."""
    if isinstance(source, CausalOrder):
        return dict(source._segment)
    if isinstance(source, Computation):
        return {
            process: source.projection(process) for process in source.processes
        }
    if isinstance(source, Configuration):
        return dict(source.histories)
    segment: dict[ProcessId, tuple[Event, ...]] = {}
    for process, history in source.items():
        events = tuple(history)
        if events:
            segment[process] = events
    return segment


class CausalOrder:
    """Happened-before over the events of one segment.

    The relation is *reflexive* (``e -> e`` for every event), matching the
    paper's definition; :meth:`strictly_before` gives the irreflexive
    variant when needed.
    """

    def __init__(self, source: Computation | Configuration | SegmentLike) -> None:
        self._segment = segment_of(source)
        self._events: list[Event] = []
        self._successors: dict[Event, list[Event]] = {}
        self._predecessors: dict[Event, list[Event]] = {}
        self._build()

    def _build(self) -> None:
        sends: dict[Message, Event] = {}
        receives: dict[Message, Event] = {}
        for history in self._segment.values():
            for event in history:
                self._events.append(event)
                self._successors[event] = []
                self._predecessors[event] = []
                if isinstance(event, SendEvent):
                    sends[event.message] = event
                elif isinstance(event, ReceiveEvent):
                    receives[event.message] = event
        for history in self._segment.values():
            for earlier, later in zip(history, history[1:]):
                self._add_edge(earlier, later)
        for message, recv_event in receives.items():
            send_event = sends.get(message)
            if send_event is not None:
                self._add_edge(send_event, recv_event)

    def _add_edge(self, earlier: Event, later: Event) -> None:
        self._successors[earlier].append(later)
        self._predecessors[later].append(earlier)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[Event, ...]:
        """All events of the segment (grouped by process)."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, event: Event) -> bool:
        return event in self._successors

    def events_on(self, processes: ProcessSetLike) -> tuple[Event, ...]:
        """The segment's events on the given process set."""
        p_set = as_process_set(processes)
        return tuple(event for event in self._events if event.process in p_set)

    def immediate_successors(self, event: Event) -> tuple[Event, ...]:
        """Direct causal successors (next on process, or the receive of a
        message this event sends)."""
        return tuple(self._successors[event])

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def forward_closure(self, sources: Iterable[Event]) -> frozenset[Event]:
        """All events ``d`` with ``e -> d`` for some source ``e``
        (including the sources themselves: ``->`` is reflexive)."""
        return self._closure(sources, self._successors)

    def backward_closure(self, sources: Iterable[Event]) -> frozenset[Event]:
        """All events ``d`` with ``d -> e`` for some source ``e``."""
        return self._closure(sources, self._predecessors)

    def _closure(
        self,
        sources: Iterable[Event],
        adjacency: dict[Event, list[Event]],
    ) -> frozenset[Event]:
        visited: set[Event] = set()
        queue: deque[Event] = deque()
        for event in sources:
            if event in adjacency and event not in visited:
                visited.add(event)
                queue.append(event)
        while queue:
            current = queue.popleft()
            for neighbour in adjacency[current]:
                if neighbour not in visited:
                    visited.add(neighbour)
                    queue.append(neighbour)
        return frozenset(visited)

    # ------------------------------------------------------------------
    # Vector stamps (precomputed happened-before)
    # ------------------------------------------------------------------
    @cached_property
    def _stamp_data(
        self,
    ) -> tuple[dict[ProcessId, int], dict[Event, tuple[int, ...]]] | None:
        """Per-event vector stamps, or ``None`` when no linearization exists.

        ``stamps[e][i]`` counts the events on process ``i`` in the causal
        past of ``e`` (inclusive), so ``e -> d`` reduces to one integer
        comparison: ``stamps[d][i_e] >= stamps[e][i_e]`` with ``i_e`` the
        index of ``e``'s own process.  Computed once per segment in a
        single topological pass; cyclic segments (or segments repeating an
        event) return ``None`` and queries fall back to the BFS oracle.
        """
        order = self.topological_order
        if len(order) != len(self._events):
            return None
        index = {process: i for i, process in enumerate(self._segment)}
        width = len(index)
        stamps: dict[Event, tuple[int, ...]] = {}
        for event in order:
            predecessors = self._predecessors[event]
            if not predecessors:
                vector = [0] * width
            elif len(predecessors) == 1:
                vector = list(stamps[predecessors[0]])
            else:
                vector = [
                    max(components)
                    for components in zip(
                        *(stamps[predecessor] for predecessor in predecessors)
                    )
                ]
            vector[index[event.process]] += 1
            stamps[event] = tuple(vector)
        return index, stamps

    def vector_stamp(self, event: Event) -> dict[ProcessId, int] | None:
        """The event's vector timestamp (per-process causal-past counts,
        inclusive), or ``None`` when the segment has no linearization."""
        data = self._stamp_data
        if data is None or event not in self._successors:
            return None
        index, stamps = data
        stamp = stamps[event]
        return {process: stamp[i] for process, i in index.items()}

    def happened_before(self, earlier: Event, later: Event) -> bool:
        """The paper's ``e -> e'`` (reflexive).

        Answered in O(1) from precomputed vector stamps; segments without
        a linearization fall back to :meth:`happened_before_bfs`.
        """
        if earlier not in self._successors or later not in self._successors:
            return False
        if earlier == later:
            return True
        data = self._stamp_data
        if data is None:
            return later in self.forward_closure([earlier])
        index, stamps = data
        own = index[earlier.process]
        return stamps[later][own] >= stamps[earlier][own]

    def happened_before_bfs(self, earlier: Event, later: Event) -> bool:
        """Reference BFS implementation of ``e -> e'``.

        Kept as the independently-computed oracle the vector-stamp fast
        path is cross-checked against (tests and the causality
        self-check benchmark).
        """
        if earlier not in self._successors or later not in self._successors:
            return False
        if earlier == later:
            return True
        return later in self.forward_closure([earlier])

    def strictly_before(self, earlier: Event, later: Event) -> bool:
        """Irreflexive happened-before."""
        return earlier != later and self.happened_before(earlier, later)

    def concurrent(self, first: Event, second: Event) -> bool:
        """Neither event happens before the other (and they differ)."""
        if first == second:
            return False
        return not self.happened_before(first, second) and not self.happened_before(
            second, first
        )

    def causal_past(self, event: Event) -> frozenset[Event]:
        """All events ``d`` with ``d -> event``."""
        return self.backward_closure([event])

    def causal_future(self, event: Event) -> frozenset[Event]:
        """All events ``d`` with ``event -> d``."""
        return self.forward_closure([event])

    @cached_property
    def topological_order(self) -> tuple[Event, ...]:
        """A deterministic topological order of the segment's events."""
        in_degree = {event: len(self._predecessors[event]) for event in self._events}
        ready = sorted(
            (event for event, degree in in_degree.items() if degree == 0), key=str
        )
        order: list[Event] = []
        queue: deque[Event] = deque(ready)
        while queue:
            current = queue.popleft()
            order.append(current)
            for neighbour in self._successors[current]:
                in_degree[neighbour] -= 1
                if in_degree[neighbour] == 0:
                    queue.append(neighbour)
        return tuple(order)

    def is_acyclic(self) -> bool:
        """True iff the segment's causal order has a linearization."""
        return len(self.topological_order) == len(self._events)


def happened_before(
    source: Computation | Configuration | SegmentLike, earlier: Event, later: Event
) -> bool:
    """Convenience wrapper: ``earlier -> later`` within ``source``."""
    return CausalOrder(source).happened_before(earlier, later)

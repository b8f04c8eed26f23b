"""Process chains (paper, section 3.1).

A computation (or any segment) *has a process chain* ``<P0 P1 ... Pn>``
when there exist events ``e0 -> e1 -> ... -> en`` — not necessarily
distinct — with ``ei`` on ``Pi``.  Chains are the operational backbone the
paper replaces with isomorphism; Theorem 1 links the two.

Every chain question is answered by one algorithm, :func:`chain_ranks`:
the *chain rank* of each event (the longest prefix of ``<P0 … Pn>``
matched by a chain ending at it), computed in one topological pass over
the segment's process order and in-segment send→receive edges, with no
:class:`~repro.causality.order.CausalOrder`.  :func:`find_process_chain`
reads a witness off the ranks by walking back through each event's rank
source.  :func:`has_process_chain_naive`, a direct search over event
tuples on :class:`CausalOrder`'s closures, is the independent oracle the
tests hold it to.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.causality.order import CausalOrder, SegmentLike, segment_of
from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.events import Event, ReceiveEvent, SendEvent
from repro.core.process import ProcessId, ProcessSetLike, as_process_set

ChainSpec = Sequence[ProcessSetLike]
"""A chain specification: a sequence of process sets ``<P0 P1 ... Pn>``."""

ChainSource = Computation | Configuration | SegmentLike | CausalOrder
"""Anything :func:`~repro.causality.order.segment_of` projects to a segment."""


def _normalise_chain(chain: ChainSpec) -> list[frozenset[str]]:
    sets = [as_process_set(entry) for entry in chain]
    if not sets:
        raise ValueError("a process chain needs at least one process set")
    return sets


Slot = tuple[ProcessId, int]  # an event's process and its position there


def _ranked(source: ChainSource, sets: list[frozenset[str]]) -> tuple[
    dict[ProcessId, tuple[Event, ...]], dict[ProcessId, list[int]], dict[Slot, Slot]
]:
    """The segment, its chain ranks by slot (``ranks[p][i]`` is the rank
    of ``segment[p][i]``), and ``via``: for each receive whose rank comes
    from its send rather than its process predecessor, the send's slot.

    Events are ranked process by process on slots, not event hashes; a
    receive whose send is in the segment but unranked parks its process
    until the send is ranked.
    """
    segment = segment_of(source)
    sends = {
        event.message: (process, position)
        for process, history in segment.items()
        for position, event in enumerate(history)
        if isinstance(event, SendEvent)
    }
    count = len(sets)
    ranks: dict[ProcessId, list[int]] = {process: [] for process in segment}
    via: dict[Slot, Slot] = {}
    parked: dict[Slot, ProcessId] = {}  # unranked send -> waiting process
    ready = list(segment)
    while ready:
        process = ready.pop()
        history, own = segment[process], ranks[process]
        for position in range(len(own), len(history)):
            event = history[position]
            best = own[-1] if position else 0
            if isinstance(event, ReceiveEvent) and event.message in sends:
                sender, index = send = sends[event.message]
                if index >= len(ranks[sender]):
                    parked[send] = process
                    break
                if ranks[sender][index] > best:
                    best = ranks[sender][index]
                    via[process, position] = send
            while best < count and event.process in sets[best]:
                best += 1
            own.append(best)
            if parked and (process, position) in parked:
                ready.append(parked.pop((process, position)))
    if any(len(ranks[process]) < len(events) for process, events in segment.items()):
        raise ValueError("the segment has no linearization")
    return segment, ranks, via


def chain_ranks(source: ChainSource, sets: ChainSpec) -> dict[Event, int]:
    """The chain rank ``g(e)`` of every event of the segment.

    ``g(e)`` is the largest ``i`` such that some chain of events
    ``e1 -> … -> e`` (ending at ``e``, events not necessarily distinct)
    matches the set-sequence prefix ``<P1 … Pi>``: the maximum rank of
    ``e``'s immediate predecessors (its process predecessor and, for a
    receive, its send when that is in the segment), then further sets
    "consumed" while ``e``'s process belongs to the next one (an event
    may play several chain roles because ``->`` is reflexive).  Ranks are
    monotone along ``->``.

    A chain ``<P1 … Pn>`` exists in the segment iff some event has rank
    ``n``.  Raises :class:`ValueError` on a segment with no linearization.
    """
    segment, ranks, _ = _ranked(source, [as_process_set(entry) for entry in sets])
    return {
        event: rank
        for process, history in segment.items()
        for event, rank in zip(history, ranks[process])
    }


def find_process_chain(source: ChainSource, chain: ChainSpec) -> list[Event] | None:
    """Return witness events ``e0 -> e1 -> ... -> en`` or ``None``.

    The witness satisfies ``ei`` on ``chain[i]``; consecutive events may be
    equal (the paper allows "not necessarily distinct" events because
    ``->`` is reflexive).  It ends at the least full-rank event by
    ``str`` and walks back through rank sources, so it does not depend
    on the segment's process order.
    """
    sets = _normalise_chain(chain)
    segment, ranks, via = _ranked(source, sets)
    needed = len(sets)
    ends = [
        (process, position)
        for process, own in ranks.items()
        for position, rank in enumerate(own)
        if rank == needed
    ]
    if not ends:
        return None
    witness: list[Event] = []
    current = min(ends, key=lambda end: str(segment[end[0]][end[1]]))
    while needed:
        process, position = current
        current = via.get(current) or ((process, position - 1) if position else None)
        inherited = ranks[current[0]][current[1]] if current else 0
        witness.extend([segment[process][position]] * (needed - inherited))
        needed = min(needed, inherited)
    witness.reverse()
    return witness


def has_process_chain(source: ChainSource, chain: ChainSpec) -> bool:
    """True iff the segment has a process chain ``<P0 P1 ... Pn>`` (ranks
    are monotone along process order, so only last events are read)."""
    sets = _normalise_chain(chain)
    _, ranks, _ = _ranked(source, sets)
    return any(own and own[-1] == len(sets) for own in ranks.values())


def has_process_chain_naive(source: ChainSource, chain: ChainSpec) -> bool:
    """Oracle implementation by direct search over event tuples.

    Exponential in the chain length; use only on small segments (tests).
    """
    order = source if isinstance(source, CausalOrder) else CausalOrder(source)
    sets = _normalise_chain(chain)

    def extend(event: Event, remaining: list[frozenset[str]]) -> bool:
        if not remaining:
            return True
        future = order.forward_closure([event])
        for candidate in order.events_on(remaining[0]):
            if candidate in future and extend(candidate, remaining[1:]):
                return True
        return False

    for start in order.events_on(sets[0]):
        if extend(start, sets[1:]):
            return True
    return False


def chain_in_suffix(
    whole: Computation | Configuration,
    prefix: Computation | Configuration,
    chain: ChainSpec,
) -> list[Event] | None:
    """Witness for a chain in the suffix ``(prefix, whole)``, or ``None``.

    This is the form used by Theorems 1, 5 and 6: chains are sought among
    the events added after ``prefix``.
    """
    if isinstance(whole, Computation) and isinstance(prefix, Computation):
        return find_process_chain(Computation(whole.suffix_after(prefix)), chain)
    if isinstance(whole, Configuration) and isinstance(prefix, Configuration):
        return find_process_chain(whole.suffix_after(prefix), chain)
    raise TypeError("whole and prefix must both be computations or configurations")

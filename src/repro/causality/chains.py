"""Process chains (paper, section 3.1).

A computation (or any segment) *has a process chain* ``<P0 P1 ... Pn>``
when there exist events ``e0 -> e1 -> ... -> en`` — not necessarily
distinct — with ``ei`` on ``Pi``.  Chains are the operational backbone the
paper replaces with isomorphism; Theorem 1 links the two.

Two implementations are provided:

* :func:`find_process_chain` — layered forward closure over the causal
  DAG, ``O(n * (V + E))`` for a chain of ``n`` sets; this is the
  production implementation.
* :func:`has_process_chain_naive` — direct search over event tuples,
  exponential in the chain length; kept as an oracle for differential
  testing.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.causality.order import CausalOrder, SegmentLike, segment_of
from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.events import Event
from repro.core.process import ProcessSetLike, as_process_set

ChainSpec = Sequence[ProcessSetLike]
"""A chain specification: a sequence of process sets ``<P0 P1 ... Pn>``."""


def _normalise_chain(chain: ChainSpec) -> list[frozenset[str]]:
    sets = [as_process_set(entry) for entry in chain]
    if not sets:
        raise ValueError("a process chain needs at least one process set")
    return sets


def find_process_chain(
    source: Computation | Configuration | SegmentLike | CausalOrder,
    chain: ChainSpec,
) -> list[Event] | None:
    """Return witness events ``e0 -> e1 -> ... -> en`` or ``None``.

    The witness satisfies ``ei`` on ``chain[i]``; consecutive events may be
    equal (the paper allows "not necessarily distinct" events because
    ``->`` is reflexive).
    """
    order = source if isinstance(source, CausalOrder) else CausalOrder(source)
    sets = _normalise_chain(chain)

    # layer[i] holds, for each event e on sets[i], a predecessor pointer to
    # the witness event of sets[i-1] from which e is reachable.
    first_layer = {event: None for event in order.events_on(sets[0])}
    layers: list[dict[Event, Event | None]] = [first_layer]
    for p_set in sets[1:]:
        previous = layers[-1]
        if not previous:
            return None
        reachable = order.forward_closure(previous.keys())
        layer: dict[Event, Event | None] = {}
        for event in order.events_on(p_set):
            if event in reachable:
                layer[event] = _witness_source(order, previous, event)
        layers.append(layer)
    if not layers[-1]:
        return None

    # Walk the predecessor pointers backwards to produce the witness.
    witness: list[Event] = []
    current = next(iter(sorted(layers[-1], key=str)))
    for layer in reversed(layers):
        witness.append(current)
        pointer = layer[current]
        if pointer is not None:
            current = pointer
    witness.reverse()
    return witness


def _witness_source(
    order: CausalOrder, previous: dict[Event, Event | None], target: Event
) -> Event:
    """Pick one event of ``previous`` from which ``target`` is reachable."""
    past = order.backward_closure([target])
    for event in previous:
        if event in past:
            return event
    raise AssertionError("target was reported reachable but has no source")


def has_process_chain(
    source: Computation | Configuration | SegmentLike | CausalOrder,
    chain: ChainSpec,
) -> bool:
    """True iff the segment has a process chain ``<P0 P1 ... Pn>``."""
    return find_process_chain(source, chain) is not None


def has_process_chain_naive(
    source: Computation | Configuration | SegmentLike | CausalOrder,
    chain: ChainSpec,
) -> bool:
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
        suffix_events = whole.suffix_after(prefix)
        segment: dict[str, list[Event]] = {}
        for event in suffix_events:
            segment.setdefault(event.process, []).append(event)
        return find_process_chain(segment_of(segment), chain)
    if isinstance(whole, Configuration) and isinstance(prefix, Configuration):
        return find_process_chain(whole.suffix_after(prefix), chain)
    raise TypeError("whole and prefix must both be computations or configurations")

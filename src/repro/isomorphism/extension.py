"""Event semantics: the Principle of Computation Extension and Theorem 3.

The Principle of Computation Extension (paper, §3.4) relates what a
process may do in isomorphic computations:

1. if ``e`` is an internal or send event on ``P``, ``x [P] y`` and
   ``(x;e)`` is a computation, then ``(y;e)`` is a computation, and
   ``(x;e) [P] (y;e)``;
2. if ``e`` is an internal or receive event on ``P`` and ``(x;e) [P] y``,
   then ``(y - e)`` is a computation, and ``x [P] (y - e)``.

Theorem 3 casts the three event types in terms of the composed relation
``[P P̄]``: a receive can only *shrink*, a send can only *grow*, and an
internal event preserves, the set of computations related to the current
one by ``[P P̄]`` — the formal version of "reception rules out
computations that do not include the corresponding send".

All statements here are checked exhaustively over explored universes,
on :func:`edges_on` and partition tables (object oracles:
:mod:`repro.isomorphism.reference`); the checkers return the number of
instances verified so callers can assert non-vacuity.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable

from repro.core.configuration import Configuration
from repro.core.events import Event
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.isomorphism.relation import composed_class, composed_images
from repro.universe.explorer import Universe


def edges_on(
    universe: Universe, process: ProcessId
) -> list[tuple[Event, list[tuple[int, int]]]]:
    """Every stored transition ``x -> (x;e)`` with ``e`` on ``process``,
    grouped by ``e``: ``(e, [(x id, (x;e) id), …])`` pairs, each list
    ascending by ``x`` id.

    One scan of the CSR successor arrays on dense ids: a transition
    appends one event to one process, so it is on ``p`` iff its ends lie
    in different ``[p]``-classes, and ``e`` is the last event of the
    history shared by the larger end's class
    (:meth:`~repro.universe.explorer.Universe.class_histories`).
    """
    class_of = universe.partition_table(frozenset((process,))).class_of
    offsets = universe._succ_offsets
    succ_ids = universe._succ_ids
    edges_into: dict[int, list[tuple[int, int]]] = {}
    for x_id in range(len(universe)):
        x_class = class_of[x_id]
        for y_id in succ_ids[offsets[x_id] : offsets[x_id + 1]]:
            y_class = class_of[y_id]
            if y_class != x_class:
                edges = edges_into.get(y_class)
                if edges is None:
                    edges = edges_into[y_class] = []
                edges.append((x_id, y_id))
    histories = universe.class_histories(process)
    return [
        (histories[y_class][-1], edges)
        for y_class, edges in sorted(edges_into.items())
    ]


def class_pairs(universe: Universe, p_set: frozenset) -> set[tuple[int, int]]:
    """The ``([P]-class, [P̄]-class)`` pair of every configuration.  A
    configuration is fixed by its histories on ``P`` and ``P̄``, so the one
    taking ``P``'s from ``u`` and ``P̄``'s from ``v`` is in the universe iff
    ``(P-class of u, P̄-class of v)`` is here."""
    p_of = universe.partition_table(p_set).class_of
    return set(zip(p_of, universe.partition_table(universe.complement(p_set)).class_of))


def check_extension_principle_part1(universe: Universe) -> int:
    """Verify part 1 on every applicable instance; return the count.

    Instances: configurations ``x``, events ``e`` (internal or send, on
    process ``p``) with ``(x;e)`` in the universe, and every ``y`` with
    ``x [p] y`` — then ``(y;e)`` must be in the universe, and
    ``(x;e) [p] (y;e)``, which holds by construction.  So every member
    of ``x``'s ``[p]``-class must be the source of an ``e``-edge.

    Raises :class:`AssertionError` with a counterexample on failure.
    """
    return _rule_instances(
        universe, ("send", "internal"), 0, lambda e: frozenset((e.process,)),
        "extension principle part 1 fails: (y;e) missing for x={x!r}, y={y!r}, "
        "e={e}",
    )


def check_extension_principle_part2(universe: Universe) -> int:
    """Verify part 2 on every applicable instance; return the count.

    Instances: ``(x;e)`` in the universe with ``e`` internal or receive on
    ``p``, and every ``y`` with ``(x;e) [p] y`` — then ``y`` with ``e``
    deleted must be in the universe, and ``x [p] (y - e)``, which holds
    by construction.  So every member of ``(x;e)``'s ``[p]``-class must
    be the target of an ``e``-edge, whose source is ``(y - e)``.
    """
    return _rule_instances(
        universe, ("receive", "internal"), 1, lambda e: frozenset((e.process,)),
        "extension principle part 2 fails: (y - e) missing for y={y!r}, e={e}",
    )


def check_extension_corollary(universe: Universe) -> int:
    """Corollary: for a receive ``e`` on ``P`` whose send is on ``Q``,
    ``x [P ∪ Q] y`` and ``(x;e)`` a computation imply ``(y;e)`` is too.

    Uses singleton ``P`` and ``Q`` (receiver and sender): every member of
    ``x``'s ``[{receiver, sender}]``-class must be the source of an
    ``e``-edge.  Returns the number of instances checked.
    """
    return _rule_instances(
        universe, ("receive",), 0,
        lambda e: frozenset((e.process, e.message.sender)),
        "extension corollary fails: (y;e) missing for y={y!r}, e={e}",
    )


def _rule_instances(
    universe: Universe,
    kinds: tuple[str, ...],
    end: int,
    class_set: Callable[[Event], frozenset],
    failure: str,
) -> int:
    """Count an extension rule's instances; raise on its first failure.

    An instance is an edge ``x -> (x;e)`` of :func:`edges_on`, ``e`` of one
    of ``kinds``, and a member ``y`` of the ``[class_set(e)]``-class of the
    edge's ``end`` (0: ``x``, 1: ``(x;e)``), which must be that end of an
    ``e``-edge too.  Such an edge lands in the same :func:`edges_on` group,
    so each group is checked by counting its ends per class.  A member
    that is not an end is a miss; on a truncated universe its counterpart
    (``y`` with ``p``'s history from the edge's other end) may be present
    with its edge unstored, which :func:`class_pairs` decides.  The
    absent one with the lowest ``(x id, (x;e) id, y id)`` raises
    ``failure``, formatted on its ``x``, ``y`` and ``e``.
    """
    checked = 0
    misses = []
    for process in sorted(universe.processes):
        for event, edges in edges_on(universe, process):
            if event.kind.value not in kinds:
                continue
            table = universe.partition_table(class_set(event))
            class_of = table.class_of
            hits = Counter(class_of[edge[end]] for edge in edges)
            for edge in edges:
                members = table.members[class_of[edge[end]]]
                checked += len(members)
                if hits[class_of[edge[end]]] < len(members):
                    ends = {other[end] for other in edges}
                    misses.extend(
                        (edge, y_id, event) for y_id in members if y_id not in ends
                    )
    pairs: dict[frozenset, set[tuple[int, int]]] = {}
    for edge, y_id, event in sorted(misses, key=lambda miss: (*miss[0], miss[1])):
        p_set = frozenset((event.process,))
        if p_set not in pairs:
            pairs[p_set] = class_pairs(universe, p_set)
        counterpart = (
            universe.partition_table(p_set).class_of[edge[1 - end]],
            universe.partition_table(universe.complement(p_set)).class_of[y_id],
        )
        if counterpart not in pairs[p_set]:
            x = universe.configuration_of_id(edge[0])
            y = universe.configuration_of_id(y_id)
            raise AssertionError(failure.format(x=x, y=y, e=event))
    return checked


def related_set(
    universe: Universe, configuration: Configuration, processes: ProcessSetLike
) -> frozenset[Configuration]:
    """The set ``{z : configuration [P P̄] z}`` of Theorem 3's statement."""
    p_set = as_process_set(processes)
    complement = universe.complement(p_set)
    return frozenset(composed_class(universe, configuration, [p_set, complement]))


def check_theorem_3(
    universe: Universe, process_sets: Iterable[ProcessSetLike] | None = None
) -> dict[str, int]:
    """Exhaustively verify Theorem 3's three cases over a universe.

    For each transition ``x -> (x;e)`` and each candidate set ``P``
    containing the event's process:

    * receive: ``{z : (x;e) [P P̄] z}  ⊆  {z : x [P P̄] z}`` (shrinks);
    * send:    ``{z : x [P P̄] z}  ⊆  {z : (x;e) [P P̄] z}`` (grows);
    * internal: the two sets are equal.

    On dense ids: one image mask per ``[P]``-class (:func:`composed_images`),
    and the transitions from :func:`edges_on`.
    Returns counts per case.  Raises :class:`AssertionError` with a
    counterexample on failure.
    """
    if process_sets is None:
        candidate_sets = [frozenset((process,)) for process in sorted(universe.processes)]
    else:
        candidate_sets = [as_process_set(entry) for entry in process_sets]
    images = {
        p_set: (
            universe.partition_table(p_set).class_of,
            composed_images(universe, [p_set, universe.complement(p_set)]),
        )
        for p_set in candidate_sets
    }
    counts = {"receive": 0, "send": 0, "internal": 0}
    for process in sorted(set().union(*candidate_sets)):
        pipelines = [images[p_set] for p_set in candidate_sets if process in p_set]
        for event, edges in edges_on(universe, process):
            kind = event.kind.value
            for x_id, y_id in edges:
                for class_of, masks in pipelines:
                    before = masks[class_of[x_id]]
                    after = masks[class_of[y_id]]
                    if kind == "receive":
                        holds = after & before == after
                    elif kind == "send":
                        holds = before & after == before
                    else:
                        holds = before == after
                    if not holds:
                        x = universe.configuration_of_id(x_id)
                        raise AssertionError(
                            f"Theorem 3 ({kind}) fails at x={x!r}, e={event}"
                        )
            counts[kind] += len(edges) * len(pipelines)
    return counts

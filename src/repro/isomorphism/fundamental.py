"""Theorem 1: the Fundamental Theorem of Process Chains (paper, §3.2).

    Let ``z`` be a computation and ``x`` a prefix of ``z``; let
    ``P1, …, Pn`` (n >= 1) be sets of processes.  Then

        ``x [P1 P2 … Pn] z``   or   there is a process chain
        ``<P1 P2 … Pn>`` in ``(x, z)``.

(The disjunction is inclusive.)  This is the bridge between the paper's
nonoperational notion (isomorphism) and the operational one (chains):
if no information flowed along a ``P1 → P2 → … → Pn`` chain in the
suffix, the suffix can be rearranged into intermediate computations
witnessing the composed isomorphism.

Its per-instance oracle is
:func:`repro.isomorphism.reference.theorem_1_holds`.  Beside the
exhaustive checker, :func:`composition_witness_by_chains`
*constructs* the intermediate computations directly from the causal
structure — the constructive content of the theorem's proof — via the
*chain rank* of each suffix event: the length of the longest prefix of
``<P1 … Pn>`` matched by a chain ending at that event.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.causality.chains import find_process_chain
from repro.causality.order import CausalOrder
from repro.core.configuration import Configuration
from repro.core.events import Event
from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.relation import composed_class_mask
from repro.universe.explorer import Universe, iter_bit_ids


def chain_ranks(
    order: CausalOrder, sets: Sequence[ProcessSetLike]
) -> dict[Event, int]:
    """The chain rank ``g(e)`` of every event of the segment.

    ``g(e)`` is the largest ``i`` such that some chain of events
    ``e1 -> … -> e`` (ending at ``e``, events not necessarily distinct)
    matches the set-sequence prefix ``<P1 … Pi>``.  Computed by dynamic
    programming over a topological order: take the maximum rank of the
    immediate predecessors, then repeatedly "consume" further sets while
    the event's process belongs to the next one (an event may play several
    chain roles because ``->`` is reflexive).

    A chain ``<P1 … Pn>`` exists in the segment iff some event has rank
    ``n``.
    """
    normalised = [as_process_set(entry) for entry in sets]
    ranks: dict[Event, int] = {}
    for event in order.topological_order:
        best = 0
        for predecessor in order.immediate_predecessors(event):
            best = max(best, ranks[predecessor])
        while best < len(normalised) and event.process in normalised[best]:
            best += 1
        ranks[event] = best
    return ranks


def check_theorem_1(
    universe: Universe,
    set_sequences: Sequence[Sequence[ProcessSetLike]],
) -> int:
    """Verify Theorem 1 for every prefix pair and every given sequence.

    Returns the number of instances checked; raises
    :class:`AssertionError` naming the failing ``(x, z)`` with the lowest
    ``(x id, z id)``.  ``x <= z`` is read off
    :meth:`~repro.universe.explorer.Universe.descendant_masks`, and a chain
    is searched for only at the ``z`` outside ``x``'s composed image.  On
    a truncated universe both are taken within the bound: sound
    under-approximations, as in
    :func:`~repro.isomorphism.relation.composed_isomorphic`.
    """
    checked = 0
    failures = []
    for x_id, descendants in universe.descendant_masks(universe.full_mask):
        checked += descendants.bit_count() * len(set_sequences)
        x = universe.configuration_of_id(x_id)
        for index, sets in enumerate(set_sequences):
            image = composed_class_mask(universe, 1 << x_id, sets)
            for z_id in iter_bit_ids(descendants & ~image):
                z = universe.configuration_of_id(z_id)
                if find_process_chain(z.suffix_after(x), sets) is None:
                    failures.append((x_id, z_id, index))
                    break
    if failures:
        x_id, z_id, index = min(failures)
        x, z = map(universe.configuration_of_id, (x_id, z_id))
        raise AssertionError(
            "Theorem 1 fails: no chain "
            f"{[sorted(as_process_set(s)) for s in set_sequences[index]]} in "
            f"suffix and no composed isomorphism, for x={x!r} (id {x_id}), "
            f"z={z!r} (id {z_id})"
        )
    return checked


def composition_witness_by_chains(
    x: Configuration,
    z: Configuration,
    sets: Sequence[ProcessSetLike],
) -> list[Configuration] | None:
    """Construct intermediates ``x = y0 [P1] y1 … [Pn] yn = z`` from the
    causal structure, or return ``None`` when a chain ``<P1 … Pn>`` exists
    in the suffix (in which case Theorem 1 promises nothing).

    Construction: with ``g`` the chain rank, let ``yi`` extend ``x`` by the
    suffix events of rank ``< i``.  Each ``yi`` is causally downward closed
    (ranks are monotone along ``->``), the step from ``yi`` to ``yi+1``
    adds only rank-``i`` events, and a rank-``i`` event is never on
    ``Pi+1`` (it would have consumed that set too) — so
    ``yi [Pi+1] yi+1``.  Absence of the full chain makes every rank
    ``< n``, hence ``y(n-1) ⊆ yn = z`` differ only in rank-``(n-1)``
    events, none of which are on ``Pn``.
    """
    suffix = z.suffix_after(x)
    order = CausalOrder(suffix)
    ranks = chain_ranks(order, sets)
    count = len(sets)
    if any(rank >= count for rank in ranks.values()):
        return None

    witnesses: list[Configuration] = [x]
    for level in range(1, count):
        kept = {event for event, rank in ranks.items() if rank < level}
        histories = {
            process: tuple(event for event in history if event in kept)
            for process, history in suffix.items()
        }
        merged = {
            process: x.history(process) + histories.get(process, ())
            for process in set(x.histories) | set(histories)
        }
        witnesses.append(Configuration(merged))
    witnesses.append(z)
    return witnesses

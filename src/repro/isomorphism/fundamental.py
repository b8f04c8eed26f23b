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
:func:`repro.isomorphism.reference.theorem_1_holds`.  The exhaustive
checker and :func:`composition_witness_by_chains`, which *constructs* the
intermediate computations (the constructive content of the proof), both
read :func:`repro.causality.chains.chain_ranks`, computed from the suffix
segment alone: the *chain rank* of a suffix event is the length of the
longest prefix of ``<P1 … Pn>`` matched by a chain ending at it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.causality.chains import chain_ranks, has_process_chain
from repro.core.configuration import Configuration
from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.relation import composed_images
from repro.universe.explorer import Universe, iter_bit_ids


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
    pipelines = [
        (universe.partition_table(sets[0]).class_of, composed_images(universe, sets))
        for sets in set_sequences
    ]
    checked = 0
    failures = []
    for x_id, descendants in universe.descendant_masks(universe.full_mask):
        checked += descendants.bit_count() * len(set_sequences)
        x = universe.configuration_of_id(x_id)
        for index, (class_of, images) in enumerate(pipelines):
            for z_id in iter_bit_ids(descendants & ~images[class_of[x_id]]):
                z = universe.configuration_of_id(z_id)
                if not has_process_chain(z.suffix_after(x), set_sequences[index]):
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
    ranks = chain_ranks(suffix, sets)
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

"""Fusing computations (paper, §3.3: Lemma 1 and Theorem 2).

Theorem 2 (Fusion of Computations): for computations ``x <= y`` and
``x <= z`` and a process set ``P`` such that there is no process chain
``<P̄ P>`` in ``(x, y)`` and no chain ``<P P̄>`` in ``(x, z)``, there is a
computation ``w`` with ``x <= w``, ``y [P] w`` and ``z [P̄] w`` — that is,
``w`` consists of all events on ``P`` from ``y`` and all events on ``P̄``
from ``z``.

(Note on the side conditions: the scanned paper's chain directions are
typographically ambiguous; the directions above are forced by the
conclusion.  ``w`` keeps ``y``'s *P*-events while dropping ``y``'s
P̄-suffix, so no kept event may causally depend on a dropped one — i.e.
no ``<P̄ P>`` chain in ``(x, y)`` — and symmetrically for ``z``.  The
exhaustive fusion tests over explored universes confirm these are exactly
the conditions under which the construction always yields a valid
computation.)

Lemma 1 is the special case in which ``(x, y)`` has events only on ``P̄``
and ``(x, z)`` only on ``Q̄`` with ``P ∪ Q = D``: then
``w = x; (x,y); (x,z)``.

:func:`fuse` constructs ``w`` directly (take ``P``'s histories from ``y``
and ``P̄``'s from ``z``), after checking the chain side-conditions; the
construction is validated before being returned, so a successful call is
itself a proof instance of the theorem.
"""

from __future__ import annotations

from collections import Counter

from repro.causality.chains import chain_in_suffix, has_process_chain
from repro.core.configuration import Configuration
from repro.core.errors import FusionError
from repro.core.process import ProcessSetLike, as_process_set
from repro.core.validation import find_configuration_defect
from repro.isomorphism.extension import class_pairs
from repro.universe.explorer import Universe, iter_bit_ids


def fusion_side_conditions(
    x: Configuration,
    y: Configuration,
    z: Configuration,
    processes: ProcessSetLike,
    all_processes: ProcessSetLike,
) -> list[str]:
    """The violated hypotheses of Theorem 2, as human-readable strings.

    Empty list means the fusion is licensed.
    """
    p_set = as_process_set(processes)
    d_set = as_process_set(all_processes)
    complement = d_set - p_set
    problems: list[str] = []
    if not p_set <= d_set:
        problems.append(f"P = {sorted(p_set)} is not a subset of D")
        return problems
    if not x.is_sub_configuration_of(y):
        problems.append("x is not a prefix of y")
    if not x.is_sub_configuration_of(z):
        problems.append("x is not a prefix of z")
    if problems:
        return problems
    chain_in_y = chain_in_suffix(y, x, [complement, p_set])
    if chain_in_y is not None:
        problems.append(
            f"process chain <P̄ P> in (x, y): {[str(e) for e in chain_in_y]}"
        )
    chain_in_z = chain_in_suffix(z, x, [p_set, complement])
    if chain_in_z is not None:
        problems.append(
            f"process chain <P P̄> in (x, z): {[str(e) for e in chain_in_z]}"
        )
    return problems


def fuse(
    x: Configuration,
    y: Configuration,
    z: Configuration,
    processes: ProcessSetLike,
    all_processes: ProcessSetLike,
) -> Configuration:
    """Theorem 2's fused computation ``w``.

    ``w`` takes every process of ``P`` from ``y`` and every process of
    ``P̄`` from ``z``.  Raises :class:`FusionError` when a hypothesis fails
    or — which the theorem rules out — the assembled configuration is not
    a valid computation.
    """
    problems = fusion_side_conditions(x, y, z, processes, all_processes)
    if problems:
        raise FusionError("; ".join(problems))
    return _assemble(
        y, z, as_process_set(processes), as_process_set(all_processes), "fusion"
    )


def _assemble(
    on_p: Configuration,
    off_p: Configuration,
    p_set: frozenset[str],
    d_set: frozenset[str],
    hypotheses: str,
) -> Configuration:
    """The configuration taking ``P``'s histories from ``on_p`` and
    ``P̄``'s from ``off_p``; raises :class:`FusionError` naming the
    ``hypotheses`` that held when it is not a valid computation."""
    histories = {}
    for process in d_set:
        history = (on_p if process in p_set else off_p).history(process)
        if history:
            histories[process] = history
    fused = Configuration(histories)
    defect = find_configuration_defect(fused)
    if defect is not None:
        raise FusionError(
            f"{hypotheses} hypotheses held but the fused computation is "
            f"invalid: {defect}"
        )
    return fused


def fusion_census(universe: Universe, processes: ProcessSetLike) -> dict[str, int]:
    """Exhaustive Theorem-2 sweep over a universe, on partition tables.

    For every ``x <= y``, ``x <= z`` (the supersets of ``x`` are its
    :meth:`~repro.universe.explorer.Universe.descendant_masks` entry),
    decides ``<P̄ P>`` in ``(x, y)`` once per ``(x, y)`` and ``<P P̄>`` in
    ``(x, z)`` once per ``(x, z)``; every triple passing both is licensed.
    Its ``w`` is fixed by ``y``'s ``[P]``-class and ``z``'s ``[P̄]``-class,
    so triples are counted by class multiplicity, ``w`` is in the universe
    iff its pair occurs (:func:`class_pairs`), and ``y [P] w``, ``z [P̄] w``
    hold by construction.  Only a pair that misses is assembled
    (:func:`fuse`'s body), to name it and to raise :class:`FusionError`
    if ``w`` is not a valid computation.

    Returns ``{"licensed", "blocked", "escaped"}`` counts; ``escaped``
    (fusions leaving a *truncated* universe) is always 0 on complete
    universes, where an escape would falsify the theorem and raises.  On
    a truncated universe the supersets are stored reachability, a sound
    under-approximation of ``x <= y``.
    """
    p_set = as_process_set(processes)
    d_set = universe.processes
    complement = universe.complement(p_set)
    p_of = universe.partition_table(p_set).class_of
    c_of = universe.partition_table(complement).class_of
    pairs = class_pairs(universe, p_set)
    licensed = blocked = escaped = 0
    for x_id, descendants in universe.descendant_masks(universe.full_mask):
        x = universe.configuration_of_id(x_id)
        candidates = [
            (y_id, universe.configuration_of_id(y_id))
            for y_id in iter_bit_ids(descendants)
        ]
        # No <P̄ P> in (x, y) and no <P P̄> in (x, z): each side decided once.
        ys = [
            (y_id, y)
            for y_id, y in candidates
            if not has_process_chain(y.suffix_after(x), (complement, p_set))
        ]
        zs = [
            (z_id, z)
            for z_id, z in candidates
            if not has_process_chain(z.suffix_after(x), (p_set, complement))
        ]
        blocked += len(candidates) ** 2 - len(ys) * len(zs)
        z_classes = Counter(c_of[z_id] for z_id, _ in zs)
        for y_class, y_count in Counter(p_of[y_id] for y_id, _ in ys).items():
            for z_class, z_count in z_classes.items():
                if (y_class, z_class) in pairs:
                    licensed += y_count * z_count
                    continue
                y = next(y for y_id, y in ys if p_of[y_id] == y_class)
                z = next(z for z_id, z in zs if c_of[z_id] == z_class)
                _assemble(y, z, p_set, d_set, "fusion")
                if universe.is_complete:
                    raise FusionError(
                        f"fusion of y={y!r}, z={z!r} escaped a complete universe"
                    )
                escaped += y_count * z_count
    return {"licensed": licensed, "blocked": blocked, "escaped": escaped}


def fuse_disjoint(
    x: Configuration,
    y: Configuration,
    z: Configuration,
    processes_p: ProcessSetLike,
    processes_q: ProcessSetLike,
    all_processes: ProcessSetLike,
) -> Configuration:
    """Lemma 1's fusion: ``P ∪ Q = D``, ``x [P] y`` and ``x [Q] z``.

    Then ``w = x; (x,y); (x,z)`` satisfies ``x <= w``, ``y [Q] w`` and
    ``z [P] w``.  Implemented via :func:`fuse` with ``P' = Q`` (events of
    ``(x,y)`` are all on ``P̄``, i.e. ``y`` contributes the ``Q̄``… = ``P̄``
    side): ``w`` takes ``Q``'s histories from ``z``'s complement side.
    Raises :class:`FusionError` if ``P ∪ Q != D`` or an isomorphism
    hypothesis fails.
    """
    p_set = as_process_set(processes_p)
    q_set = as_process_set(processes_q)
    d_set = as_process_set(all_processes)
    if p_set | q_set != d_set:
        raise FusionError("Lemma 1 requires P ∪ Q = D")
    if x.projection(p_set) != y.projection(p_set):
        raise FusionError("Lemma 1 requires x [P] y")
    if x.projection(q_set) != z.projection(q_set):
        raise FusionError("Lemma 1 requires x [Q] z")
    if not (x.is_sub_configuration_of(y) and x.is_sub_configuration_of(z)):
        raise FusionError("Lemma 1 requires x <= y and x <= z")
    # (x,y) has events only on P̄ and (x,z) only on Q̄, and P̄ ∩ Q̄ = {}:
    # take P̄'s processes from y and the rest from z (processes in P ∩ Q
    # changed in neither suffix, so either source agrees there).
    return _assemble(z, y, p_set, d_set, "Lemma 1")

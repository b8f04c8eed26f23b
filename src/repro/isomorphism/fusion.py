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

from typing import TYPE_CHECKING

from repro.causality.chains import chain_in_suffix
from repro.core.configuration import Configuration
from repro.core.errors import FusionError
from repro.core.process import ProcessSetLike, as_process_set
from repro.core.validation import find_configuration_defect

if TYPE_CHECKING:
    from repro.universe.explorer import Universe


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
    p_set = as_process_set(processes)
    d_set = as_process_set(all_processes)
    histories = {}
    for process in d_set:
        source = y if process in p_set else z
        history = source.history(process)
        if history:
            histories[process] = history
    fused = Configuration(histories)
    defect = find_configuration_defect(fused)
    if defect is not None:
        raise FusionError(
            f"fusion hypotheses held but the fused computation is invalid: {defect}"
        )
    return fused


def fusion_census(universe: "Universe", processes: ProcessSetLike) -> dict[str, int]:
    """Exhaustive Theorem-2 sweep over a universe, on partition tables.

    For every ``x <= y``, ``x <= z`` (the supersets of ``x`` are its
    :meth:`~repro.universe.explorer.Universe.descendant_masks` entry),
    attempts the fusion and verifies the conclusion ``y [P] w`` and
    ``z [P̄] w`` by comparing class indices in the universe's
    ``[P]``/``[P̄]`` partition tables — no projection comparisons.

    Returns ``{"licensed", "blocked", "escaped"}`` counts; ``escaped``
    (fusions leaving a *truncated* universe) is always 0 on complete
    universes, where an escape would falsify the theorem and raises.  On
    a truncated universe the supersets are stored reachability, a sound
    under-approximation of ``x <= y``.
    """
    p_set = as_process_set(processes)
    complement = universe.complement(p_set)
    p_of = universe.partition_table(p_set).class_of
    c_of = universe.partition_table(complement).class_of
    licensed = blocked = escaped = 0
    for x_id, descendants in universe.descendant_masks(universe.full_mask):
        x = universe.configuration_of_id(x_id)
        candidates = universe.configurations_in_mask(descendants)
        for y in candidates:
            for z in candidates:
                problems = fusion_side_conditions(
                    x, y, z, p_set, universe.processes
                )
                if problems:
                    blocked += 1
                    continue
                w = fuse(x, y, z, p_set, universe.processes)
                if w not in universe:
                    if universe.is_complete:
                        raise FusionError(
                            f"fusion of y={y!r}, z={z!r} escaped a complete "
                            "universe"
                        )
                    escaped += 1
                    continue
                w_id = universe.config_id(w)
                if p_of[w_id] != p_of[universe.config_id(y)]:
                    raise FusionError(f"fused w not [P]-isomorphic to y={y!r}")
                if c_of[w_id] != c_of[universe.config_id(z)]:
                    raise FusionError(f"fused w not [P̄]-isomorphic to z={z!r}")
                licensed += 1
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
    histories = {}
    for process in d_set:
        source = y if process not in p_set else z
        history = source.history(process)
        if history:
            histories[process] = history
    fused = Configuration(histories)
    defect = find_configuration_defect(fused)
    if defect is not None:
        raise FusionError(
            f"Lemma 1 hypotheses held but the fused computation is invalid: {defect}"
        )
    return fused

"""The isomorphism relations ``[P]`` and ``[P1 P2 … Pn]`` (paper, §3).

``x [P] y`` holds iff every process in ``P`` has the same projection in
``x`` and ``y`` — checked directly on computations or configurations.

The composed relation ``[P1 … Pn] = [P1] ∘ … ∘ [Pn]`` existentially
quantifies over intermediate computations ("for some computation y"), so
deciding it needs a quantification domain: a :class:`repro.universe.Universe`.
The image of ``x`` depends only on ``x``'s ``[P1]``-class and is a union
of ``[Pn]``-classes, so every composed question reads one function,
:func:`composed_frontier`: the ``[Pn]``-class indices a ``[P1]``-class
reaches, folded once per (sequence, class) along the cached
class-adjacency graph and memoised per universe.  Masks are materialised
only at the end; witness extraction walks the per-prefix frontiers
backwards with bit arithmetic.  The object-level implementations survive
in :mod:`repro.isomorphism.reference` as the oracles the cross-check
tests compare against.
"""

from __future__ import annotations

from collections.abc import Sequence
from weakref import WeakKeyDictionary

from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.process import ProcessSetLike, as_process_set
from repro.universe.explorer import Universe, iter_bit_ids

SetSequence = Sequence[ProcessSetLike]
"""A sequence of process sets, written ``[P1 P2 … Pn]`` in the paper."""


def isomorphic(
    x: Computation | Configuration,
    y: Computation | Configuration,
    processes: ProcessSetLike,
) -> bool:
    """``x [P] y``: the projections of ``x`` and ``y`` on ``P`` are equal.

    ``x [{}] y`` is true for all computations, as the paper notes.
    Computations and configurations may be mixed; both are compared via
    their canonical per-process projections.
    """
    p_set = as_process_set(processes)
    x_config = _as_configuration(x)
    y_config = _as_configuration(y)
    return x_config.projection(p_set) == y_config.projection(p_set)


def _as_configuration(value: Computation | Configuration) -> Configuration:
    if isinstance(value, Configuration):
        return value
    return Configuration.from_computation(value)


def agreement_set(
    x: Computation | Configuration, y: Computation | Configuration
) -> frozenset[str]:
    """The largest ``P`` with ``x [P] y`` *among processes appearing in
    either computation*.

    This is the edge label of the isomorphism diagram.  Processes with no
    event in either computation trivially agree and are omitted; diagram
    construction adds them back relative to its universe's ``D``.
    """
    x_config = _as_configuration(x)
    y_config = _as_configuration(y)
    candidates = x_config.processes | y_config.processes
    return frozenset(
        process
        for process in candidates
        if x_config.history(process) == y_config.history(process)
    )


def fold_classes(
    universe: Universe,
    classes: set[int],
    current: ProcessSetLike,
    rest: SetSequence,
) -> set[int]:
    """Propagate ``[current]``-partition class indices through ``rest``.

    One step per entry along the cached class-adjacency graph (derived
    from the memoised refinement products, so one O(n) pass per
    unordered pair serves every pipeline and property checker).
    Singleton frontiers — the common case in the per-class sweeps — skip
    the n-ary union.
    """
    for entry in rest:
        adjacency = universe.class_adjacency(current, entry)
        if len(classes) == 1:
            (index,) = classes
            classes = set(adjacency[index])
        else:
            classes = set().union(*(adjacency[index] for index in classes))
        current = entry
    return classes


_FRONTIERS: WeakKeyDictionary = WeakKeyDictionary()
"""Per universe, per sequence of process sets: one frontier per
``[P1]``-class — a list holding ``None`` for classes not folded yet, a
tuple once every class is."""


def _frontier_row(
    universe: Universe, key: tuple[frozenset, ...]
) -> tuple[dict, list | tuple]:
    memo = _FRONTIERS.get(universe)
    if memo is None:
        memo = _FRONTIERS[universe] = {}
    row = memo.get(key)
    if row is None:
        row = memo[key] = [None] * universe.partition_table(key[0]).num_classes
    return memo, row


def _fold(universe: Universe, key: tuple[frozenset, ...], index: int) -> frozenset[int]:
    return frozenset(fold_classes(universe, {index}, key[0], key[1:]))


def composed_frontier(
    universe: Universe, sets: SetSequence, index: int
) -> frozenset[int]:
    """The ``[Pn]``-class indices that class ``index`` of ``[P1]``
    reaches under ``[P1 … Pn]`` (``n >= 1``).

    ``x [P1 … Pn] z`` iff ``z``'s ``[Pn]``-class is in the frontier of
    ``x``'s ``[P1]``-class.  Each (sequence, class) is folded along the
    class-adjacency graph (:func:`fold_classes`) once, on first request,
    and memoised per universe.
    """
    key = tuple(map(as_process_set, sets))
    _, row = _frontier_row(universe, key)
    frontier = row[index]
    if frontier is None:
        frontier = row[index] = _fold(universe, key, index)
    return frontier


def composed_frontiers(
    universe: Universe, sets: SetSequence
) -> tuple[frozenset[int], ...]:
    """:func:`composed_frontier` of every ``[P1]``-class, by class index.

    Once complete, a sequence's row is returned from one memo lookup: the
    property sweep asks for the same sequences from several checkers.
    """
    key = tuple(map(as_process_set, sets))
    memo, row = _frontier_row(universe, key)
    if type(row) is list:
        row = memo[key] = tuple(
            _fold(universe, key, index) if frontier is None else frontier
            for index, frontier in enumerate(row)
        )
    return row


def composed_images(universe: Universe, sets: SetSequence) -> list[int]:
    """The composed image of every ``[P1]``-class, as a bitmask, by class
    index: each :func:`composed_frontier` materialised once."""
    classes_mask = universe.partition_table(sets[-1]).classes_mask
    return [classes_mask(entry) for entry in composed_frontiers(universe, sets)]


def composed_class_mask(
    universe: Universe,
    mask: int,
    sets: SetSequence,
) -> int:
    """The composed image of ``mask`` under ``[P1 … Pn]``, as a bitmask.

    The union of the :func:`composed_frontier` of each ``[P1]``-class
    ``mask`` touches, materialised once via the final partition's
    memoised class-union masks.
    """
    if not sets:
        return mask
    key = tuple(map(as_process_set, sets))
    class_of = universe.partition_table(key[0]).class_of
    frontier: set[int] = set()
    for index in {class_of[config_id] for config_id in iter_bit_ids(mask)}:
        frontier |= composed_frontier(universe, key, index)
    return universe.partition_table(key[-1]).classes_mask(frontier)


def composed_class(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
) -> frozenset[Configuration]:
    """All ``z`` in the universe with ``x [P1 … Pn] z``.

    A thin view over :func:`composed_class_mask` starting from the
    singleton mask of ``x``.
    """
    mask = composed_class_mask(universe, 1 << universe.config_id(x), sets)
    return frozenset(universe.configurations_in_mask(mask))


def composed_isomorphic(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
    z: Configuration,
) -> bool:
    """``x [P1 P2 … Pn] z`` relative to the universe.

    For a complete universe this is the paper's relation exactly; for a
    truncated universe it is a sound under-approximation (intermediate
    computations outside the bound are not considered).
    """
    z_id = universe.config_id(z)
    if not sets:
        return x == z
    mask = composed_class_mask(universe, 1 << universe.config_id(x), sets)
    return bool(mask >> z_id & 1)


def find_composition_witness(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
    z: Configuration,
) -> list[Configuration] | None:
    """Intermediate computations ``x = y0 [P1] y1 [P2] … [Pn] yn = z``.

    Returns the full list ``[y0, …, yn]`` or ``None`` when the relation
    does not hold.  Used to render paths in isomorphism diagrams.
    """
    x_id = universe.config_id(x)
    z_id = universe.config_id(z)
    # Layer ``i`` holds the configurations reachable from ``x`` after
    # ``i`` steps: the image of ``x`` under ``sets[:i]``.  Walk backwards
    # intersecting each layer with the [Pi]-class of the current
    # configuration and taking its lowest id (ids are in BFS order, so
    # the lowest set bit is a shortest candidate).
    key = tuple(map(as_process_set, sets))
    if not composed_class_mask(universe, 1 << x_id, key) >> z_id & 1:
        return None
    witness = [z]
    current = z
    for index in range(len(key) - 1, -1, -1):
        layer = composed_class_mask(universe, 1 << x_id, key[:index])
        candidates = layer & universe.iso_class_mask(current, key[index])
        if not candidates:
            raise AssertionError("composition layers inconsistent with membership")
        low = candidates & -candidates
        current = universe.configuration_of_id(low.bit_length() - 1)
        witness.append(current)
    witness.reverse()
    return witness

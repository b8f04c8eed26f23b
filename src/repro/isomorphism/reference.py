"""Object-level reference implementations of the isomorphism layer.

These are the pre-mask-engine implementations of the composed relation
``[P1 … Pn]`` and of the ten algebraic property checkers: they walk
:class:`~repro.core.configuration.Configuration` objects, ``projection()``
keys and Python sets, quantifying by explicit loops.  They are kept as
**oracles**: the cross-check tests assert the mask pipelines in
:mod:`repro.isomorphism.relation` and :mod:`repro.isomorphism.algebra`
are bit-identical to these on complete and truncated universes.

To stay independent of the engine they check, the oracles never read the
universe's partition tables or class masks.  Each universe is
materialised once into a list, and its ``[P]`` classes are that list
grouped by ``configuration.projection(P)`` — the paper's definition of
``x [P] y`` — kept here, not on the universe.

:func:`theorem_1_holds` decides Theorem 1 for one instance from the
chain search and the object-level composed relation: the per-instance
oracle of :func:`repro.isomorphism.fundamental.check_theorem_1`.

The extension-principle checkers and the fusion census here walk every
instance as objects: :func:`extension_event` names each stored
successor's event, ``(y;e)`` and ``(y - e)`` are built and looked up,
and each licensed fusion is assembled and probed.  They are the oracles
of :mod:`repro.isomorphism.extension` and
:func:`repro.isomorphism.fusion.fusion_census`, which answer the same
questions on ``edges_on`` and class ids.

Nothing here should be called on hot paths; the public API lives in
:mod:`repro.isomorphism.relation` / :mod:`repro.isomorphism.algebra`.
"""

from __future__ import annotations

import weakref

from repro.causality.chains import find_process_chain, has_process_chain
from repro.core.configuration import Configuration
from repro.core.errors import FusionError
from repro.core.events import Event
from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.fusion import _assemble
from repro.isomorphism.relation import SetSequence, isomorphic
from repro.universe.explorer import Universe, iter_bit_ids


class _Projections:
    """One universe materialised once, grouped by ``projection(P)``."""

    def __init__(self, universe: Universe) -> None:
        self.configurations: list[Configuration] = list(universe)
        self._classes: dict[frozenset, dict[object, tuple]] = {}

    def iso_class(
        self, configuration: Configuration, p_set: frozenset
    ) -> tuple[Configuration, ...]:
        """All materialised ``y`` with ``configuration [P] y``, in universe
        order, so a walk over them meets its first failure whatever the
        hash seed."""
        classes = self._classes.get(p_set)
        if classes is None:
            groups: dict[object, list[Configuration]] = {}
            for member in self.configurations:
                groups.setdefault(member.projection(p_set), []).append(member)
            classes = {key: tuple(group) for key, group in groups.items()}
            self._classes[p_set] = classes
        return classes[configuration.projection(p_set)]


_PROJECTIONS: weakref.WeakKeyDictionary[Universe, _Projections] = (
    weakref.WeakKeyDictionary()
)
"""Per-universe oracle state, keyed weakly: a universe never changes
after construction, so its entry is a pure function of it and dies with
it."""


def _projections(universe: Universe) -> _Projections:
    projections = _PROJECTIONS.get(universe)
    if projections is None:
        projections = _PROJECTIONS[universe] = _Projections(universe)
    return projections


def composed_class_reference(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
) -> frozenset[Configuration]:
    """All ``z`` with ``x [P1 … Pn] z`` — iterated closure on object sets."""
    universe.require(x)
    projections = _projections(universe)
    frontier: set[Configuration] = {x}
    for entry in sets:
        p_set = as_process_set(entry)
        next_frontier: set[Configuration] = set()
        seen_keys: set = set()
        for configuration in frontier:
            key = configuration.projection(p_set)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            next_frontier.update(projections.iso_class(configuration, p_set))
        frontier = next_frontier
    return frozenset(frontier)


def composed_isomorphic_reference(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
    z: Configuration,
) -> bool:
    """``x [P1 P2 … Pn] z`` by membership in the object-level class."""
    universe.require(z)
    if not sets:
        return x == z
    return z in composed_class_reference(universe, x, sets)


def theorem_1_holds(
    universe: Universe,
    x: Configuration,
    z: Configuration,
    sets: SetSequence,
) -> bool:
    """Decide the disjunction of Theorem 1 for one instance: a chain
    ``<P1 … Pn>`` in ``(x, z)``, or ``x [P1 … Pn] z``.

    ``x`` must be a sub-configuration of ``z`` and both must belong to the
    universe.
    """
    if find_process_chain(z.suffix_after(x), sets) is not None:
        return True
    return composed_isomorphic_reference(universe, x, sets, z)


def find_composition_witness_reference(
    universe: Universe,
    x: Configuration,
    sets: SetSequence,
    z: Configuration,
) -> list[Configuration] | None:
    """Witness chain ``x = y0 [P1] y1 … [Pn] yn = z`` via object-set BFS."""
    universe.require(x)
    universe.require(z)
    if not sets:
        return [x] if x == z else None

    projections = _projections(universe)
    layers: list[set[Configuration]] = [{x}]
    for entry in sets:
        p_set = as_process_set(entry)
        frontier: set[Configuration] = set()
        for configuration in layers[-1]:
            frontier.update(projections.iso_class(configuration, p_set))
        layers.append(frontier)
    if z not in layers[-1]:
        return None

    witness = [z]
    current = z
    for index in range(len(sets) - 1, -1, -1):
        p_set = as_process_set(sets[index])
        for candidate in sorted(layers[index], key=lambda c: (len(c), repr(c))):
            if isomorphic(candidate, current, p_set):
                witness.append(candidate)
                current = candidate
                break
        else:
            raise AssertionError("BFS layers inconsistent with membership")
    witness.reverse()
    return witness


def sequences_equal_reference(
    universe: Universe, left: SetSequence, right: SetSequence
) -> bool:
    """Extensional equality ``[left] = [right]`` by per-configuration sets."""
    for configuration in _projections(universe).configurations:
        if composed_class_reference(
            universe, configuration, left
        ) != composed_class_reference(universe, configuration, right):
            return False
    return True


# ----------------------------------------------------------------------
# Properties 1-10, object-level (the pre-mask-engine checker bodies).
# ----------------------------------------------------------------------
def check_equivalence_reference(
    universe: Universe, processes: ProcessSetLike
) -> bool:
    """Property 1 by exhaustive transitivity scan over object classes."""
    p_set = as_process_set(processes)
    projections = _projections(universe)
    configurations = projections.configurations
    for x in configurations:
        if not isomorphic(x, x, p_set):
            return False
    for x in configurations:
        for y in projections.iso_class(x, p_set):
            if not isomorphic(y, x, p_set):
                return False
            for z in projections.iso_class(y, p_set):
                if not isomorphic(x, z, p_set):
                    return False
    return True


def check_substitution_reference(
    universe: Universe,
    beta: SetSequence,
    delta: SetSequence,
    alpha: SetSequence,
    gamma: SetSequence,
) -> bool:
    """Property 2: ``[β] = [δ]`` implies ``[α β γ] = [α δ γ]``."""
    if not sequences_equal_reference(universe, beta, delta):
        return True
    return sequences_equal_reference(
        universe,
        list(alpha) + list(beta) + list(gamma),
        list(alpha) + list(delta) + list(gamma),
    )


def check_idempotence_reference(
    universe: Universe, processes: ProcessSetLike
) -> bool:
    """Property 3: ``[P P] = [P]``."""
    p_set = as_process_set(processes)
    return sequences_equal_reference(universe, [p_set, p_set], [p_set])


def check_reflexivity_reference(universe: Universe, sets: SetSequence) -> bool:
    """Property 4: ``x [P1 … Pn] x`` for every computation ``x``."""
    return all(
        composed_isomorphic_reference(universe, configuration, sets, configuration)
        for configuration in _projections(universe).configurations
    )


def check_inversion_reference(universe: Universe, sets: SetSequence) -> bool:
    """Property 5: ``x [P1 … Pn] y  =  y [Pn … P1] x``."""
    reversed_sets = list(reversed(list(sets)))
    configurations = _projections(universe).configurations
    for x in configurations:
        forward = composed_class_reference(universe, x, sets)
        for y in configurations:
            backward = composed_isomorphic_reference(universe, y, reversed_sets, x)
            if (y in forward) != backward:
                return False
    return True


def check_concatenation_reference(
    universe: Universe, prefix_sets: SetSequence, suffix_sets: SetSequence
) -> bool:
    """Property 6: ``∃y: x [P1…Pm] y and y [Pm+1…Pn] z  =  x [P1…Pn] z``."""
    combined = list(prefix_sets) + list(suffix_sets)
    for x in _projections(universe).configurations:
        via_definition: set[Configuration] = set()
        for y in composed_class_reference(universe, x, prefix_sets):
            via_definition.update(
                composed_class_reference(universe, y, suffix_sets)
            )
        if via_definition != composed_class_reference(universe, x, combined):
            return False
    return True


def check_union_reference(
    universe: Universe, first: ProcessSetLike, second: ProcessSetLike
) -> bool:
    """Property 7: ``[P ∪ Q] = [P] ∩ [Q]``."""
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    union = p_set | q_set
    configurations = _projections(universe).configurations
    for x in configurations:
        for y in configurations:
            combined = isomorphic(x, y, union)
            separate = isomorphic(x, y, p_set) and isomorphic(x, y, q_set)
            if combined != separate:
                return False
    return True


def check_containment_reference(
    universe: Universe, larger: ProcessSetLike, smaller: ProcessSetLike
) -> bool:
    """Property 8: ``Q ⊇ P  =  [Q] ⊆ [P]`` (with the activity caveat)."""
    q_set = as_process_set(larger)
    p_set = as_process_set(smaller)
    projections = _projections(universe)
    relation_contained = True
    for x in projections.configurations:
        for y in projections.iso_class(x, q_set):
            if not isomorphic(x, y, p_set):
                relation_contained = False
                break
        if not relation_contained:
            break
    if q_set >= p_set:
        return relation_contained
    active = {
        process
        for configuration in projections.configurations
        for process in configuration.processes
    }
    if not (p_set - q_set) & active:
        return True
    return not relation_contained


def check_extensionality_reference(
    universe: Universe, first: ProcessSetLike, second: ProcessSetLike
) -> bool:
    """Property 9: ``P = Q  =  [P] = [Q]`` (same caveat as property 8)."""
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    return check_containment_reference(
        universe, p_set, q_set
    ) and check_containment_reference(universe, q_set, p_set)


def check_absorption_reference(
    universe: Universe, larger: ProcessSetLike, smaller: ProcessSetLike
) -> bool:
    """Property 10: ``Q ⊇ P`` implies ``[Q P] = [P] = [P Q]``."""
    q_set = as_process_set(larger)
    p_set = as_process_set(smaller)
    if not q_set >= p_set:
        return True
    return sequences_equal_reference(
        universe, [q_set, p_set], [p_set]
    ) and sequences_equal_reference(universe, [p_set, q_set], [p_set])


def check_all_properties_reference(
    universe: Universe, max_sets: int | None = None
) -> dict[str, bool]:
    """Object-level mirror of
    :func:`repro.isomorphism.algebra.check_all_properties` — same subset
    sweep, reference checkers.  Cubic in class sizes; feasible only on
    small universes.
    """
    import itertools

    processes = sorted(universe.processes)
    subsets: list[frozenset] = []
    for size in range(len(processes) + 1):
        for combo in itertools.combinations(processes, size):
            subsets.append(frozenset(combo))
    if max_sets is not None:
        subsets = subsets[:max_sets]

    results: dict[str, bool] = {}
    results["1-equivalence"] = all(
        check_equivalence_reference(universe, subset) for subset in subsets
    )
    results["3-idempotence"] = all(
        check_idempotence_reference(universe, subset) for subset in subsets
    )
    results["4-reflexivity"] = all(
        check_reflexivity_reference(universe, [subset]) for subset in subsets
    )
    results["5-inversion"] = all(
        check_inversion_reference(universe, [first, second])
        for first in subsets
        for second in subsets
    )
    results["6-concatenation"] = all(
        check_concatenation_reference(universe, [first], [second])
        for first in subsets
        for second in subsets
    )
    results["7-union"] = all(
        check_union_reference(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["8-containment"] = all(
        check_containment_reference(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["9-extensionality"] = all(
        check_extensionality_reference(universe, first, second)
        for first in subsets
        for second in subsets
        if first == second
    )
    results["10-absorption"] = all(
        check_absorption_reference(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["2-substitution"] = all(
        check_substitution_reference(universe, [first], [first], [second], [second])
        for first in subsets[: min(len(subsets), 4)]
        for second in subsets[: min(len(subsets), 4)]
    )
    return results


PROPERTY_CHECKERS_REFERENCE = {
    "1-equivalence": check_equivalence_reference,
    "2-substitution": check_substitution_reference,
    "3-idempotence": check_idempotence_reference,
    "4-reflexivity": check_reflexivity_reference,
    "5-inversion": check_inversion_reference,
    "6-concatenation": check_concatenation_reference,
    "7-union": check_union_reference,
    "8-containment": check_containment_reference,
    "9-extensionality": check_extensionality_reference,
    "10-absorption": check_absorption_reference,
}
"""Property name → object-level checker, for oracle-driven test sweeps."""


# ----------------------------------------------------------------------
# The extension principle and the fusion census, object-level.
# ----------------------------------------------------------------------
def extension_event(
    smaller: Configuration, larger: Configuration
) -> Event | None:
    """The single event ``e`` with ``larger = (smaller; e)``, if any."""
    if len(larger) != len(smaller) + 1:
        return None
    if not smaller.is_sub_configuration_of(larger):
        return None
    for process, history in larger.histories.items():
        if len(history) == len(smaller.history(process)) + 1:
            return history[-1]
    return None


def check_extension_principle_part1_reference(universe: Universe) -> int:
    """Part 1 of the Principle of Computation Extension, walking every
    configuration, successor and ``[p]``-class member as objects."""
    projections = _projections(universe)
    checked = 0
    for x in universe:
        for extended in universe.successors(x):
            event = extension_event(x, extended)
            if event is None or event.is_receive:
                continue
            process = event.process
            for y in projections.iso_class(x, frozenset((process,))):
                y_extended = y.extend(event)
                if y_extended not in universe:
                    raise AssertionError(
                        "extension principle part 1 fails: "
                        f"(y;e) missing for x={x!r}, y={y!r}, e={event}"
                    )
                if not isomorphic(extended, y_extended, {process}):
                    raise AssertionError(
                        "extension principle part 1 fails: (x;e) not [P] (y;e)"
                    )
                checked += 1
    return checked


def check_extension_principle_part2_reference(universe: Universe) -> int:
    """Part 2, building ``(y - e)`` for every instance."""
    projections = _projections(universe)
    checked = 0
    for x in universe:
        for extended in universe.successors(x):
            event = extension_event(x, extended)
            if event is None or event.is_send:
                continue
            process = event.process
            for y in projections.iso_class(extended, frozenset((process,))):
                reduced = _delete_last_event(y, event)
                if reduced not in universe:
                    raise AssertionError(
                        "extension principle part 2 fails: "
                        f"(y - e) missing for y={y!r}, e={event}"
                    )
                if not isomorphic(x, reduced, {process}):
                    raise AssertionError(
                        "extension principle part 2 fails: x not [P] (y - e)"
                    )
                checked += 1
    return checked


def _delete_last_event(configuration: Configuration, event: Event) -> Configuration:
    """``(y - e)`` where ``e`` is the last event of its process in ``y``."""
    histories = dict(configuration.histories)
    history = histories[event.process]
    if history[-1] != event:
        raise ValueError(f"{event} is not the last event of its process")
    histories[event.process] = history[:-1]
    return Configuration(histories)


def check_extension_corollary_reference(universe: Universe) -> int:
    """The corollary for receives, over ``[{receiver, sender}]``-classes of
    objects."""
    projections = _projections(universe)
    checked = 0
    for x in universe:
        for extended in universe.successors(x):
            event = extension_event(x, extended)
            if event is None or not event.is_receive:
                continue
            receiver = event.process
            sender = event.message.sender  # type: ignore[attr-defined]
            both = frozenset((receiver, sender))
            for y in projections.iso_class(x, both):
                y_extended = y.extend(event)
                if y_extended not in universe:
                    raise AssertionError(
                        "extension corollary fails: (y;e) missing for "
                        f"y={y!r}, e={event}"
                    )
                checked += 1
    return checked


def fusion_census_reference(
    universe: Universe, processes: ProcessSetLike
) -> dict[str, int]:
    """Theorem 2's census assembling and probing ``w`` for every licensed
    triple, its conclusion checked on projections.  ``x <= y`` is the same
    stored reachability as the production census reads."""
    p_set = as_process_set(processes)
    d_set = universe.processes
    complement = universe.complement(p_set)
    licensed = blocked = escaped = 0
    for x_id, descendants in universe.descendant_masks(universe.full_mask):
        x = universe.configuration_of_id(x_id)
        candidates = [
            (y_id, universe.configuration_of_id(y_id))
            for y_id in iter_bit_ids(descendants)
        ]
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
        for y_id, y in ys:
            for z_id, z in zs:
                w = _assemble(y, z, p_set, d_set, "fusion")
                if w not in universe:
                    if universe.is_complete:
                        raise FusionError(
                            f"fusion of y={y!r}, z={z!r} escaped a complete "
                            "universe"
                        )
                    escaped += 1
                    continue
                if not isomorphic(w, y, p_set):
                    raise FusionError(f"fused w not [P]-isomorphic to y={y!r}")
                if not isomorphic(w, z, complement):
                    raise FusionError(f"fused w not [P̄]-isomorphic to z={z!r}")
                licensed += 1
    return {"licensed": licensed, "blocked": blocked, "escaped": escaped}

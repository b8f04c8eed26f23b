"""Algebraic properties of isomorphism relations (paper, §3, items 1–10).

Two kinds of machinery live here:

* :func:`normalise_sequence` — rewrite a sequence of process sets to a
  canonical form using the paper's laws (idempotence ``[P P] = [P]`` and
  absorption ``Q ⊇ P  implies  [Q P] = [P] = [P Q]``, of which idempotence
  is the special case ``Q = P``).
* ``check_*`` functions — exhaustive verifiers of each numbered property
  over a concrete universe.  They return ``True`` when the property holds
  on every instance, and are the machinery behind experiment E2 and the
  algebra test-suite.  Each check is a *universally quantified* statement,
  so a single ``False`` would falsify the reproduction.

The checkers run on the universe's partition tables: a ``[P]``-relation
is a partition of the dense configuration ids, a composed relation
``[P1 … Pn]`` is read off the per-class frontiers of
:func:`~repro.isomorphism.relation.composed_frontiers`, and each
universally quantified property collapses to bitwise subset/equality
tests over class masks and O(n) passes over class-index arrays — never a
nested loop over ``Configuration`` objects.  The original object-level
checkers survive in :mod:`repro.isomorphism.reference`; the cross-check
tests assert both agree verdict-for-verdict.
"""

from __future__ import annotations

import itertools

from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.relation import (
    SetSequence,
    composed_frontiers,
    composed_images,
    fold_classes,
)
from repro.universe.explorer import Universe


def normalise_sequence(sets: SetSequence) -> tuple[frozenset, ...]:
    """Canonical form of ``[P1 P2 … Pn]`` under idempotence/absorption.

    Repeatedly collapses an adjacent pair in which one set contains the
    other to the *smaller* set, which is sound by property 10
    (``Q ⊇ P`` implies ``[Q P] = [P] = [P Q]``).  The result denotes the
    same relation over every universe.
    """
    current = [as_process_set(entry) for entry in sets]
    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1):
            first, second = current[index], current[index + 1]
            if first >= second:
                del current[index]
                changed = True
                break
            if second >= first:
                del current[index + 1]
                changed = True
                break
    return tuple(current)


def _composed_is_identity(universe: Universe, sets: list[frozenset]) -> bool:
    """``[P1 … Pn]`` equals the identity relation over the universe: every
    ``[P1]``-class is a singleton whose composed image is itself."""
    base = universe.partition_table(sets[0])
    if base.num_classes != base.size:
        return False
    images = composed_images(universe, sets)
    return all(image == 1 << x_id for x_id, image in zip(base.representatives, images))


def sequences_equal(
    universe: Universe, left: SetSequence, right: SetSequence
) -> bool:
    """Extensional equality ``[left] = [right]`` over the universe.

    Single-set sides compare as partitions (one C-level array
    compare).  Composed sides compare their per-class images,
    deduplicated by the realised (left class, right class) pairs — which
    are exactly the rows of the cached
    :meth:`~repro.universe.explorer.Universe.class_adjacency` graph, so
    no per-configuration pass remains; when both pipelines end in the
    same partition the images compare as final-class *sets*, with no
    masks materialised at all.
    """
    left_n = [as_process_set(entry) for entry in left]
    right_n = [as_process_set(entry) for entry in right]
    if left_n == right_n:
        return True  # syntactically identical sequences denote one relation
    if not left_n and not right_n:
        return True
    if not left_n or not right_n:
        # One side is the identity relation.
        return _composed_is_identity(universe, left_n or right_n)
    if len(left_n) == 1 and len(right_n) == 1:
        return universe.partition_table(left_n[0]).same_partition_as(
            universe.partition_table(right_n[0])
        )
    if left_n[-1] == right_n[-1]:
        # Images are unions of final classes; with one shared final
        # partition the unions are equal iff the class sets are.
        left_results = composed_frontiers(universe, left_n)
        right_results = composed_frontiers(universe, right_n)
    else:
        left_results = composed_images(universe, left_n)
        right_results = composed_images(universe, right_n)
    pair_rows = universe.class_adjacency(left_n[0], right_n[0])
    for left_class, row in enumerate(pair_rows):
        left_image = left_results[left_class]
        for right_class in row:
            if left_image != right_results[right_class]:
                return False
    return True


# ----------------------------------------------------------------------
# Properties 1-10, numbered as in the paper.
# ----------------------------------------------------------------------
def check_equivalence(universe: Universe, processes: ProcessSetLike) -> bool:
    """Property 1: ``[P]`` is an equivalence relation.

    Symmetry and transitivity are structural once the relation is a
    partition; this verifies the partition: every class mask decodes to
    exactly its member ids, the members agree with the index array, and
    the rows partition the id range — which gives disjointness, covering
    and reflexivity together.  The verification is the memoised
    :meth:`~repro.universe.explorer.PartitionTable.verify_consistency`,
    shared with :func:`check_concatenation`'s definitional side.
    """
    return universe.partition_table(processes).verify_consistency()


def check_substitution(
    universe: Universe,
    beta: SetSequence,
    delta: SetSequence,
    alpha: SetSequence,
    gamma: SetSequence,
) -> bool:
    """Property 2: ``[β] = [δ]`` implies ``[α β γ] = [α δ γ]``."""
    if not sequences_equal(universe, beta, delta):
        return True  # antecedent false; implication holds vacuously
    return sequences_equal(
        universe,
        list(alpha) + list(beta) + list(gamma),
        list(alpha) + list(delta) + list(gamma),
    )


def check_idempotence(universe: Universe, processes: ProcessSetLike) -> bool:
    """Property 3: ``[P P] = [P]``.

    Checked by closing every ``[P]``-class under ``[P]`` again: the
    one-pass :meth:`~repro.universe.explorer.Universe.compose_masks`
    closure must return the class unchanged.
    """
    p_set = as_process_set(processes)
    table = universe.partition_table(p_set)
    for index in range(table.num_classes):
        mask = table.class_mask(index)
        if universe.compose_masks(mask, p_set) != mask:
            return False
    return True


def check_reflexivity(universe: Universe, sets: SetSequence) -> bool:
    """Property 4: ``x [P1 … Pn] x`` for every computation ``x``.

    ``x``'s image must contain its own final class, for every ``x`` —
    i.e. for every *realised* (base class, final class) pair, the final
    class must sit in the base class's frontier.  The realised pairs are
    the rows of the cached class-adjacency graph, so the universal
    quantifier costs O(pairs), not O(n) per sequence.
    """
    normalised = [as_process_set(entry) for entry in sets]
    if not normalised:
        return True
    frontiers = composed_frontiers(universe, normalised)
    pair_rows = universe.class_adjacency(normalised[0], normalised[-1])
    return all(
        final_class in frontiers[base_class]
        for base_class, row in enumerate(pair_rows)
        for final_class in row
    )


def check_inversion(universe: Universe, sets: SetSequence) -> bool:
    """Property 5: ``x [P1 … Pn] y  =  y [Pn … P1] x``.

    The forward image of a ``[P1]``-class is a union of ``[Pn]``-classes
    (and vice versa), so the property reduces to the transpose of the
    forward class graph equalling the backward class graph — checked with
    set operations on class indices, no masks at all.
    """
    normalised = [as_process_set(entry) for entry in sets]
    if not normalised:
        return True  # the identity relation is symmetric
    forward = composed_frontiers(universe, normalised)
    backward = composed_frontiers(universe, normalised[::-1])
    transpose: list[set[int]] = [set() for _ in backward]
    for source, frontier in enumerate(forward):
        for target in frontier:
            transpose[target].add(source)
    return list(backward) == transpose


def check_concatenation(
    universe: Universe, prefix_sets: SetSequence, suffix_sets: SetSequence
) -> bool:
    """Property 6: ``∃y: x [P1…Pm] y and y [Pm+1…Pn] z  =  x [P1…Pn] z``.

    The definitional side quantifies over the intermediates ``y``: the
    prefix image's mask↔index consistency is verified once per
    prefix-final table (memoised ``verify_consistency``), then the whole
    prefix frontier of each base class is folded through the suffix sets
    in one batch and compared against the full chain's own frontier
    (:func:`~repro.isomorphism.relation.composed_frontiers`, a per-class
    fold of the combined sequence).
    """
    prefix_n = [as_process_set(entry) for entry in prefix_sets]
    suffix_n = [as_process_set(entry) for entry in suffix_sets]
    if not prefix_n or not suffix_n:
        # One side is the identity: the definitional union over {x} (or
        # over the image itself) is the composed image verbatim.
        return True
    if not universe.partition_table(prefix_n[-1]).verify_consistency():
        return False
    combined = composed_frontiers(universe, prefix_n + suffix_n)
    for index, frontier in enumerate(composed_frontiers(universe, prefix_n)):
        via_definition = fold_classes(
            universe, set(frontier), prefix_n[-1], suffix_n
        )
        if via_definition != combined[index]:
            return False
    return True


def check_union(
    universe: Universe, first: ProcessSetLike, second: ProcessSetLike
) -> bool:
    """Property 7: ``[P ∪ Q] = [P] ∩ [Q]``.

    Holds iff the ``[P ∪ Q]`` partition coincides with the common
    refinement of ``[P]`` and ``[Q]``.  The two sides are computed
    separately: ``[P ∪ Q]`` relabels the rows of the per-process history
    label columns of ``P ∪ Q``, while ``[P] ∩ [Q]`` is the refinement
    product of the two tables' ``class_of`` arrays.  Both labellings are
    canonical (first occurrence), so the property holds iff the arrays
    are equal, one C-level comparison.  The
    object-level oracle ``check_union_reference`` in
    :mod:`repro.isomorphism.reference` stays the independent check.
    """
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    # The refinement product is memoised and shared across subset pairs
    # (and with check_containment).
    refinement = universe.refinement_product(p_set, q_set)
    union_table = universe.partition_table(p_set | q_set)
    return refinement.same_partition_as(union_table)


def check_containment(
    universe: Universe, larger: ProcessSetLike, smaller: ProcessSetLike
) -> bool:
    """Property 8: ``Q ⊇ P  =  [Q] ⊆ [P]``.

    ``[Q] ⊆ [P]`` is exactly "the ``[Q]`` partition refines the ``[P]``
    partition": every ``[Q]``-class maps into a single ``[P]``-class.
    The converse needs the model's "every process has an event in some
    computation" assumption; it is checked whenever each process of
    ``P - Q`` has an event in the universe, and skipped (treated as
    holding) otherwise.
    """
    q_set = as_process_set(larger)
    p_set = as_process_set(smaller)
    # [Q] ⊆ [P] iff every [Q]-class meets exactly one [P]-class — the
    # rows of the cached class-adjacency graph (derived from the shared
    # refinement product) are those meets.
    relation_contained = all(
        len(row) == 1 for row in universe.class_adjacency(q_set, p_set)
    )
    if q_set >= p_set:
        return relation_contained
    # Q does not contain P: the property demands [Q] ⊄ [P], provided the
    # missing processes actually have events somewhere in this universe.
    if not (p_set - q_set) & universe.active_processes:
        return True
    return not relation_contained


def check_extensionality(
    universe: Universe, first: ProcessSetLike, second: ProcessSetLike
) -> bool:
    """Property 9: ``P = Q  =  [P] = [Q]`` (same caveat as property 8)."""
    p_set = as_process_set(first)
    q_set = as_process_set(second)
    return check_containment(universe, p_set, q_set) and check_containment(
        universe, q_set, p_set
    )


def check_absorption(
    universe: Universe, larger: ProcessSetLike, smaller: ProcessSetLike
) -> bool:
    """Property 10: ``Q ⊇ P`` implies ``[Q P] = [P] = [P Q]``."""
    q_set = as_process_set(larger)
    p_set = as_process_set(smaller)
    if not q_set >= p_set:
        return True
    return sequences_equal(universe, [q_set, p_set], [p_set]) and sequences_equal(
        universe, [p_set, q_set], [p_set]
    )


def check_all_properties(
    universe: Universe, max_sets: int | None = None
) -> dict[str, bool]:
    """Run every property check over all (pairs of) subsets of ``D``.

    Returns a map from property name to verdict.  ``max_sets`` caps the
    number of subsets considered (smallest first) to keep the sweep
    tractable on larger process sets.
    """
    processes = sorted(universe.processes)
    subsets: list[frozenset] = []
    for size in range(len(processes) + 1):
        for combo in itertools.combinations(processes, size):
            subsets.append(frozenset(combo))
    if max_sets is not None:
        subsets = subsets[:max_sets]

    results: dict[str, bool] = {}
    results["1-equivalence"] = all(
        check_equivalence(universe, subset) for subset in subsets
    )
    results["3-idempotence"] = all(
        check_idempotence(universe, subset) for subset in subsets
    )
    results["4-reflexivity"] = all(
        check_reflexivity(universe, [subset]) for subset in subsets
    )
    results["5-inversion"] = all(
        check_inversion(universe, [first, second])
        for first in subsets
        for second in subsets
    )
    results["6-concatenation"] = all(
        check_concatenation(universe, [first], [second])
        for first in subsets
        for second in subsets
    )
    results["7-union"] = all(
        check_union(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["8-containment"] = all(
        check_containment(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["9-extensionality"] = all(
        check_extensionality(universe, first, second)
        for first in subsets
        for second in subsets
        if first == second
    )
    results["10-absorption"] = all(
        check_absorption(universe, first, second)
        for first in subsets
        for second in subsets
    )
    results["2-substitution"] = all(
        check_substitution(universe, [first], [first], [second], [second])
        for first in subsets[: min(len(subsets), 4)]
        for second in subsets[: min(len(subsets), 4)]
    )
    return results

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
``[P1 … Pn]`` propagates along the cached class-adjacency graph, and each
universally quantified property collapses to bitwise subset/equality
tests over class masks and O(n) passes over class-index arrays — never a
nested loop over ``Configuration`` objects.  The original object-level
checkers survive in :mod:`repro.isomorphism.reference`; the cross-check
tests assert both agree verdict-for-verdict.
"""

from __future__ import annotations

import itertools

from repro.core.process import ProcessSetLike, as_process_set
from repro.isomorphism.relation import SetSequence, fold_classes
from repro.universe.explorer import PartitionTable, Universe


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


# ----------------------------------------------------------------------
# Class-graph pipeline: composed relations at class granularity.
# ----------------------------------------------------------------------
def _frontier_classes(
    universe: Universe, sets: list[frozenset]
) -> tuple[PartitionTable, PartitionTable, list[frozenset[int]]]:
    """Propagate every ``[P1]``-class through ``[P2 … Pn]`` at class level.

    Returns ``(base, final, frontiers)`` where ``frontiers[k]`` is the set
    of ``final``-partition class indices reachable from class ``k`` of the
    ``base`` (``[P1]``) partition.  Because every intermediate step unions
    whole classes, the composed image of a configuration ``x`` is exactly
    the union of the ``final`` classes in ``frontiers[class_of(x)]`` — no
    masks are materialised until a caller asks for them.

    Results are memoised per universe keyed by the frozen-set sequence:
    the property sweep asks for the same composed relations from several
    checkers (inversion folds ``[P Q]`` and ``[Q P]``, concatenation
    folds the full chain again, both quantified over all subset pairs),
    so sharing the class-graph folds across checkers removes the
    dominant repeated work of the n=7 sweep residue.
    """
    key = tuple(sets)
    memo = universe._frontier_class_memo
    cached = memo.get(key)
    if cached is not None:
        return cached
    base = universe.partition_table(sets[0])
    frontiers = [
        frozenset(fold_classes(universe, {index}, sets[0], sets[1:]))
        for index in range(base.num_classes)
    ]
    result = (base, universe.partition_table(sets[-1]), frontiers)
    memo[key] = result
    return result


def _materialise_frontiers(
    final: PartitionTable, frontiers: list[frozenset[int]]
) -> list[int]:
    """One composed-image mask per base class, shared between equal
    frontiers (distinct frontier sets are typically few)."""
    memo: dict[frozenset[int], int] = {}
    results: list[int] = []
    for frontier in frontiers:
        mask = memo.get(frontier)
        if mask is None:
            mask = final.classes_mask(frontier)
            memo[frontier] = mask
        results.append(mask)
    return results


def _composed_is_identity(universe: Universe, sets: list[frozenset]) -> bool:
    """``[P1 … Pn]`` equals the identity relation over the universe.

    The composed image of ``x`` always contains the whole base class of
    ``x``, so the relation is the identity iff every base class is a
    singleton whose frontier is a single singleton final class holding
    the same configuration — checked per class, no masks, no O(n) pass.
    """
    base, final, frontiers = _frontier_classes(universe, sets)
    final_members = final.members
    for index, frontier in enumerate(frontiers):
        members = base.members[index]
        if len(members) != 1 or len(frontier) != 1:
            return False
        (final_class,) = frontier
        reached = final_members[final_class]
        if len(reached) != 1 or reached[0] != members[0]:
            return False
    return True


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
    left_base, left_final, left_frontiers = _frontier_classes(universe, left_n)
    right_base, right_final, right_frontiers = _frontier_classes(
        universe, right_n
    )
    pair_rows = universe.class_adjacency(left_n[0], right_n[0])
    if left_final is right_final:
        # Images are unions of final classes; with one shared final
        # partition the unions are equal iff the class sets are.
        for left_class, row in enumerate(pair_rows):
            left_frontier = left_frontiers[left_class]
            for right_class in row:
                if left_frontier != right_frontiers[right_class]:
                    return False
        return True
    left_results = _materialise_frontiers(left_final, left_frontiers)
    right_results = _materialise_frontiers(right_final, right_frontiers)
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
    base, final, frontiers = _frontier_classes(universe, normalised)
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
    _, forward_final, forward = _frontier_classes(universe, normalised)
    _, _, backward = _frontier_classes(universe, list(reversed(normalised)))
    transpose: list[set[int]] = [set() for _ in range(forward_final.num_classes)]
    for source, frontier in enumerate(forward):
        for target in frontier:
            transpose[target].add(source)
    return all(
        backward[target] == transpose[target]
        for target in range(forward_final.num_classes)
    )


def check_concatenation(
    universe: Universe, prefix_sets: SetSequence, suffix_sets: SetSequence
) -> bool:
    """Property 6: ``∃y: x [P1…Pm] y and y [Pm+1…Pn] z  =  x [P1…Pn] z``.

    The definitional side quantifies over the intermediates ``y``: the
    prefix image's mask↔index consistency is verified once per
    prefix-final table (memoised ``verify_consistency`` — previously this
    bit-by-bit re-derivation ran per subset pair and dominated the
    sweep), then the suffix is applied to each whole prefix frontier and
    compared against an independent stepwise fold of the full chain.
    Distinct prefix frontiers are processed once.
    """
    prefix_n = [as_process_set(entry) for entry in prefix_sets]
    suffix_n = [as_process_set(entry) for entry in suffix_sets]
    combined = prefix_n + suffix_n
    if not prefix_n or not suffix_n:
        # One side is the identity: the definitional union over {x} (or
        # over the image itself) is the composed image verbatim.
        return True
    base, prefix_final, prefix_frontiers = _frontier_classes(universe, prefix_n)
    # The definitional side materialises the intermediate image ``{y}``
    # as a mask and re-derives its classes from the class-index arrays.
    # That mask↔index re-derivation is a property of the prefix-final
    # table alone, so it is verified once per table (memoised in
    # ``verify_consistency``) instead of once per (pair, class) — the
    # O(n·pairs) bit re-derivation this sweep used to pay.
    if not prefix_final.verify_consistency():
        return False
    # The direct side is the full-chain class fold per base class —
    # exactly the combined sequence's frontiers, shared with inversion
    # and the other checkers through the per-universe frontier memo.
    _, _, combined_frontiers = _frontier_classes(universe, combined)
    via_memo: dict[frozenset[int], frozenset[int]] = {}
    for index in range(base.num_classes):
        frontier = prefix_frontiers[index]
        via_definition = via_memo.get(frontier)
        if via_definition is None:
            # Quantify over the intermediates as one batch: fold the
            # whole frontier through the suffix sets.
            via_definition = frozenset(
                fold_classes(universe, set(frontier), prefix_n[-1], suffix_n)
            )
            via_memo[frontier] = via_definition
        if via_definition != combined_frontiers[index]:
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

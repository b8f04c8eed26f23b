"""How knowledge is transferred (paper, §4.3): Theorems 4, 5, 6.

* **Theorem 4**: ``(P1 knows … Pn knows b) at x`` and ``x [P1 … Pn] y``
  imply ``(Pn knows b) at y`` — knowledge propagates along composed
  isomorphisms.
* **Lemma 4**: for ``b`` local to ``P̄``, a receive on ``P`` cannot lose
  and a send on ``P`` cannot gain ``P``'s knowledge of ``b``; internal
  events change nothing.
* **Theorem 5 (gain)**: ``x <= y``, ``¬(Pn knows b) at x`` and
  ``(P1 knows … Pn knows b) at y`` imply a process chain
  ``<Pn Pn-1 … P1>`` in ``(x, y)`` — knowledge is *gained* sequentially,
  flowing from ``Pn`` back to ``P1``; if ``b`` is local to ``P̄n``, then
  ``Pn`` has a receive event in ``(x, y)``.
* **Theorem 6 (loss)**: ``x <= y``, ``(P1 knows … Pn knows b) at x`` and
  ``¬(Pn knows b) at y`` imply a chain ``<P1 P2 … Pn>`` in ``(x, y)``;
  if ``b`` is local to ``P̄n``, then ``Pn`` has a send event in ``(x, y)``.

Each theorem gets an exhaustive checker returning the number of
*non-vacuous* instances verified (instances whose antecedent held), so
tests can assert the theorems were actually exercised.

Theorem 4 and Lemma 4 run on dense ids: Theorem 4 folds the antecedent
one ``[P1]``-class at a time through the class-adjacency graph, and
Lemma 4 scans the universe's CSR successor arrays once against a
``[p]``-class column.  The object-level checkers they replaced are kept
as oracles in :mod:`repro.knowledge.reference`.  Theorems 5 and 6 and
Lemma 4's corollaries share one walk of the ``x <= y`` pairs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.causality.chains import chain_in_suffix
from repro.core.configuration import Configuration
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.isomorphism.relation import fold_classes
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Formula, Knows, Not, Sure
from repro.knowledge.predicates import is_local_to
from repro.universe.explorer import Universe, iter_bit_ids


@dataclass(frozen=True)
class TransferReport:
    """Result of an exhaustive theorem check.

    ``checked`` counts every non-vacuous instance, failing or not; a check
    never stops at its first failure.  ``holds`` is False iff some
    instance fails, and ``counterexample`` is then the failing ``(x, y)``
    with the lowest ``(x id, y id)`` in the universe's dense ids, so a
    report does not depend on the hash seed.
    """

    checked: int
    holds: bool
    counterexample: tuple[Configuration, Configuration] | None = None


def nested_knowledge(
    sets: Sequence[ProcessSetLike], formula: Formula, sure: bool = False
) -> Formula:
    """``P1 knows P2 knows … Pn knows b`` (or with ``sure`` in place of
    ``knows``)."""
    result = formula
    for entry in reversed([as_process_set(s) for s in sets]):
        result = Sure(entry, result) if sure else Knows(entry, result)
    return result


def _check_composed_transfer(
    universe: Universe,
    antecedent: int,
    target: int,
    sets: Sequence[frozenset[ProcessId]],
) -> TransferReport:
    """Every ``x`` in ``antecedent`` and ``x [P1 … Pn] y`` imply ``y`` in
    ``target`` (both masks over dense ids).

    ``x``'s composed image depends only on its ``[P1]``-class, so the
    antecedent is grouped by class and each class is folded once along
    the class-adjacency graph (:func:`fold_classes`) and materialised
    once as a mask: a class contributes ``|class ∩ antecedent| ×
    |image|`` instances, and fails iff ``image & ~target`` is nonzero.
    """
    class_of = universe.partition_table(sets[0]).class_of
    final = universe.partition_table(sets[-1])
    lowest: dict[int, int] = {}
    members: dict[int, int] = {}
    for x_id in iter_bit_ids(antecedent):
        index = class_of[x_id]
        if index in members:
            members[index] += 1
        else:
            members[index] = 1
            lowest[index] = x_id
    checked = 0
    failure: tuple[int, int] | None = None
    for index, count in members.items():
        image = final.classes_mask(
            fold_classes(universe, {index}, sets[0], sets[1:])
        )
        checked += count * image.bit_count()
        escaped = image & ~target
        if escaped:
            pair = (lowest[index], (escaped & -escaped).bit_length() - 1)
            if failure is None or pair < failure:
                failure = pair
    return _report(universe, checked, failure)


def _report(
    universe: Universe, checked: int, failure: tuple[int, int] | None
) -> TransferReport:
    if failure is None:
        return TransferReport(checked, True)
    x_id, y_id = failure
    return TransferReport(
        checked,
        False,
        (universe.configuration_of_id(x_id), universe.configuration_of_id(y_id)),
    )


def check_theorem_4(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
    sure: bool = False,
) -> TransferReport:
    """Theorem 4 (and its ``sure`` variant, per the paper's corollary)."""
    normalised = [as_process_set(entry) for entry in sets]
    nested = nested_knowledge(normalised, formula, sure=sure)
    target = (
        Sure(normalised[-1], formula) if sure else Knows(normalised[-1], formula)
    )
    return _check_composed_transfer(
        evaluator.universe,
        evaluator.extension_mask(nested),
        evaluator.extension_mask(target),
        normalised,
    )


def check_theorem_4_negative_corollary(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
) -> TransferReport:
    """Corollary: ``(P1 knows … Pn-1 knows ¬Pn knows b) at x`` and
    ``x [P1 … Pn] y`` imply ``¬(Pn knows b) at y``.

    For ``n = 1`` the antecedent is just ``¬(Pn knows b) at x``.
    """
    normalised = [as_process_set(entry) for entry in sets]
    not_knows = Not(Knows(normalised[-1], formula))
    if len(normalised) == 1:
        antecedent: Formula = not_knows
    else:
        antecedent = nested_knowledge(normalised[:-1], not_knows)
    return _check_composed_transfer(
        evaluator.universe,
        evaluator.extension_mask(antecedent),
        evaluator.extension_mask(not_knows),
        normalised,
    )


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_bytes(mask: int, size: int) -> bytes:
    """``mask`` over ``size`` ids as one byte (0 or 1) per id."""
    return format(mask, f"0{size}b")[::-1].encode("ascii").translate(_BIT_BYTES)


_LEMMA_4_VIOLATIONS = {
    # (knows before, knows after) pairs that refute the lemma, per kind.
    "receive": {(1, 0)},
    "send": {(0, 1)},
    "internal": {(1, 0), (0, 1)},
}


def check_lemma_4(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    processes: ProcessSetLike,
) -> dict[str, TransferReport]:
    """Lemma 4: how events at ``P`` change its knowledge of a predicate
    local to ``P̄``.

    Returns one report per event kind.  The receive/send/internal cases
    are checked on every one-event transition of the universe whose event
    is on ``P``; the lemma is vacuous (0 instances) unless ``formula`` is
    local to ``P̄`` in this universe.

    One scan of the CSR successor arrays, on dense ids: an edge
    ``x → y`` appends one event to one process, so it is on ``p`` iff
    ``x`` and ``y`` lie in different ``[p]``-classes, and that event —
    the last of ``y``'s ``p``-history — has a kind fixed by ``y``'s
    ``[p]``-class, read from one materialised member per class.
    """
    universe = evaluator.universe
    p_set = as_process_set(processes)
    complement = universe.complement(p_set)
    counts = dict.fromkeys(_LEMMA_4_VIOLATIONS, 0)
    if not is_local_to(evaluator, formula, complement):
        return {kind: TransferReport(0, True) for kind in counts}
    size = len(universe)
    knowing = _bit_bytes(evaluator.extension_mask(Knows(p_set, formula)), size)
    offsets = universe._succ_offsets
    succ_ids = universe._succ_ids
    failures: dict[str, tuple[int, int]] = {}
    for process in sorted(p_set):
        class_of = universe.partition_table(frozenset((process,))).class_of
        kind_of: dict[int, str] = {}
        for x_id in range(size):
            x_class = class_of[x_id]
            before = knowing[x_id]
            for y_id in succ_ids[offsets[x_id] : offsets[x_id + 1]]:
                y_class = class_of[y_id]
                if y_class == x_class:
                    continue
                kind = kind_of.get(y_class)
                if kind is None:
                    last = universe.configuration_of_id(y_id).history(process)[-1]
                    kind = kind_of[y_class] = last.kind.value
                counts[kind] += 1
                if (before, knowing[y_id]) in _LEMMA_4_VIOLATIONS[kind]:
                    pair = (x_id, y_id)
                    if kind not in failures or pair < failures[kind]:
                        failures[kind] = pair
    return {
        kind: _report(universe, counts[kind], failures.get(kind))
        for kind in counts
    }


def _check_chains(
    universe: Universe, processes: frozenset[ProcessId], checks: Sequence[tuple]
) -> list[TransferReport]:
    """One walk of the ``x <= y`` pairs for checks ``(before, after, chain,
    kind)``: each pair with ``x`` in ``before`` and ``y`` in ``after``
    (masks over dense ids) needs ``chain`` in ``(x, y)`` unless it is
    empty, and an event on ``processes`` there whose kind has the value
    ``kind`` (``"receive"``/``"send"``) unless it is ``None``.  Returns
    one report per check."""
    size = len(universe)
    columns = [
        (_bit_bytes(before, size), _bit_bytes(after, size), chain, kind)
        for before, after, chain, kind in checks
    ]
    id_of = {configuration: index for index, configuration in enumerate(universe)}
    checked = [0] * len(checks)
    failures: list[tuple[int, int] | None] = [None] * len(checks)
    for x, y in universe.sub_configuration_pairs():
        pair = (id_of[x], id_of[y])
        kinds = None
        for index, (before, after, chain, kind) in enumerate(columns):
            if not (before[pair[0]] and after[pair[1]]):
                continue
            checked[index] += 1
            failed = bool(chain) and chain_in_suffix(y, x, chain) is None
            if not failed and kind is not None:
                if kinds is None:
                    kinds = {
                        event.kind.value
                        for process, history in y.suffix_after(x).items()
                        if process in processes
                        for event in history
                    }
                failed = kind not in kinds
            if failed:
                failures[index] = min(failures[index] or pair, pair)
    return [_report(universe, *result) for result in zip(checked, failures)]


def _check_knowledge_change(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
    gain: bool,
    check_event: bool,
) -> TransferReport:
    """Theorem 5 (``gain``) or Theorem 6 on :func:`_check_chains`."""
    universe = evaluator.universe
    normalised = [as_process_set(entry) for entry in sets]
    last = normalised[-1]
    nested = evaluator.extension_mask(nested_knowledge(normalised, formula))
    not_knows = evaluator.extension_mask(Not(Knows(last, formula)))
    kind = None
    if check_event and is_local_to(evaluator, formula, universe.complement(last)):
        kind = "receive" if gain else "send"
    if gain:
        check = (not_knows, nested, normalised[::-1], kind)
    else:
        check = (nested, not_knows, normalised, kind)
    return _check_chains(universe, last, [check])[0]


def check_theorem_5_gain(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
    check_receive: bool = True,
) -> TransferReport:
    """Theorem 5: knowledge gain requires a chain ``<Pn … P1>``.

    For every sub-configuration pair ``x <= y`` with ``¬(Pn knows b)`` at
    ``x`` and the nested knowledge at ``y``, assert the chain exists; when
    ``b`` is local to ``P̄n`` (and ``check_receive``), additionally assert
    ``Pn`` has a receive event in the suffix.
    """
    return _check_knowledge_change(evaluator, sets, formula, True, check_receive)


def check_theorem_6_loss(
    evaluator: KnowledgeEvaluator,
    sets: Sequence[ProcessSetLike],
    formula: Formula,
    check_send: bool = True,
) -> TransferReport:
    """Theorem 6: knowledge loss requires a chain ``<P1 … Pn>``.

    For every ``x <= y`` with the nested knowledge at ``x`` and
    ``¬(Pn knows b)`` at ``y``, assert the chain exists; when ``b`` is
    local to ``P̄n`` (and ``check_send``), additionally assert ``Pn`` has a
    send event in the suffix.
    """
    return _check_knowledge_change(evaluator, sets, formula, False, check_send)


def check_lemma_4_corollaries(
    evaluator: KnowledgeEvaluator,
    formula: Formula,
    processes: ProcessSetLike,
) -> dict[str, TransferReport]:
    """Lemma 4's corollaries: for ``b`` local to ``P̄``,

    * gaining ``P knows b`` across ``x <= y`` forces a receive by ``P``;
    * losing it forces a send by ``P``.
    """
    universe = evaluator.universe
    p_set = as_process_set(processes)
    if not is_local_to(evaluator, formula, universe.complement(p_set)):
        vacuous = TransferReport(0, True)
        return {"gain-receive": vacuous, "loss-send": vacuous}
    knows = evaluator.extension_mask(Knows(p_set, formula))
    ignorant = universe.full_mask & ~knows
    gain = (ignorant, knows, (), "receive")
    loss = (knows, ignorant, (), "send")
    gain, loss = _check_chains(universe, p_set, [gain, loss])
    return {"gain-receive": gain, "loss-send": loss}

"""§5(a): a process cannot track a remote local predicate exactly.

The paper shows that for a predicate ``b`` local to ``P̄``:

* ``P`` must be *unsure* about the value of ``b`` while it is undergoing
  change — exact tracking at all times is impossible;
* a necessary condition for ``P̄`` changing ``b`` is that ``P̄`` knows
  ``P unsure b`` at the point of change.

Both are verified exhaustively over the toggle universe
(:class:`repro.protocols.toggle.ToggleProtocol`): every transition that
flips the bit (read from
:func:`~repro.isomorphism.extension.edges_on` on dense ids) is inspected
for the observer's unsureness and for the owner's knowledge of that
unsureness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isomorphism.extension import edges_on
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows, Sure, unsure
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.universe.explorer import Universe


@dataclass(frozen=True)
class TrackingReport:
    """Outcome of the §5(a) checks over one toggle universe."""

    flip_transitions: int
    observer_unsure_at_every_flip: bool
    owner_knows_observer_unsure: bool
    observer_ever_sure: bool
    observer_always_sure: bool

    @property
    def tracking_impossible(self) -> bool:
        """The headline claim: the observer is not always sure."""
        return not self.observer_always_sure


def analyse_tracking(
    universe: Universe,
    evaluator: KnowledgeEvaluator | None = None,
) -> TrackingReport:
    """Run the §5(a) analysis over a toggle-protocol universe."""
    protocol = universe.protocol
    if not isinstance(protocol, ToggleProtocol):
        raise TypeError("analyse_tracking needs a ToggleProtocol universe")
    if evaluator is None:
        evaluator = KnowledgeEvaluator(universe)
    bit = bit_atom(protocol)
    observer = frozenset((protocol.observer,))
    owner = frozenset((protocol.owner,))

    bit_mask = evaluator.extension_mask(bit)
    observer_sure = evaluator.extension_mask(Sure(observer, bit))
    owner_knows_unsure = evaluator.extension_mask(
        Knows(owner, unsure(observer, bit))
    )

    flips = 0
    unsure_at_flip = True
    owner_knows = True
    for process in sorted(universe.processes):
        for _, edges in edges_on(universe, process):
            for x_id, y_id in edges:
                if (bit_mask >> x_id ^ bit_mask >> y_id) & 1 == 0:
                    continue
                flips += 1
                if observer_sure >> x_id & 1:
                    unsure_at_flip = False
                if not owner_knows_unsure >> x_id & 1:
                    owner_knows = False
    return TrackingReport(
        flip_transitions=flips,
        observer_unsure_at_every_flip=unsure_at_flip,
        owner_knows_observer_unsure=owner_knows,
        observer_ever_sure=observer_sure != 0,
        observer_always_sure=observer_sure == universe.full_mask,
    )


def tracking_error_window(
    universe: Universe,
    evaluator: KnowledgeEvaluator | None = None,
) -> dict[int, tuple[int, int]]:
    """Sureness statistics by configuration size.

    Returns ``{size: (sure_count, total_count)}`` — the fraction of
    configurations of each size at which the observer is sure of the bit.
    The window where the fraction dips below 1 is the uncertainty the
    paper predicts.
    """
    protocol = universe.protocol
    if not isinstance(protocol, ToggleProtocol):
        raise TypeError("tracking_error_window needs a ToggleProtocol universe")
    if evaluator is None:
        evaluator = KnowledgeEvaluator(universe)
    bit = bit_atom(protocol)
    observer_sure = evaluator.extension(Sure({protocol.observer}, bit))
    stats: dict[int, tuple[int, int]] = {}
    for configuration in universe:
        size = len(configuration)
        sure_count, total = stats.get(size, (0, 0))
        stats[size] = (
            sure_count + (1 if configuration in observer_sure else 0),
            total + 1,
        )
    return dict(sorted(stats.items()))

"""A toggling local bit with a remote observer (for §5(a), experiment E10).

Process ``owner`` owns a boolean ``bit`` (a predicate local to the owner)
which it flips with internal events, up to ``max_flips`` times; after each
flip it may — but need not — report the new value to ``observer``.

The paper's §5(a) claims:

* the observer cannot track the bit exactly at all times — it must be
  *unsure* of the value while the bit is undergoing change;
* a necessary condition for the owner flipping the bit is that the owner
  knows the observer is unsure of it at the point of change.

Both are checked in :mod:`repro.applications.tracking` over this
protocol's universe.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.events import Event, InternalEvent, SendEvent
from repro.core.process import ProcessId
from repro.knowledge.formula import Atom
from repro.universe.protocol import History, Protocol

FLIP_TAG = "flip"
REPORT_TAG = "report"


class ToggleProtocol(Protocol):
    """One owner flipping a bit, one observer receiving optional reports."""

    def __init__(
        self,
        owner: ProcessId = "p",
        observer: ProcessId = "q",
        max_flips: int = 2,
        report: bool = True,
    ) -> None:
        super().__init__((owner, observer))
        self.owner = owner
        self.observer = observer
        self.max_flips = max_flips
        self.report = report

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def bit_value(self, history: History) -> bool:
        """The owner's bit: false initially, flipped by each flip event."""
        flips = sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == FLIP_TAG
        )
        return flips % 2 == 1

    def _flips(self, history: History) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == FLIP_TAG
        )

    def _reports(self, history: History) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == REPORT_TAG
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if process != self.owner:
            return
        flips = self._flips(history)
        if flips < self.max_flips:
            yield self.next_internal(history, process, FLIP_TAG)
        if self.report and self._reports(history) < flips:
            message = self.next_message(
                history,
                self.owner,
                self.observer,
                REPORT_TAG,
                payload=self.bit_value(history),
            )
            yield self.send_of(message)


def bit_atom(protocol: ToggleProtocol) -> Atom:
    """The owner's bit as a knowledge atom (local to the owner)."""

    return Atom.of_history(
        f"bit({protocol.owner})", protocol.owner, protocol.bit_value
    )

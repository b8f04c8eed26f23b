"""Crash failures (paper, §5(b) substrate).

:class:`CrashableProtocol` wraps any protocol so that each process in
``crashable`` may take a ``crash`` internal event at any point of its
computation; a crashed process takes no further steps and receives no
further messages (messages addressed to it stay in flight forever).

Two facts the paper's §5(b) argument needs are modelled exactly:

* the crash is an *internal* event — failure of a process is local to the
  process, invisible to everyone else;
* a crashed process never sends again.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.events import Event, InternalEvent, Message
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.knowledge.formula import Atom
from repro.universe.protocol import History, Protocol

CRASH_TAG = "crash"


def crash_event(history: History, process: ProcessId) -> InternalEvent:
    """The crash event of ``process`` after ``history``."""
    seq = sum(
        1
        for event in history
        if isinstance(event, InternalEvent) and event.tag == CRASH_TAG
    )
    return InternalEvent(process=process, tag=CRASH_TAG, seq=seq)


def has_crashed(history: History) -> bool:
    """True iff the history contains a crash event."""
    return any(
        isinstance(event, InternalEvent) and event.tag == CRASH_TAG
        for event in history
    )


class CrashableProtocol(Protocol):
    """Wrap ``base`` so the given processes may crash at any time.

    ``max_crashes`` bounds the *total* number of crash events so wrapped
    universes stay finite (each process crashes at most once anyway).
    """

    def __init__(
        self,
        base: Protocol,
        crashable: ProcessSetLike | None = None,
    ) -> None:
        super().__init__(base.processes)
        self.base = base
        self.crashable = (
            as_process_set(crashable)
            if crashable is not None
            else base.processes
        )
        if not self.crashable <= base.processes:
            raise ValueError("crashable processes must belong to the protocol")

    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if has_crashed(history):
            return
        if process in self.crashable:
            yield crash_event(history, process)
        yield from self.base.local_steps(process, history)

    def can_receive(
        self, process: ProcessId, history: History, message: Message
    ) -> bool:
        if has_crashed(history):
            return False
        return self.base.can_receive(process, history, message)


def crashed_atom(process: ProcessId) -> Atom:
    """``process has crashed`` as a knowledge atom (local to the process)."""

    return Atom.of_history(f"{process} crashed", process, has_crashed)

"""Failure monitoring with and without timeouts (paper, §5(b)).

The paper proves that detecting a process failure is impossible without
timeouts: failure is a predicate *local to the failed process*, and a
failed process sends no messages afterwards — so by the knowledge-gain
theorem the monitor can never become sure of it.

Two protocols make both halves executable:

* :class:`AsyncFailureMonitorProtocol` — a worker sends heartbeats and may
  crash at any moment; the monitor passively receives.  Over this
  universe the monitor is *unsure* of the crash at every configuration
  (checked by :mod:`repro.applications.failure_detection`).
* :class:`SyncFailureMonitorProtocol` — the same system under a synchrony
  assumption, modelled by a timer process whose ``tick r`` may only be
  *emitted* after the worker's round-``r`` heartbeat has been sent or the
  worker has crashed, and may only be *received* after the heartbeat has
  been received (bounded delivery delay).  Receiving ``tick r`` without
  the heartbeat therefore lets the monitor conclude the crash — a
  timeout.  This restricts the computation set globally, which is exactly
  how synchrony assumptions enter the Chandy–Misra model (the system is
  characterised by its set of computations).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.configuration import Configuration
from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.universe.protocol import History, Protocol

HEARTBEAT_TAG = "heartbeat"
TICK_TAG = "tick"
CRASH_TAG = "crash"


class AsyncFailureMonitorProtocol(Protocol):
    """Asynchronous worker/monitor pair; the worker may crash silently."""

    def __init__(
        self,
        worker: ProcessId = "w",
        monitor: ProcessId = "m",
        heartbeats: int = 2,
    ) -> None:
        super().__init__((worker, monitor))
        self.worker = worker
        self.monitor = monitor
        self.heartbeats = heartbeats

    def crashed(self, history: History) -> bool:
        """Has the worker crashed in this local history?"""
        return any(
            isinstance(event, InternalEvent) and event.tag == CRASH_TAG
            for event in history
        )

    def _heartbeats_sent(self, history: History) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == HEARTBEAT_TAG
        )

    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if process != self.worker or self.crashed(history):
            return
        yield InternalEvent(process=process, tag=CRASH_TAG, seq=0)
        sent = self._heartbeats_sent(history)
        if sent < self.heartbeats:
            message = self.next_message(
                history, self.worker, self.monitor, HEARTBEAT_TAG
            )
            yield self.send_of(message)

    def can_receive(self, process, history, message) -> bool:
        if process == self.worker and self.crashed(history):
            return False
        return True

    def crashed_atom(self):
        """``the worker has crashed`` — local to the worker."""
        from repro.knowledge.formula import Atom

        return Atom.of_history(f"{self.worker} crashed", self.worker, self.crashed)


class SyncFailureMonitorProtocol(Protocol):
    """The worker/monitor pair under a synchrony (timeout) assumption.

    Round ``r`` (0-based): the worker, if alive, sends ``heartbeat r``;
    the timer may send ``tick r`` to the monitor only once the heartbeat
    of round ``r`` has been *sent or can never be sent* (worker crashed),
    and the monitor may receive ``tick r`` only after receiving
    ``heartbeat r`` — unless the worker crashed before sending it.  Thus
    ``tick r`` without ``heartbeat r`` is a sound timeout signal.
    """

    def __init__(
        self,
        worker: ProcessId = "w",
        monitor: ProcessId = "m",
        timer: ProcessId = "clock",
        rounds: int = 2,
    ) -> None:
        super().__init__((worker, monitor, timer))
        self.worker = worker
        self.monitor = monitor
        self.timer = timer
        self.rounds = rounds

    # ------------------------------------------------------------------
    # Local state helpers
    # ------------------------------------------------------------------
    def crashed(self, history: History) -> bool:
        return any(
            isinstance(event, InternalEvent) and event.tag == CRASH_TAG
            for event in history
        )

    @staticmethod
    def _sends(history: History, tag: str) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == tag
        )

    @staticmethod
    def _receives(history: History, tag: str) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, ReceiveEvent) and event.message.tag == tag
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if process == self.worker:
            if self.crashed(history):
                return
            yield InternalEvent(process=process, tag=CRASH_TAG, seq=0)
            sent = self._sends(history, HEARTBEAT_TAG)
            if sent < self.rounds:
                message = self.next_message(
                    history, self.worker, self.monitor, HEARTBEAT_TAG
                )
                yield self.send_of(message)
        elif process == self.timer:
            ticks = self._sends(history, TICK_TAG)
            if ticks < self.rounds:
                message = self.next_message(
                    history, self.timer, self.monitor, TICK_TAG, payload=ticks
                )
                yield self.send_of(message)

    def filter_enabled_events(
        self, configuration: Configuration, events
    ) -> list[Event]:
        """Apply the synchrony restrictions on top of the base enabling.

        Expressed as a declarative *filter* (not an ``enabled_events``
        override) so the protocol rides the compiled step tables and the
        exploration kernel's fast path; the step-table suite
        equivalence-tests the filtered kernel against the
        ``enabled_events`` oracle.
        """
        worker_history = configuration.history(self.worker)
        heartbeats_sent = self._sends(worker_history, HEARTBEAT_TAG)
        worker_crashed = self.crashed(worker_history)
        monitor_history = configuration.history(self.monitor)
        heartbeats_received = self._receives(monitor_history, HEARTBEAT_TAG)

        filtered = []
        for event in events:
            if isinstance(event, SendEvent) and event.message.tag == TICK_TAG:
                round_index = event.message.payload
                # tick r only after heartbeat r exists or never will.
                if not (heartbeats_sent > round_index or worker_crashed):
                    continue
            if isinstance(event, ReceiveEvent) and event.message.tag == TICK_TAG:
                round_index = event.message.payload
                # bounded delay: heartbeat r beats tick r to the monitor,
                # unless it was never sent.
                if not (
                    heartbeats_received > round_index
                    or heartbeats_sent <= round_index
                ):
                    continue
            filtered.append(event)
        return filtered

    def crashed_atom(self):
        """``the worker has crashed`` — local to the worker."""
        from repro.knowledge.formula import Atom

        return Atom.of_history(f"{self.worker} crashed", self.worker, self.crashed)

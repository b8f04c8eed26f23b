"""Two-phase commit, analysed through knowledge preconditions.

A classic illustration of the paper's programme: *actions require
knowledge*.  A participant may commit only when it knows every
participant voted yes; the coordinator's decision message is precisely
the communication that creates that knowledge (via a process chain
``<participant … coordinator … participant>``), and — by the
common-knowledge corollary — the outcome never becomes common knowledge,
which is the knowledge-theoretic root of the protocol's blocking
behaviour.

Protocol: every participant nondeterministically votes yes or no
(an internal event) and reports its vote to the coordinator; once all
votes are in, the coordinator broadcasts ``commit`` (all yes) or
``abort`` (otherwise); participants apply the decision with an internal
event.  The computation space is finite and completely explorable for a
handful of participants.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.configuration import Configuration
from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.knowledge.formula import Atom, Formula
from repro.universe.protocol import History, Protocol

VOTE_TAG = "vote"
DECISION_TAG = "decision"
VOTE_EVENT_TAG = "cast"
APPLY_TAG = "apply"


class TwoPhaseCommitProtocol(Protocol):
    """One coordinator, ``participants`` voters, nondeterministic votes."""

    def __init__(
        self,
        participants: Sequence[ProcessId] = ("p1", "p2"),
        coordinator: ProcessId = "coord",
    ) -> None:
        if coordinator in participants:
            raise ValueError("the coordinator cannot also be a participant")
        if len(participants) < 1:
            raise ValueError("at least one participant is required")
        super().__init__(tuple(participants) + (coordinator,))
        self.participants = tuple(participants)
        self.coordinator = coordinator

    # ------------------------------------------------------------------
    # Local state helpers
    # ------------------------------------------------------------------
    @staticmethod
    def vote_of(history: History) -> bool | None:
        """The participant's cast vote, or ``None`` if not yet cast."""
        for event in history:
            if isinstance(event, InternalEvent) and event.tag == VOTE_EVENT_TAG:
                return bool(event.payload)
        return None

    @staticmethod
    def _vote_sent(history: History) -> bool:
        return any(
            isinstance(event, SendEvent) and event.message.tag == VOTE_TAG
            for event in history
        )

    @staticmethod
    def decision_received(history: History) -> bool | None:
        """The decision this participant received (True = commit)."""
        for event in history:
            if isinstance(event, ReceiveEvent) and event.message.tag == DECISION_TAG:
                return bool(event.message.payload)
        return None

    @staticmethod
    def applied(history: History) -> bool | None:
        """The decision this participant applied, or ``None``."""
        for event in history:
            if isinstance(event, InternalEvent) and event.tag == APPLY_TAG:
                return bool(event.payload)
        return None

    def votes_received(self, history: History) -> dict[ProcessId, bool]:
        """Coordinator view: votes collected so far."""
        votes: dict[ProcessId, bool] = {}
        for event in history:
            if isinstance(event, ReceiveEvent) and event.message.tag == VOTE_TAG:
                votes[event.message.sender] = bool(event.message.payload)
        return votes

    def _decisions_sent(self, history: History) -> frozenset[ProcessId]:
        return frozenset(
            event.message.receiver
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == DECISION_TAG
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if process == self.coordinator:
            yield from self._coordinator_steps(history)
        else:
            yield from self._participant_steps(process, history)

    def _participant_steps(
        self, process: ProcessId, history: History
    ) -> Iterable[Event]:
        vote = self.vote_of(history)
        if vote is None:
            # Nondeterministic choice: both votes are enabled.
            yield InternalEvent(process=process, tag=VOTE_EVENT_TAG, payload=True)
            yield InternalEvent(process=process, tag=VOTE_EVENT_TAG, payload=False)
            return
        if not self._vote_sent(history):
            message = self.next_message(
                history, process, self.coordinator, VOTE_TAG, payload=vote
            )
            yield self.send_of(message)
            return
        decision = self.decision_received(history)
        if decision is not None and self.applied(history) is None:
            yield InternalEvent(process=process, tag=APPLY_TAG, payload=decision)

    def _coordinator_steps(self, history: History) -> Iterable[Event]:
        votes = self.votes_received(history)
        if len(votes) < len(self.participants):
            return
        decision = all(votes.values())
        already = self._decisions_sent(history)
        for participant in self.participants:
            if participant not in already:
                message = self.next_message(
                    history,
                    self.coordinator,
                    participant,
                    DECISION_TAG,
                    payload=decision,
                )
                yield self.send_of(message)
                return  # one decision message at a time

    # ------------------------------------------------------------------
    # Knowledge atoms
    # ------------------------------------------------------------------
    def all_voted_yes(self) -> Atom:
        """Every participant has cast a *yes* vote."""

        def fn(configuration: Configuration) -> bool:
            return all(
                self.vote_of(configuration.history(participant)) is True
                for participant in self.participants
            )

        return Atom("all voted yes", fn)

    def voted_atom(self, participant: ProcessId, value: bool) -> Atom:
        """``participant`` has cast the given vote."""

        def predicate(history: History) -> bool:
            return self.vote_of(history) is value

        return Atom.of_history(
            f"{participant} voted {'yes' if value else 'no'}", participant, predicate
        )

    def committed_atom(self, participant: ProcessId) -> Atom:
        """``participant`` has applied a commit decision."""

        def predicate(history: History) -> bool:
            return self.applied(history) is True

        return Atom.of_history(f"{participant} committed", participant, predicate)

    def any_committed(self) -> Formula:
        """Some participant has applied a commit."""
        result: Formula | None = None
        for participant in self.participants:
            clause = self.committed_atom(participant)
            result = clause if result is None else result | clause
        assert result is not None
        return result

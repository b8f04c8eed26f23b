"""Chang–Roberts leader election on a unidirectional ring.

A classic chain-building workload for the simulator benchmarks: every
process injects its identifier; identifiers travel clockwise; a process
forwards only identifiers greater than its own; the process that sees its
own identifier return is the leader and announces itself.

The announcement is a textbook knowledge-gain event — the winner *knows*
it has the maximum id precisely because a process chain visited every
station (its candidature circulated the whole ring), making this protocol
a natural workload for the knowledge-flow measurements (experiment E9 at
scale) and for simulator tests at O(n^2) message counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.configuration import Configuration
from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.universe.protocol import History, Protocol

CANDIDATE_TAG = "candidate"
LEADER_TAG = "leader"


class ChangRobertsProtocol(Protocol):
    """Leader election on the ring ``ring`` with identities ``rank``.

    Ranks default to each process's position in ``ring`` — pass an
    explicit mapping to control the winner and message complexity (the
    worst case, ids in descending ring order, costs O(n^2) messages).
    """

    def __init__(
        self,
        ring: Sequence[ProcessId],
        ranks: dict[ProcessId, int] | None = None,
    ) -> None:
        if len(ring) < 2:
            raise ValueError("a ring needs at least two processes")
        super().__init__(ring)
        self.ring = tuple(ring)
        if ranks is None:
            ranks = {process: index for index, process in enumerate(self.ring)}
        if set(ranks) != set(self.ring):
            raise ValueError("ranks must cover exactly the ring's processes")
        if len(set(ranks.values())) != len(self.ring):
            raise ValueError("ranks must be distinct")
        self.ranks = dict(ranks)

    def successor(self, process: ProcessId) -> ProcessId:
        index = self.ring.index(process)
        return self.ring[(index + 1) % len(self.ring)]

    # ------------------------------------------------------------------
    # Local state helpers
    # ------------------------------------------------------------------
    def _sent_payloads(self, history: History) -> set[int]:
        return {
            event.message.payload
            for event in history
            if isinstance(event, SendEvent)
            and event.message.tag == CANDIDATE_TAG
        }

    def _pending_forwards(self, history: History) -> list[int]:
        """Received candidate ranks that still must be forwarded."""
        forwards: list[int] = []
        sent = self._sent_payloads(history)
        for event in history:
            if (
                isinstance(event, ReceiveEvent)
                and event.message.tag == CANDIDATE_TAG
            ):
                rank = event.message.payload
                if rank > self.ranks[event.process] and rank not in sent:
                    forwards.append(rank)
        return forwards

    def is_leader(self, process: ProcessId, history: History) -> bool:
        """Has this process seen its own identifier come back around?"""
        return any(
            isinstance(event, ReceiveEvent)
            and event.message.tag == CANDIDATE_TAG
            and event.message.payload == self.ranks[process]
            for event in history
        )

    def has_announced(self, history: History) -> bool:
        return any(
            isinstance(event, InternalEvent) and event.tag == LEADER_TAG
            for event in history
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        sent = self._sent_payloads(history)
        own_rank = self.ranks[process]
        if own_rank not in sent and not self.is_leader(process, history):
            message = self.next_message(
                history,
                process,
                self.successor(process),
                CANDIDATE_TAG,
                payload=own_rank,
            )
            yield self.send_of(message)
        for rank in self._pending_forwards(history):
            message = self.next_message(
                history,
                process,
                self.successor(process),
                CANDIDATE_TAG,
                payload=rank,
            )
            yield self.send_of(message)
            break  # forward one at a time, in arrival order
        if self.is_leader(process, history) and not self.has_announced(history):
            yield self.next_internal(history, process, LEADER_TAG)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def elected_leader(self, configuration: Configuration) -> ProcessId | None:
        """The announced leader, if the election has finished."""
        for process in self.ring:
            if self.has_announced(configuration.history(process)):
                return process
        return None

    @staticmethod
    def message_count(configuration: Configuration) -> int:
        """Candidate messages sent (the protocol's complexity measure)."""
        return sum(
            1
            for event in configuration.events()
            if isinstance(event, SendEvent)
            and event.message.tag == CANDIDATE_TAG
        )

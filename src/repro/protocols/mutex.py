"""Token-based mutual exclusion, with knowledge-based safety.

The token ring is the simplest protocol whose safety argument is
literally epistemic: a process enters the critical section only while
holding the token, and *because* token possession is local and unique,

    ``p in CS  ⇒  p knows ¬(q in CS)``   for every other station q

— the process doesn't merely happen to be alone; it *knows* it is.  The
checkers make that argument mechanical (experiment E14's protocol
corpus).

Behaviour: a single token circulates a ring; the holder may either
forward it, or enter the critical section (internal ``enter``), do a
critical step, and ``exit`` before forwarding.  A bounded hop count keeps
the universe finite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Atom, Implies, Knows, Not
from repro.universe.explorer import Universe
from repro.universe.protocol import History, Protocol

TOKEN_TAG = "token"
ENTER_TAG = "enter"
EXIT_TAG = "exit"


class TokenRingMutexProtocol(Protocol):
    """Mutual exclusion on the ring ``stations`` with ``max_hops`` token
    forwardings and at most ``max_sessions`` critical sections per
    station."""

    def __init__(
        self,
        stations: Sequence[ProcessId] = ("p", "q", "r"),
        max_hops: int = 3,
        max_sessions: int = 1,
    ) -> None:
        if len(stations) < 2:
            raise ValueError("a ring needs at least two stations")
        super().__init__(stations)
        self.stations = tuple(stations)
        self.max_hops = max_hops
        self.max_sessions = max_sessions

    def successor(self, process: ProcessId) -> ProcessId:
        index = self.stations.index(process)
        return self.stations[(index + 1) % len(self.stations)]

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def holds_token(self, process: ProcessId, history: History) -> bool:
        received = sum(
            1
            for event in history
            if isinstance(event, ReceiveEvent) and event.message.tag == TOKEN_TAG
        )
        sent = sum(
            1
            for event in history
            if isinstance(event, SendEvent) and event.message.tag == TOKEN_TAG
        )
        if process == self.stations[0]:
            return received == sent
        return received == sent + 1

    def in_critical_section(self, process: ProcessId, history: History) -> bool:
        enters = sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == ENTER_TAG
        )
        exits = sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == EXIT_TAG
        )
        return enters > exits

    def _sessions(self, history: History) -> int:
        return sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == ENTER_TAG
        )

    def _token_hop(self, history: History) -> int:
        for event in reversed(history):
            if isinstance(event, ReceiveEvent) and event.message.tag == TOKEN_TAG:
                return int(event.message.payload)
        return 0

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        if not self.holds_token(process, history):
            return
        if self.in_critical_section(process, history):
            yield self.next_internal(history, process, EXIT_TAG)
            return
        if self._sessions(history) < self.max_sessions:
            yield self.next_internal(history, process, ENTER_TAG)
        hop = self._token_hop(history)
        if hop < self.max_hops:
            message = self.next_message(
                history,
                process,
                self.successor(process),
                TOKEN_TAG,
                payload=hop + 1,
            )
            yield self.send_of(message)

    def step_shape(self, process: ProcessId, history: History) -> object:
        """Steps depend on (enter/exit counts, hop, token sends) only.

        The event seqs are exactly those counters: exit seq = exits so
        far, enter seq = enters so far, token seq = sends so far (all to
        the one ring successor).  Stations without the token collapse to
        one shape.
        """
        received = sent = enters = exits = 0
        hop = 0
        for event in history:
            if isinstance(event, ReceiveEvent):
                if event.message.tag == TOKEN_TAG:
                    received += 1
                    hop = int(event.message.payload)
            elif isinstance(event, SendEvent):
                if event.message.tag == TOKEN_TAG:
                    sent += 1
            elif event.tag == ENTER_TAG:
                enters += 1
            elif event.tag == EXIT_TAG:
                exits += 1
        holds = received == sent if process == self.stations[0] else (
            received == sent + 1
        )
        if not holds:
            return False
        return (enters, exits, hop, sent)

    # ------------------------------------------------------------------
    # Atoms and checkers
    # ------------------------------------------------------------------
    def in_cs_atom(self, process: ProcessId) -> Atom:
        """``process`` is inside its critical section."""

        def predicate(history: History) -> bool:
            return self.in_critical_section(process, history)

        return Atom.of_history(f"{process} in CS", process, predicate)


def check_mutual_exclusion(universe: Universe) -> dict[str, bool | int]:
    """Safety and its epistemic strengthening, over a complete universe.

    * ``safe``: never two stations in the critical section at once;
    * ``epistemic``: whenever a station is in its critical section, it
      *knows* no other station is in one;
    * ``sessions``: number of configurations with someone in a critical
      section (non-vacuity witness).
    """
    protocol = universe.protocol
    if not isinstance(protocol, TokenRingMutexProtocol):
        raise TypeError("check_mutual_exclusion needs a TokenRingMutexProtocol")
    evaluator = KnowledgeEvaluator(universe)

    safe = True
    sessions = 0
    for configuration in universe:
        inside = [
            station
            for station in protocol.stations
            if protocol.in_critical_section(
                station, configuration.history(station)
            )
        ]
        if inside:
            sessions += 1
        if len(inside) > 1:
            safe = False

    epistemic = True
    for station in protocol.stations:
        in_cs = protocol.in_cs_atom(station)
        for other in protocol.stations:
            if other == station:
                continue
            claim = Implies(in_cs, Knows(station, Not(protocol.in_cs_atom(other))))
            if not evaluator.is_valid(claim):
                epistemic = False
    return {"safe": safe, "epistemic": epistemic, "sessions": sessions}

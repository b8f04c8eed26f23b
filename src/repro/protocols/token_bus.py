"""The token bus of §4.1: nested knowledge along a line of processes.

A token bus is a linear sequence of processes among which a single token
is passed back and forth; boundary processes have one neighbour, inner
processes may send either way.  Initially the leftmost process holds the
token.  The paper's example: with five processes ``p q r s t``, whenever
``r`` holds the token,

    ``r knows ( (q knows ¬(p holds)) and (s knows ¬(t holds)) )``.

:func:`paper_example_formula` builds exactly that formula (for any bus)
and :func:`check_paper_example` verifies it over the explored universe —
experiment E7.

To keep the computation space finite the token carries a hop count and
may be forwarded at most ``max_hops`` times; the knowledge property is
independent of the bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.events import Event, ReceiveEvent, SendEvent
from repro.core.process import ProcessId
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import And, Atom, Formula, Implies, Knows, Not
from repro.universe.explorer import Universe
from repro.universe.protocol import History, Protocol

TOKEN_TAG = "token"


class TokenBusProtocol(Protocol):
    """A token bus over ``stations`` (left to right), bounded by
    ``max_hops`` forwardings of the token."""

    def __init__(
        self, stations: Sequence[ProcessId] = ("p", "q", "r", "s", "t"),
        max_hops: int = 4,
    ) -> None:
        if len(stations) < 2:
            raise ValueError("a token bus needs at least two stations")
        if len(set(stations)) != len(stations):
            raise ValueError("station names must be distinct")
        super().__init__(stations)
        self.stations = tuple(stations)
        self.max_hops = max_hops

    # ------------------------------------------------------------------
    # Local state from history
    # ------------------------------------------------------------------
    def _neighbours(self, process: ProcessId) -> tuple[ProcessId, ...]:
        index = self.stations.index(process)
        neighbours = []
        if index > 0:
            neighbours.append(self.stations[index - 1])
        if index < len(self.stations) - 1:
            neighbours.append(self.stations[index + 1])
        return tuple(neighbours)

    def holds_token(self, process: ProcessId, history: History) -> bool:
        """Token possession derived from the local history alone.

        The leftmost station starts with the token; thereafter a station
        holds it iff it has received the token one more time than it has
        sent it (or, for the initial holder, equally often).
        """
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

    def _current_hop(self, history: History) -> int:
        """Hop count of the token currently held (payload of the last
        token receive, or 0 for the initial holder)."""
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
        hop = self._current_hop(history)
        if hop >= self.max_hops:
            return
        for neighbour in self._neighbours(process):
            message = self.next_message(
                history, process, neighbour, TOKEN_TAG, payload=hop + 1
            )
            yield self.send_of(message)

    def step_shape(self, process: ProcessId, history: History) -> object:
        """Steps depend on (holding, current hop, per-neighbour send
        counts) only — idle stations collapse to one shape."""
        received = sent = 0
        hop = 0
        sent_to: dict[ProcessId, int] = {}
        for event in history:
            if isinstance(event, ReceiveEvent):
                if event.message.tag == TOKEN_TAG:
                    received += 1
                    hop = int(event.message.payload)
            elif isinstance(event, SendEvent) and event.message.tag == TOKEN_TAG:
                sent += 1
                receiver = event.message.receiver
                sent_to[receiver] = sent_to.get(receiver, 0) + 1
        holds = received == sent if process == self.stations[0] else (
            received == sent + 1
        )
        if not holds or hop >= self.max_hops:
            return False
        return (hop, tuple(sorted(sent_to.items())))


# ----------------------------------------------------------------------
# Predicates and the paper's example
# ----------------------------------------------------------------------
def holds_token_atom(protocol: TokenBusProtocol, process: ProcessId) -> Atom:
    """``process holds the token`` as a knowledge atom."""

    def predicate(history: History) -> bool:
        return protocol.holds_token(process, history)

    return Atom.of_history(f"{process} holds token", process, predicate)


def paper_example_formula(protocol: TokenBusProtocol) -> Formula:
    """The §4.1 claim, generalised to any bus of length >= 5.

    With stations ``p q r s t`` (the middle five if longer):

        ``(r holds) ⇒ r knows ((q knows ¬(p holds)) ∧ (s knows ¬(t holds)))``
    """
    if len(protocol.stations) < 5:
        raise ValueError("the paper's example needs at least five stations")
    p, q, r, s, t = protocol.stations[:5]
    r_holds = holds_token_atom(protocol, r)
    q_knows = Knows({q}, Not(holds_token_atom(protocol, p)))
    s_knows = Knows({s}, Not(holds_token_atom(protocol, t)))
    return Implies(r_holds, Knows({r}, And(q_knows, s_knows)))


def check_paper_example(
    universe: Universe, evaluator: KnowledgeEvaluator | None = None
) -> dict[str, int | bool]:
    """Verify the §4.1 example over a token-bus universe.

    Returns the verdict together with the number of configurations in
    which ``r`` actually holds the token (non-vacuity witness).
    """
    protocol = universe.protocol
    if not isinstance(protocol, TokenBusProtocol):
        raise TypeError("check_paper_example needs a token-bus universe")
    if evaluator is None:
        evaluator = KnowledgeEvaluator(universe)
    formula = paper_example_formula(protocol)
    r = protocol.stations[2]
    r_holds = holds_token_atom(protocol, r)
    return {
        "valid": evaluator.is_valid(formula),
        "r_holds_count": len(evaluator.extension(r_holds)),
        "universe_size": len(universe),
    }

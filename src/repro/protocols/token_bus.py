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

from repro.core.events import Event, Message
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
        holds it iff its last event received it.
        """
        return self._held_hop(process, history) is not None

    def _held_hop(self, process: ProcessId, history: History) -> int | None:
        """Hop count of the token ``process`` holds (payload of its last
        receive, or 0 for the initial holder), or ``None`` if it holds none.

        Every event is a token send or receive, and a station's receives
        and sends alternate, so the last event decides: one read,
        whatever the history's length.
        """
        if not history:
            return 0 if process == self.stations[0] else None
        last = history[-1]
        return int(last.message.payload) if last.is_receive else None

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        """Forward the held token to either neighbour.  A token message is
        numbered by its hop (``seq`` and ``payload - 1``), which is
        distinct along any computation, so no earlier send is counted."""
        hop = self._held_hop(process, history)
        if hop is None or hop >= self.max_hops:
            return
        for neighbour in self._neighbours(process):
            message = Message(
                sender=process,
                receiver=neighbour,
                tag=TOKEN_TAG,
                seq=hop,
                payload=hop + 1,
            )
            yield self.send_of(message)

    def step_shape(self, process: ProcessId, history: History) -> object:
        """Steps depend on the held hop only — idle stations collapse to
        one shape."""
        hop = self._held_hop(process, history)
        if hop is None or hop >= self.max_hops:
            return False
        return (hop,)


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

"""Shared fixtures: small complete universes and their evaluators.

Universes are session-scoped — they are immutable once explored, and
several test modules quantify over the same ones.
"""

from __future__ import annotations

import pytest

from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.protocols.broadcast import BroadcastProtocol, line_topology
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.toggle import ToggleProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.explorer import Universe


@pytest.fixture(scope="session")
def pingpong_universe() -> Universe:
    """Two rounds of ping/pong between p and q (9 configurations)."""
    return Universe(PingPongProtocol(rounds=2))


@pytest.fixture(scope="session")
def pingpong_evaluator(pingpong_universe: Universe) -> KnowledgeEvaluator:
    return KnowledgeEvaluator(pingpong_universe)


@pytest.fixture(scope="session")
def broadcast_universe() -> Universe:
    """A fact flooding down the line a - b - c."""
    return Universe(BroadcastProtocol(line_topology(("a", "b", "c")), root="a"))


@pytest.fixture(scope="session")
def broadcast_evaluator(broadcast_universe: Universe) -> KnowledgeEvaluator:
    return KnowledgeEvaluator(broadcast_universe)


@pytest.fixture(scope="session")
def token_bus_universe() -> Universe:
    """The paper's five-station token bus, three hops."""
    return Universe(TokenBusProtocol(max_hops=3))


@pytest.fixture(scope="session")
def token_bus_evaluator(token_bus_universe: Universe) -> KnowledgeEvaluator:
    return KnowledgeEvaluator(token_bus_universe)


@pytest.fixture(scope="session")
def toggle_universe() -> Universe:
    """An owner flipping a bit twice, reporting to an observer."""
    return Universe(ToggleProtocol(max_flips=2))


@pytest.fixture(scope="session")
def toggle_evaluator(toggle_universe: Universe) -> KnowledgeEvaluator:
    return KnowledgeEvaluator(toggle_universe)


@pytest.fixture
def fold_calls(monkeypatch) -> list[int]:
    """``[n]``: the class folds behind the composed-frontier memo, counted
    from the test's start."""
    from repro.isomorphism import relation

    calls = [0]
    fold = relation.fold_classes

    def counted(*args):
        calls[0] += 1
        return fold(*args)

    monkeypatch.setattr(relation, "fold_classes", counted)
    return calls

"""Knowledge flow at scale: chains carry knowledge (Theorems 5/6 applied).

The exhaustive checkers of :mod:`repro.knowledge.transfer` verify the
gain/loss theorems on complete universes; this module measures the same
phenomenon on *large simulated runs*, where exhaustive knowledge
evaluation is out of reach but the chain structure is directly
observable:

* in a broadcast over a line of ``n`` processes, process at distance
  ``d`` learns the fact only once a process chain ``<root … it>`` of
  length ``d`` has formed — the earliest learning step grows with
  distance (:func:`broadcast_knowledge_latency`);
* :func:`verify_chain_gating` confirms, event by event, that a process
  knows the fact *iff* the chain from the root has reached it — the
  operational shadow of Theorem 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.causality.chains import has_process_chain
from repro.core.process import ProcessId
from repro.protocols.broadcast import BroadcastProtocol, line_topology
from repro.simulation.scheduler import RandomScheduler, Scheduler
from repro.simulation.simulator import simulate
from repro.simulation.trace import SimulationTrace


@dataclass(frozen=True)
class LatencyRow:
    """Earliest learning step of one process in a broadcast run."""

    process: ProcessId
    distance: int
    learned_at_step: int | None


def broadcast_knowledge_latency(
    line_length: int = 8,
    seed: int = 0,
    scheduler: Scheduler | None = None,
) -> tuple[list[LatencyRow], SimulationTrace]:
    """Run a line broadcast; report when each process learns the fact."""
    names = tuple(f"n{i}" for i in range(line_length))
    protocol = BroadcastProtocol(line_topology(names), root=names[0])
    trace = simulate(protocol, scheduler or RandomScheduler(seed))
    rows: list[LatencyRow] = []
    for distance, name in enumerate(names):
        learned_at: int | None = None
        history: list = []
        for index, event in enumerate(trace.computation):
            if event.process == name:
                history.append(event)
                if protocol.knows_fact(name, tuple(history)):
                    learned_at = index
                    break
        rows.append(
            LatencyRow(process=name, distance=distance, learned_at_step=learned_at)
        )
    return rows, trace


def verify_chain_gating(
    rows: list[LatencyRow],
    trace: SimulationTrace,
    root: ProcessId,
) -> bool:
    """Theorem 5's operational shadow on one run.

    For every non-root process, the prefix at which it learned the fact
    must contain a process chain ``<root, process>`` — knowledge never
    arrives without the chain.  Returns ``True`` when every row conforms.
    """
    for row in rows:
        if row.learned_at_step is None or row.process == root:
            continue
        prefix = trace.computation[: row.learned_at_step + 1]
        chain = [frozenset((root,)), frozenset((row.process,))]
        if not has_process_chain(prefix, chain):
            return False
    return True


def latency_series(
    line_lengths: tuple[int, ...] = (4, 8, 16, 32),
    seed: int = 0,
) -> list[tuple[int, int]]:
    """``(line length, last process's learning step)`` series for E9.

    The paper's sequential-transfer theorem predicts the learning step of
    the far end grows at least linearly with the distance.
    """
    series: list[tuple[int, int]] = []
    for length in line_lengths:
        rows, _ = broadcast_knowledge_latency(line_length=length, seed=seed)
        last = rows[-1]
        series.append((length, last.learned_at_step if last.learned_at_step is not None else -1))
    return series

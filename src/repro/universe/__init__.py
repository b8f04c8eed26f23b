"""Computation universes: protocols and exhaustive exploration."""

from repro.universe.builder import (
    configuration_from_events,
    figure_3_1_computations,
    figure_3_1_universe,
)
from repro.universe.checkpoint import (
    CheckpointError,
    CheckpointSession,
    RssWatchdog,
    compatibility_token,
)
from repro.universe.explorer import (
    EnumeratedUniverse,
    PartitionTable,
    Universe,
    iter_bit_ids,
)
from repro.universe.faults import Fault, FaultPlan
from repro.universe.protocol import History, Protocol
from repro.universe.sharded import (
    ShardedExplorer,
    SupervisionPolicy,
    WorkerError,
)

__all__ = [
    "CheckpointError",
    "CheckpointSession",
    "EnumeratedUniverse",
    "Fault",
    "FaultPlan",
    "History",
    "PartitionTable",
    "Protocol",
    "RssWatchdog",
    "ShardedExplorer",
    "SupervisionPolicy",
    "Universe",
    "WorkerError",
    "compatibility_token",
    "iter_bit_ids",
    "configuration_from_events",
    "figure_3_1_computations",
    "figure_3_1_universe",
]

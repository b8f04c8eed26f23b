"""Computation universes: protocols and exhaustive exploration."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "CheckpointError": ".checkpoint",
    "CheckpointSession": ".checkpoint",
    "EnumeratedUniverse": ".explorer",
    "Fault": ".faults",
    "FaultPlan": ".faults",
    "History": ".protocol",
    "PartitionTable": ".explorer",
    "Protocol": ".protocol",
    "RssWatchdog": ".checkpoint",
    "ShardedExplorer": ".sharded",
    "SupervisionPolicy": ".sharded",
    "Universe": ".explorer",
    "WorkerError": ".sharded",
    "compatibility_token": ".checkpoint",
    "iter_bit_ids": ".explorer",
    "configuration_from_events": ".builder",
    "figure_3_1_computations": ".builder",
    "figure_3_1_universe": ".builder",
})

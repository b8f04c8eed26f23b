"""Applications of the theory (paper, section 5)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "AsyncFailureReport": ".failure_detection",
    "DetectionRun": ".termination_bounds",
    "LatencyRow": ".knowledge_flow",
    "OverheadRow": ".termination_bounds",
    "SyncFailureReport": ".failure_detection",
    "TrackingReport": ".tracking",
    "analyse_async": ".failure_detection",
    "analyse_sync": ".failure_detection",
    "analyse_tracking": ".tracking",
    "broadcast_knowledge_latency": ".knowledge_flow",
    "detector_ambiguity": ".termination_bounds",
    "latency_series": ".knowledge_flow",
    "overhead_table": ".termination_bounds",
    "run_dijkstra_scholten": ".termination_bounds",
    "run_polling_detector": ".termination_bounds",
    "spontaneous_overhead_after_termination": ".termination_bounds",
    "tracking_error_window": ".tracking",
    "verify_chain_gating": ".knowledge_flow",
})

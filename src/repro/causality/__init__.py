"""Causality substrate: happened-before, process chains, logical clocks."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "consistent_cuts": ".cuts",
    "count_consistent_cuts": ".cuts",
    "cut_join": ".cuts",
    "cut_meet": ".cuts",
    "cut_of_vector": ".cuts",
    "cut_vector": ".cuts",
    "cuts_of_computation": ".cuts",
    "is_consistent_cut": ".cuts",
    "is_lattice_closed": ".cuts",
    "CausalOrder": ".order",
    "ChainSpec": ".chains",
    "MatrixClock": ".clocks",
    "VectorClock": ".clocks",
    "chain_in_suffix": ".chains",
    "chain_ranks": ".chains",
    "find_process_chain": ".chains",
    "happened_before": ".order",
    "has_process_chain": ".chains",
    "has_process_chain_naive": ".chains",
    "lamport_timestamps": ".clocks",
    "segment_of": ".order",
    "vector_timestamps": ".clocks",
    "verify_vector_characterisation": ".clocks",
})

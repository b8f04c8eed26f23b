"""Discrete-event simulation substrate: run protocols at scale."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    "CRASH_TAG": ".failures",
    "BiasedScheduler": ".scheduler",
    "CrashableProtocol": ".failures",
    "EagerReceiveScheduler": ".scheduler",
    "FifoProtocol": ".network",
    "FifoScheduler": ".scheduler",
    "LazyReceiveScheduler": ".scheduler",
    "RandomScheduler": ".scheduler",
    "Scheduler": ".scheduler",
    "SimulationTrace": ".trace",
    "Simulator": ".simulator",
    "crash_event": ".failures",
    "crashed_atom": ".failures",
    "fifo_frontier": ".network",
    "has_crashed": ".failures",
    "simulate": ".simulator",
})

"""Simulation traces: recorded runs with measurement helpers.

A :class:`SimulationTrace` is the linear computation a simulator produced,
enriched with per-step configurations on demand and the counting helpers
the benchmark harness needs (message counts by tag, detection points,
quiescence).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cached_property

from repro.core.computation import Computation
from repro.core.configuration import Configuration, iter_prefix_configurations
from repro.core.events import Event, InternalEvent, ReceiveEvent, SendEvent
from repro.core.process import ProcessId


class SimulationTrace:
    """The outcome of one simulation run."""

    def __init__(self, computation: Computation, steps: int) -> None:
        self._computation = computation
        self._steps = steps

    @property
    def computation(self) -> Computation:
        """The linear computation that was executed."""
        return self._computation

    @property
    def steps(self) -> int:
        """Number of scheduler decisions taken (== events executed)."""
        return self._steps

    @cached_property
    def final_configuration(self) -> Configuration:
        """The ``[D]``-class of the full run, built from the histories
        grouped in one pass over the trace."""
        grouped: dict[ProcessId, list[Event]] = {}
        for event in self._computation:
            grouped.setdefault(event.process, []).append(event)
        return Configuration(grouped)

    def configurations(self) -> Iterator[Configuration]:
        """Configurations after every prefix, shortest first.

        Incremental: O(processes) per step, where rebuilding each prefix
        from scratch would be quadratic in the trace length.
        """
        return iter_prefix_configurations(self._computation)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def count_messages(self, tag: str | None = None) -> int:
        """Number of messages *sent*, optionally restricted to one tag."""
        return sum(
            1
            for event in self._computation
            if isinstance(event, SendEvent)
            and (tag is None or event.message.tag == tag)
        )

    def count_internal(self, tag: str | None = None) -> int:
        """Number of internal events, optionally restricted to one tag."""
        return sum(
            1
            for event in self._computation
            if isinstance(event, InternalEvent)
            and (tag is None or event.tag == tag)
        )

    def undelivered(self) -> int:
        """Messages still in flight at the end of the run."""
        return len(self.final_configuration.in_flight_messages)

    def first_index(self, predicate: Callable[[Event], bool]) -> int | None:
        """Index of the first event satisfying ``predicate``, or ``None``."""
        for index, event in enumerate(self._computation):
            if predicate(event):
                return index
        return None

    def first_internal(self, tag: str) -> int | None:
        """Index of the first internal event with the given tag."""
        return self.first_index(
            lambda event: isinstance(event, InternalEvent) and event.tag == tag
        )

    def prefix_where(
        self, predicate: Callable[[Configuration], bool]
    ) -> Computation | None:
        """The shortest prefix whose configuration satisfies ``predicate``."""
        for length, configuration in enumerate(self.configurations()):
            if predicate(configuration):
                return self._computation[:length]
        return None

    def events_by_process(self) -> dict[ProcessId, int]:
        """Event counts per process."""
        counts: dict[ProcessId, int] = {}
        for event in self._computation:
            counts[event.process] = counts.get(event.process, 0) + 1
        return counts

    def summary(self) -> dict[str, int]:
        """A compact run summary (used by examples and benches)."""
        sends = self.count_messages()
        receives = sum(
            1 for event in self._computation if isinstance(event, ReceiveEvent)
        )
        return {
            "events": len(self._computation),
            "sends": sends,
            "receives": receives,
            "internal": len(self._computation) - sends - receives,
            "undelivered": self.undelivered(),
        }

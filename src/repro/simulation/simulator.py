"""A deterministic discrete-event simulator over protocols.

The simulator executes one *computation* of a protocol: starting from the
empty configuration it repeatedly asks the protocol for enabled events and
a :class:`~repro.simulation.scheduler.Scheduler` for the choice, until
quiescence (no enabled events) or a step bound.  It is the scale
counterpart of exhaustive exploration — universes answer "for all
computations", the simulator produces concrete large ones for measurement
(termination-detection overhead counts, knowledge-flow latency, ...).

Runs are reproducible: the same protocol, scheduler and bound yield the
same computation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.core.configuration import EMPTY_CONFIGURATION, Configuration
from repro.core.computation import Computation
from repro.core.errors import SimulationError
from repro.core.events import Event
from repro.simulation.scheduler import RandomScheduler, Scheduler
from repro.simulation.trace import SimulationTrace
from repro.universe.protocol import Protocol


class Simulator:
    """Step-by-step executor of one computation of ``protocol``."""

    def __init__(
        self,
        protocol: Protocol,
        scheduler: Scheduler | None = None,
        max_steps: int = 100_000,
    ) -> None:
        self._protocol = protocol
        self._scheduler = scheduler if scheduler is not None else RandomScheduler(0)
        self._max_steps = max_steps
        self._configuration = EMPTY_CONFIGURATION
        self._events: list[Event] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def configuration(self) -> Configuration:
        """The configuration reached so far."""
        return self._configuration

    @property
    def executed(self) -> tuple[Event, ...]:
        """Events executed so far, in order."""
        return tuple(self._events)

    def reset(self) -> None:
        """Return to the empty configuration (and reset the scheduler)."""
        self._configuration = EMPTY_CONFIGURATION
        self._events = []
        self._scheduler.reset()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def enabled(self) -> Sequence[Event]:
        """Events currently enabled, as the protocol's oracle
        :meth:`~repro.universe.protocol.Protocol.enabled_events` gives them."""
        return self._protocol.enabled_events(self._configuration)

    def step(self) -> Event | None:
        """Execute one event; ``None`` when quiescent.

        The new configuration is ``Configuration.extend(event)`` of the
        current one: O(processes) per step, with the hash derived
        incrementally.
        """
        enabled = self.enabled()
        if not enabled:
            return None
        event = self._scheduler.choose(self._configuration, enabled)
        if event not in enabled:
            raise SimulationError(
                f"scheduler chose {event}, which is not enabled"
            )
        self._configuration = self._configuration.extend(event)
        self._events.append(event)
        return event

    def run(
        self,
        until: Callable[[Configuration], bool] | None = None,
    ) -> SimulationTrace:
        """Run to quiescence, the step bound, or the ``until`` predicate.

        Raises :class:`SimulationError` if the step bound is hit while
        events remain enabled and no ``until`` was given — silently
        truncating a measurement run would corrupt benchmark results.
        """
        steps = 0
        while steps < self._max_steps:
            if until is not None and until(self._configuration):
                break
            if self.step() is None:
                break
            steps += 1
        else:
            if until is None and self.enabled():
                raise SimulationError(
                    f"run exceeded max_steps={self._max_steps} before quiescence"
                )
        return SimulationTrace(Computation(self._events), len(self._events))

    def iter_events(self) -> Iterator[Event]:
        """Iterate events as they execute (stops at quiescence/bound)."""
        steps = 0
        while steps < self._max_steps:
            event = self.step()
            if event is None:
                return
            yield event
            steps += 1
        if self.enabled():
            raise SimulationError(
                f"iteration exceeded max_steps={self._max_steps} before quiescence"
            )


def simulate(
    protocol: Protocol,
    scheduler: Scheduler | None = None,
    max_steps: int = 100_000,
    until: Callable[[Configuration], bool] | None = None,
) -> SimulationTrace:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(protocol, scheduler=scheduler, max_steps=max_steps)
    return simulator.run(until=until)

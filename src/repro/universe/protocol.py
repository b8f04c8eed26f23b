"""Protocols: finite descriptions of the paper's process-computation sets.

Section 2 characterises a process by a prefix-closed set of finite event
sequences.  A :class:`Protocol` is the finite, executable presentation of
such a family: for every process and local history it lists the *local
steps* (send and internal events) the process may take next, and says
which in-flight messages it is willing to receive.  The set of process
computations of ``p`` is then exactly the set of histories reachable by
those rules, and the system computations are the interleavings in which
every receive follows its send — enumerated by
:class:`repro.universe.explorer.Universe`.

Protocol authors produce *value-object* events: the same logical step must
yield an equal event in every computation in which it occurs, since
isomorphism compares projections by equality.  The helpers
:meth:`Protocol.next_message` and :meth:`Protocol.next_internal` implement
the paper's sequence-number convention for distinguishing repeated
messages and steps.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Iterable, Sequence

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolError
from repro.core.events import (
    Event,
    InternalEvent,
    Message,
    ReceiveEvent,
    SendEvent,
    internal,
    receive,
    send,
)
from repro.core.process import ProcessId, ProcessSetLike, as_process_set

History = tuple[Event, ...]
"""A local history: one process's event sequence."""

_RECEIVE_SET_CACHE_MAX_ENTRIES = 1 << 17
"""Hard cap on memoised in-flight sets per protocol instance
(:meth:`Protocol.receive_events_for`)."""


class CompiledStepTable:
    """A protocol's ``local_steps`` compiled into lookup tables.

    Exploration pops millions of configurations, and every pop asks for
    the local steps of each process.  This table guarantees the
    *interpreted* ``local_steps`` body runs at most once per distinct
    **history shape** — the protocol-declared canonical summary of a
    local history (see :meth:`Protocol.step_shape`) — and at most once
    per distinct history for protocols that declare no shape.  Lookups
    hit two memo levels:

    1. exact history → step tuple (one dict get on the shared tuple);
    2. on miss, ``step_shape`` → step tuple — so a history whose shape
       was seen along another interleaving reuses the compiled entry
       without re-entering protocol code at all.

    The shape contract (protocols must uphold it, tests cross-check it
    against the retained :meth:`Protocol.enabled_events` oracle): if two
    histories of a process have equal shapes, ``local_steps`` yields
    equal value-object event tuples for both.

    Every compiled event is interned through one per-table dict, so
    equal events from different shapes or histories are one object.  A
    send's value fixes its ``Message``, so messages are canonical too,
    and :func:`~repro.core.events.receive` caches one receive per message
    object, so receives follow.  The kernel's tuple and set comparisons
    then hit identity; value equality stays the semantics, and an equal
    but non-identical event (unpickled, or built by another process)
    still compares equal.

    ``build_seconds`` accumulates the wall time spent inside the
    interpreted compile path, so benchmark cold starts can attribute
    table build time separately from BFS time (see PERFORMANCE.md).
    """

    __slots__ = (
        "_protocol",
        "_by_history",
        "_by_shape",
        "_shaped",
        "_events",
        "build_seconds",
        "compiled_entries",
        "shape_hits",
    )

    def __init__(self, protocol: "Protocol") -> None:
        self._protocol = protocol
        self._by_history: dict[ProcessId, dict[History, tuple[Event, ...]]] = {
            process: {} for process in protocol._ordered_processes
        }
        self._by_shape: dict[ProcessId, dict[object, tuple[Event, ...]]] = {
            process: {} for process in protocol._ordered_processes
        }
        self._shaped = type(protocol).step_shape is not Protocol.step_shape
        self._events: dict[Event, Event] = {}
        self.build_seconds = 0.0
        self.compiled_entries = 0
        self.shape_hits = 0

    def steps(self, process: ProcessId, history: History) -> tuple[Event, ...]:
        """The compiled local steps of ``process`` after ``history``."""
        per_history = self._by_history[process]
        steps = per_history.get(history)
        if steps is not None:
            return steps
        if self._shaped:
            shape = self._protocol.step_shape(process, history)
            if shape is not None:
                per_shape = self._by_shape[process]
                steps = per_shape.get(shape)
                if steps is None:
                    steps = self._compile(process, history)
                    per_shape[shape] = steps
                else:
                    self.shape_hits += 1
                per_history[history] = steps
                return steps
        steps = self._compile(process, history)
        per_history[history] = steps
        return steps

    def intern(self, event: Event) -> Event:
        """This table's one object for ``event``'s value.

        For events another interpreter built (an unpickled checkpoint
        stream, a shard worker's batch): a send or internal event goes
        through the compile-time intern dict, a receive through the
        protocol's per-message receive memo, which is where the
        enumeration reads its receives.  The first object seen for a
        value becomes canonical.
        """
        if isinstance(event, ReceiveEvent):
            return self._protocol._receive_cache.setdefault(event.message, event)
        return self._events.setdefault(event, event)

    def __getstate__(self) -> dict:
        """Pickled handoff of a (possibly warm) compiled table.

        ``__slots__`` classes have no ``__dict__`` for the default pickle
        path; the explicit state keeps every memo level — so a table
        handed to a spawned worker arrives with its compiled entries
        intact instead of re-running interpreted protocol code per shard.
        (The sharded exploration engine's forked workers inherit the
        table copy-on-write and never pickle it; this path exists for
        explicit handoffs and diagnostics.)
        """
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def _compile(self, process: ProcessId, history: History) -> tuple[Event, ...]:
        """Run the interpreted ``local_steps`` once, validated, interned
        and timed."""
        start = time.perf_counter()
        steps = tuple(self._protocol.local_steps(process, history))
        for event in steps:
            if event.is_receive:
                raise ProtocolError(
                    f"local_steps of {process!r} yielded a receive event"
                )
            if event.process != process:
                raise ProtocolError(
                    f"local_steps of {process!r} yielded an event on "
                    f"{event.process!r}"
                )
        intern = self._events.setdefault
        steps = tuple([intern(event, event) for event in steps])
        self.build_seconds += time.perf_counter() - start
        self.compiled_entries += 1
        return steps


class Protocol(abc.ABC):
    """Finite description of a distributed system's behaviours.

    Subclasses implement :meth:`local_steps` and optionally override
    :meth:`can_receive` (default: always willing).  ``processes`` is the
    paper's ``D``; the model rules out processes with no event in any
    computation, but we accept them for convenience (they simply never
    contribute events).
    """

    def __init__(self, processes: ProcessSetLike) -> None:
        self._processes = as_process_set(processes)
        if not self._processes:
            raise ProtocolError("a protocol needs at least one process")
        self._ordered_processes = tuple(sorted(self._processes))
        self._prepare_step_tables()

    def _prepare_step_tables(self) -> None:
        """Set up the memo tables *before* exploration starts.

        Per-history local steps, per-message receive events and
        per-in-flight-set receive tuples are memoised; creating the
        tables (and resolving whether :meth:`can_receive` is overridden)
        eagerly in ``__init__`` keeps the first BFS free of
        lazy-initialisation branches.
        """
        self._local_step_cache: dict[ProcessId, dict] = {
            process: {} for process in self._ordered_processes
        }
        self._receive_cache: dict[Message, ReceiveEvent] = {}
        self._receive_set_cache: dict[frozenset, tuple[ReceiveEvent, ...]] = {}
        self._selective = type(self).can_receive is not Protocol.can_receive
        self._step_table = CompiledStepTable(self)

    @property
    def processes(self) -> frozenset[ProcessId]:
        """The set of all processes, the paper's ``D``."""
        return self._processes

    @property
    def ordered_processes(self) -> tuple[ProcessId, ...]:
        """``D`` sorted — the deterministic iteration order of the kernels."""
        return self._ordered_processes

    @property
    def is_selective(self) -> bool:
        """Whether this protocol overrides :meth:`can_receive`."""
        return self._selective

    @property
    def step_table(self) -> CompiledStepTable:
        """The compiled step table (created eagerly in ``__init__``)."""
        return self._step_table

    @property
    def has_custom_enabling(self) -> bool:
        """Whether this protocol overrides :meth:`enabled_events`.

        Protocols may restrict the system-level enabling relation beyond
        local steps + willing receives (e.g. synchrony assumptions).  The
        exploration kernel checks this and routes every configuration
        through the override instead of the compiled fast path.  Most
        restrictions are *filters* over the default enabled set; those
        should override :meth:`filter_enabled_events` instead, which
        keeps the protocol on the compiled step tables.
        """
        return type(self).enabled_events is not Protocol.enabled_events

    @property
    def has_enabling_filter(self) -> bool:
        """Whether this protocol overrides :meth:`filter_enabled_events`."""
        return (
            type(self).filter_enabled_events
            is not Protocol.filter_enabled_events
        )

    def complement(self, processes: ProcessSetLike) -> frozenset[ProcessId]:
        """``P̄ = D - P``."""
        p_set = as_process_set(processes)
        if not p_set <= self._processes:
            raise ProtocolError(
                f"{sorted(p_set)} is not a subset of D = {sorted(self._processes)}"
            )
        return self._processes - p_set

    # ------------------------------------------------------------------
    # Behaviour definition
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def local_steps(self, process: ProcessId, history: History) -> Iterable[Event]:
        """Send and internal events enabled after ``history``.

        Must not yield receive events — receive enabling depends on the
        rest of the system and is handled by :meth:`enabled_events`.
        """

    def can_receive(
        self, process: ProcessId, history: History, message: Message
    ) -> bool:
        """Whether ``process`` may receive ``message`` after ``history``.

        Default: always.  Override to model selective reception.
        """
        return True

    def step_shape(self, process: ProcessId, history: History) -> object | None:
        """Canonical summary of ``history`` for the compiled step table.

        Contract: if ``step_shape(p, h1) == step_shape(p, h2)`` (and
        neither is ``None``), then ``local_steps(p, h1)`` and
        ``local_steps(p, h2)`` yield *equal value-object event tuples*.
        Finer shapes are always sound (they merely compile more entries);
        an over-coarse shape is a protocol bug — the step-table test
        suite cross-checks every bundled protocol against the
        :meth:`enabled_events` oracle.

        Default: ``None`` — the table memoises per exact history, which
        is always sound.  Override where many histories share one step
        set (e.g. flooding: steps depend only on who has been sent to).
        """
        return None

    def receive_event(self, message: Message) -> ReceiveEvent:
        """The memoised receive event of ``message``.

        The same in-flight message is offered along every interleaving it
        is pending in; the memo keeps that one event object per message.
        """
        cache = self._receive_cache
        event = cache.get(message)
        if event is None:
            event = receive(message)
            cache[message] = event
        return event

    def receive_events_for(
        self, in_flight: frozenset[Message]
    ) -> tuple[ReceiveEvent, ...]:
        """The memoised receive set of one in-flight message set.

        Only valid for protocols with the always-willing default
        ``can_receive`` (callers gate on :attr:`is_selective`): the
        offered receives are then a pure function of the in-flight set,
        so the sort + per-message lookups run once per distinct set —
        the same channel contents recur across every interleaving of the
        rest of the system.  Order matches :meth:`enabled_events`
        exactly: ascending message order, receivers outside ``D``
        skipped.
        """
        cache = self._receive_set_cache
        events = cache.get(in_flight)
        if events is None:
            pending = sorted(in_flight) if len(in_flight) > 1 else tuple(in_flight)
            processes = self._processes
            receive_cache = self._receive_cache
            collected = []
            for message in pending:
                if message.receiver not in processes:
                    continue
                event = receive_cache.get(message)
                if event is None:
                    event = receive(message)
                    receive_cache[message] = event
                collected.append(event)
            events = tuple(collected)
            if len(cache) < _RECEIVE_SET_CACHE_MAX_ENTRIES:
                cache[in_flight] = events
        return events

    def selective_receive_events(
        self, history_of, in_flight: frozenset[Message]
    ) -> list[ReceiveEvent]:
        """Receive events of a selective protocol — the slow path.

        The offered set depends on the receivers' histories (via
        :meth:`can_receive`), so it cannot be memoised per in-flight set;
        ``history_of`` is the configuration's ``histories.get``.  One
        implementation, shared by :meth:`compiled_enabled_events` and the
        exploration kernel, so the ordering and gating rules cannot
        drift between them.
        """
        pending = sorted(in_flight) if len(in_flight) > 1 else in_flight
        processes = self._processes
        receive_cache = self._receive_cache
        events: list[ReceiveEvent] = []
        for message in pending:
            receiver = message.receiver
            if receiver not in processes:
                continue
            if self.can_receive(receiver, history_of(receiver, ()), message):
                event = receive_cache.get(message)
                if event is None:
                    event = receive(message)
                    receive_cache[message] = event
                events.append(event)
        return events

    # ------------------------------------------------------------------
    # System-level enabling
    # ------------------------------------------------------------------
    def filter_enabled_events(
        self, configuration: Configuration, events: Sequence[Event]
    ) -> Sequence[Event]:
        """Declarative system-level restriction of the enabled set.

        ``events`` is the default enabled set (compiled local steps plus
        willing receives, deterministically ordered); the override
        returns the sub-sequence actually enabled — *order must be
        preserved* and no new events may be introduced.  Unlike a full
        :meth:`enabled_events` override, a filter keeps the protocol on
        the compiled step tables and the exploration kernel's fast path:
        the kernel assembles the default set from its tables and applies
        the filter per configuration.  Synchrony-style protocols (e.g.
        the sync failure monitor) express their round gating this way.

        Default: no restriction.
        """
        return events

    def enabled_events(self, configuration: Configuration) -> Sequence[Event]:
        """All events that may extend ``configuration`` by one step.

        Local steps come from :meth:`local_steps`; receive events are
        offered for every in-flight message whose receiver is willing.
        The result is a tuple, deterministically ordered so exploration
        is reproducible.  This is the interpreted oracle: it memoises
        local steps per history (independently of the compiled step
        table) but nothing per configuration: its callers visit each
        configuration once.

        The memo is keyed by the configuration's rolling entry hash of
        each history, not by the history tuple, whose hash is not cached
        and would cost one call per event: a simulator step then hashes
        no history, and its cost does not grow with the trace.  A hit is
        confirmed by comparing the stored history (identity first).
        """
        enabled: list[Event] = []
        in_flight = configuration.in_flight_messages
        ordered = self._ordered_processes
        step_cache = self._local_step_cache
        history_of = configuration.histories.get
        rolling_hash_of = configuration._entry_hash_map().get
        for process in ordered:
            history = history_of(process, ())
            # local_steps is a pure function of (process, history) — the
            # protocol contract requires value-object events — so its
            # results are memoised: exploration asks about the same local
            # history once per interleaving otherwise.
            per_process = step_cache[process]
            key = rolling_hash_of(process)  # None for the empty history
            cached = per_process.get(key)
            if cached is not None and (
                cached[0] is history or cached[0] == history
            ):
                steps = cached[1]
            else:
                steps = tuple(self.local_steps(process, history))
                for event in steps:
                    if event.is_receive:
                        raise ProtocolError(
                            f"local_steps of {process!r} yielded a receive event"
                        )
                    if event.process != process:
                        raise ProtocolError(
                            f"local_steps of {process!r} yielded an event on "
                            f"{event.process!r}"
                        )
                per_process[key] = (history, steps)
            enabled.extend(steps)
        if in_flight:
            pending = sorted(in_flight) if len(in_flight) > 1 else in_flight
            # Protocols that keep the always-willing default skip the
            # per-message can_receive call entirely; receive events are
            # memoised per message (the same in-flight message is offered
            # along every interleaving it is pending in).
            selective = self._selective
            processes = self._processes
            for message in pending:
                receiver = message.receiver
                if receiver not in processes:
                    continue
                if not selective or self.can_receive(
                    receiver, history_of(receiver, ()), message
                ):
                    enabled.append(self.receive_event(message))
        if self.has_enabling_filter:
            # The filter is part of the enabling semantics, so the oracle
            # applies it exactly like the kernel does.
            return tuple(self.filter_enabled_events(configuration, enabled))
        return tuple(enabled)

    def compiled_enabled_events(
        self, configuration: Configuration
    ) -> tuple[Event, ...]:
        """:meth:`enabled_events` via the compiled step table.

        Bit-identical to the oracle — same events, same deterministic
        order — but local steps come from :class:`CompiledStepTable`
        (shape-keyed, never re-entering interpreted protocol logic for a
        known shape).  This is the path the exploration kernel takes; the
        step-table tests assert the bit-identity on every bundled
        protocol, complete and truncated.  Protocols that override
        :meth:`enabled_events` (custom system-level enabling, e.g.
        synchrony assumptions) are delegated to their override verbatim.
        """
        if type(self).enabled_events is not Protocol.enabled_events:
            return tuple(self.enabled_events(configuration))
        table = self.step_table
        steps_for = table.steps
        enabled: list[Event] = []
        history_of = configuration.histories.get
        for process in self._ordered_processes:
            history = history_of(process)
            enabled.extend(steps_for(process, history if history is not None else ()))
        in_flight = configuration.in_flight_messages
        if in_flight:
            if not self._selective:
                enabled.extend(self.receive_events_for(in_flight))
            else:
                enabled.extend(
                    self.selective_receive_events(history_of, in_flight)
                )
        if self.has_enabling_filter:
            return tuple(self.filter_enabled_events(configuration, enabled))
        return tuple(enabled)

    # ------------------------------------------------------------------
    # Membership checks (the paper's "zp is a process computation of p")
    # ------------------------------------------------------------------
    def is_process_computation(self, process: ProcessId, history: History) -> bool:
        """True iff ``history`` is reachable by this process's rules.

        Receives are accepted whenever :meth:`can_receive` allows them —
        whether the message was ever sent is a system-level question.
        """
        prefix: History = ()
        for event in history:
            if event.process != process:
                return False
            if event.is_receive:
                assert isinstance(event, ReceiveEvent)
                if not self.can_receive(process, prefix, event.message):
                    return False
            else:
                if event not in set(self.local_steps(process, prefix)):
                    return False
            prefix = prefix + (event,)
        return True

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def next_message(
        history: History,
        sender: ProcessId,
        receiver: ProcessId,
        tag: str,
        payload=None,
    ) -> Message:
        """A message whose ``seq`` counts equal-tagged prior sends.

        Guarantees the paper's all-messages-distinguished convention while
        keeping events equal across computations that reach the same local
        history.
        """
        seq = sum(
            1
            for event in history
            if isinstance(event, SendEvent)
            and event.message.tag == tag
            and event.message.receiver == receiver
        )
        return Message(
            sender=sender, receiver=receiver, tag=tag, seq=seq, payload=payload
        )

    @staticmethod
    def next_internal(
        history: History, process: ProcessId, tag: str, payload=None
    ) -> InternalEvent:
        """An internal event whose ``seq`` counts equal-tagged prior steps."""
        seq = sum(
            1
            for event in history
            if isinstance(event, InternalEvent) and event.tag == tag
        )
        return internal(process, tag=tag, seq=seq, payload=payload)

    @staticmethod
    def send_of(message: Message) -> SendEvent:
        """The send event of ``message`` (re-exported for protocol code)."""
        return send(message)

"""Canonical ``[D]``-class representatives of system computations.

The paper observes that ``x [D] y`` (with ``D`` the set of all processes)
holds exactly when ``y`` is a permutation of ``x``, and restricts attention
to predicates whose value is invariant under such permutation.  The entire
theory therefore only ever depends on the *tuple of per-process
projections* of a computation.  A :class:`Configuration` stores exactly
that tuple, giving one canonical object per ``[D]``-equivalence class.

Working with configurations instead of linear computations shrinks
exhaustively explored universes by the number of interleavings per class
(often exponential) without changing any answer — this is the design
decision ablated in ``tests/test_universe_explorer.py``.

Because every quantifier of the theory ranges over explored universes,
constructing and deduplicating configurations is *the* hot path of the
whole system.  Two invariants make it fast (see PERFORMANCE.md):

* ``_histories`` always keeps its keys in sorted order, so projections,
  canonical keys and iteration never re-sort;
* the content hash is an order-independent sum of per-entry hashes,
  maintained *incrementally* by :meth:`extend` (one entry re-hashed per
  event instead of the whole configuration).

Equal configurations are interchangeable: nothing depends on object
identity, and every construction path (the public constructor,
:meth:`extend`, :func:`iter_prefix_configurations`, arena
materialisation) gives equal configurations equal hashes, so sets and
dicts deduplicate by value.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from types import MappingProxyType
from typing import Optional

from repro.core.computation import Computation
from repro.core.errors import InvalidConfigurationError
from repro.core.events import Event, Message, ReceiveEvent, SendEvent
from repro.core.process import ProcessId, ProcessSetLike, as_process_set


_HASH_MODULUS = (1 << 61) - 1
"""Content hashes are sums of per-entry rolling hashes reduced mod this prime.

The reduction keeps every stored hash inside ``Py_hash_t`` range so the
value survives Python's own ``hash()`` wrapping unchanged — which is what
lets :meth:`Configuration.extend` maintain the hash incrementally (one
modular multiply-add per event) while agreeing exactly with the lazy
full computation of publicly constructed configurations.
"""

_ROLL_MULTIPLIER = 1099511628211


def _entry_hash(process: ProcessId, history: tuple[Event, ...]) -> int:
    """Rolling hash of one ``(process, history)`` entry.

    Seeded by the process name and folded event by event, so the hash of
    ``history + (event,)`` derives from the hash of ``history`` in O(1) —
    the extend fast path never re-hashes a whole history.
    """
    acc = hash(process) % _HASH_MODULUS
    for event in history:
        acc = (acc * _ROLL_MULTIPLIER + hash(event)) % _HASH_MODULUS
    return acc


def _roll(entry: Optional[int], process: ProcessId, event: Event) -> int:
    """The entry hash of ``process`` after appending ``event``, from its
    entry hash before (``None`` while the process has no history)."""
    if entry is None:
        entry = hash(process) % _HASH_MODULUS
    try:
        event_hash = event._hash_cache
    except AttributeError:
        event_hash = hash(event)
    return (entry * _ROLL_MULTIPLIER + event_hash) % _HASH_MODULUS


def _with_event(
    histories: dict[ProcessId, tuple[Event, ...]], event: Event
) -> dict[ProcessId, tuple[Event, ...]]:
    """A copy of ``histories`` with ``event`` appended to its process's
    history, keys kept in sorted order."""
    process = event.process
    history = histories.get(process)
    if history is not None:
        items = dict(histories)
        items[process] = history + (event,)  # same key: position preserved
        return items
    items = {}
    placed = False
    for existing, existing_history in histories.items():
        if not placed and process < existing:
            items[process] = (event,)
            placed = True
        items[existing] = existing_history
    if not placed:
        items[process] = (event,)
    return items


def hash_domain_token() -> int:
    """Fingerprint of this interpreter's content-hash domain.

    Content hashes fold ``hash()`` of process names and events, which
    depends on the interpreter's string-hash seed (``PYTHONHASHSEED``).
    Two processes compute interchangeable content hashes — the
    precondition for exchanging them, as the sharded exploration engine
    does — exactly when their tokens agree.  Forked workers inherit the
    parent's seed and always agree; spawn-style workers only agree under
    a pinned ``PYTHONHASHSEED``, and the mismatch is detected through
    this token instead of silently mis-merging shards.
    """
    probe = "__shard_probe__"
    return (
        _entry_hash(probe, ()) * _ROLL_MULTIPLIER + hash(probe)
    ) % _HASH_MODULUS


class Configuration:
    """Immutable map from process to its local event sequence.

    Processes with empty histories are normalised away, so two
    configurations are equal iff every process has the same projection in
    both — the definition of ``x [D] y``.
    """

    __slots__ = (
        "_histories",
        "_hash",
        "_entry_hashes",
        "_length",
        "__dict__",
    )

    def __init__(self, histories: Mapping[ProcessId, Iterable[Event]] = ()) -> None:
        items: dict[ProcessId, tuple[Event, ...]] = {}
        mapping = dict(histories)
        for process in sorted(mapping):
            history = tuple(mapping[process])
            for event in history:
                if event.process != process:
                    raise InvalidConfigurationError(
                        f"event {event} filed under process {process!r}"
                    )
            if history:
                items[process] = history
        self._histories = items
        self._hash: Optional[int] = None
        self._entry_hashes: Optional[dict[ProcessId, int]] = None
        self._length: Optional[int] = None

    @classmethod
    def _from_trusted(
        cls,
        items: dict[ProcessId, tuple[Event, ...]],
        content_hash: int,
        entry_hashes: Optional[dict[ProcessId, int]],
    ) -> "Configuration":
        """No-validate constructor for the trusted fast paths.

        ``items`` must already be normalised: sorted keys, nonempty
        tuple histories, every event filed under its own process.
        ``content_hash`` must equal the modular sum of the per-entry
        rolling hashes (the same values :meth:`__hash__` computes
        lazily).  ``entry_hashes`` may be ``None``: the exploration
        kernel keeps rolling hashes in its own history-keyed memo
        instead of copying a dict per child, and the instance recomputes
        the map lazily if it is ever extended again.
        """
        configuration = object.__new__(cls)
        configuration._histories = items
        configuration._hash = content_hash
        configuration._entry_hashes = entry_hashes
        configuration._length = None
        return configuration

    def _entry_hash_map(self) -> dict[ProcessId, int]:
        entry_hashes = self._entry_hashes
        if entry_hashes is None:
            entry_hashes = {
                process: _entry_hash(process, history)
                for process, history in self._histories.items()
            }
            self._entry_hashes = entry_hashes
        return entry_hashes

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._histories == other._histories

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = sum(self._entry_hash_map().values()) % _HASH_MODULUS
            self._hash = h
        return h

    def __repr__(self) -> str:
        parts = []
        for process in self._histories:
            events = " ".join(str(event) for event in self._histories[process])
            parts.append(f"{process}: {events}")
        return "Configuration(" + "; ".join(parts) + ")"

    def __len__(self) -> int:
        length = self._length
        if length is None:
            length = sum(len(history) for history in self._histories.values())
            self._length = length
        return length

    def __getstate__(self):
        """Pickle state without the ``histories`` mapping-proxy cache.

        The view is a pure cache over ``_histories`` and mapping proxies
        cannot be pickled; it rebuilds lazily on first access after a
        round-trip.
        """
        cache = {
            key: value
            for key, value in self.__dict__.items()
            if key != "histories"
        }
        slots = {
            "_histories": self._histories,
            "_hash": self._hash,
            "_entry_hashes": self._entry_hashes,
            "_length": self._length,
        }
        return (cache or None, slots)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @cached_property
    def histories(self) -> Mapping[ProcessId, tuple[Event, ...]]:
        """Read-only view of the nonempty per-process histories."""
        return MappingProxyType(self._histories)

    @property
    def processes(self) -> frozenset[ProcessId]:
        """Processes with at least one event."""
        return frozenset(self._histories)

    def history(self, process: ProcessId) -> tuple[Event, ...]:
        """The projection of this configuration on one process."""
        return self._histories.get(process, ())

    def projection(self, processes: ProcessSetLike) -> tuple[
        tuple[ProcessId, tuple[Event, ...]], ...
    ]:
        """Canonical key for the ``[P]``-class of this configuration.

        Two configurations ``x, y`` satisfy ``x [P] y`` iff their
        projections on ``P`` are equal; empty histories are omitted so the
        key does not depend on which processes exist elsewhere.

        Keys are memoised per process set: universes and evaluators ask
        for the same projections over and over while indexing.
        """
        p_set = as_process_set(processes)
        cache = self.__dict__.get("_projection_cache")
        if cache is None:
            cache = {}
            self.__dict__["_projection_cache"] = cache
        key = cache.get(p_set)
        if key is None:
            key = tuple(
                entry for entry in self._histories.items() if entry[0] in p_set
            )
            cache[p_set] = key
        return key

    def events(self) -> Iterator[Event]:
        """All events, grouped by process (process order within groups)."""
        for history in self._histories.values():
            yield from history

    @cached_property
    def event_set(self) -> frozenset[Event]:
        return frozenset(self.events())

    @cached_property
    def sent_messages(self) -> frozenset[Message]:
        """Messages with a send event somewhere in the configuration."""
        return frozenset(
            event.message for event in self.events() if isinstance(event, SendEvent)
        )

    @cached_property
    def received_messages(self) -> frozenset[Message]:
        """Messages with a receive event somewhere in the configuration."""
        return frozenset(
            event.message for event in self.events() if isinstance(event, ReceiveEvent)
        )

    @cached_property
    def in_flight_messages(self) -> frozenset[Message]:
        """Messages sent but not yet received (the channel contents)."""
        return self.sent_messages - self.received_messages

    def count_on(self, processes: ProcessSetLike) -> int:
        """Number of events on the given process set."""
        p_set = as_process_set(processes)
        return sum(
            len(history)
            for process, history in self._histories.items()
            if process in p_set
        )

    # ------------------------------------------------------------------
    # Order and extension
    # ------------------------------------------------------------------
    def is_sub_configuration_of(self, other: "Configuration") -> bool:
        """True iff each history here is a prefix of the matching history
        in ``other``.

        For valid configurations this is the configuration-level analogue
        of the paper's prefix order: ``x <= z`` on computations implies the
        corresponding configurations are so related, and every
        sub-configuration is realised by a prefix of some linearization of
        ``other`` (it is a consistent cut).
        """
        if self is other:
            return True
        other_histories = other._histories
        for process, history in self._histories.items():
            other_history = other_histories.get(process, ())
            if other_history[: len(history)] != history:
                return False
        return True

    def extend(self, event: Event) -> "Configuration":
        """The configuration with ``event`` appended to its process.

        Trusted path: no validation and no re-sorting.  The child's hash
        is derived from this configuration's with one modular
        multiply-add, and its message-set caches from this
        configuration's (:meth:`_propagate_caches`).  Equal results are
        equal values, not one object: callers deduplicate by value.
        """
        process = event.process
        entry_hashes = self._entry_hash_map()
        old_entry = entry_hashes.get(process)
        new_entry = _roll(old_entry, process, event)
        child_entry_hashes = dict(entry_hashes)
        child_entry_hashes[process] = new_entry
        child = Configuration._from_trusted(
            _with_event(self._histories, event),
            (hash(self) - (old_entry or 0) + new_entry) % _HASH_MODULUS,
            child_entry_hashes,
        )
        if self._length is not None:
            child._length = self._length + 1
        self._propagate_caches(child, event)
        return child

    def _propagate_caches(self, child: "Configuration", event: Event) -> None:
        """Derive the child's message-set caches from this configuration's.

        Exploration computes ``in_flight_messages`` for every
        configuration it pops; deriving the child's sets from the parent's
        (sharing the frozensets outright when the event does not touch
        them) turns O(events) scans per configuration into O(msgs)
        updates.  Only populated when the parent has already built the
        caches, and kept exactly equal to the lazy definitions —
        including the degenerate re-send of a message value that was
        already received, where ``sent - received`` must stay empty.
        """
        parent_cache = self.__dict__
        received = parent_cache.get("received_messages")
        in_flight = parent_cache.get("in_flight_messages")
        if received is None or in_flight is None:
            return
        child_cache = child.__dict__
        if isinstance(event, SendEvent):
            message = event.message
            child_cache["received_messages"] = received
            child_cache["in_flight_messages"] = (
                in_flight if message in received else in_flight | {message}
            )
        elif isinstance(event, ReceiveEvent):
            message = event.message
            child_cache["received_messages"] = received | {message}
            child_cache["in_flight_messages"] = in_flight - {message}
        else:
            child_cache["received_messages"] = received
            child_cache["in_flight_messages"] = in_flight

    def suffix_after(
        self, prefix: "Configuration"
    ) -> dict[ProcessId, tuple[Event, ...]]:
        """Per-process suffixes ``(x, z)`` after removing ``prefix``.

        Raises :class:`InvalidConfigurationError` if ``prefix`` is not a
        sub-configuration.
        """
        if not prefix.is_sub_configuration_of(self):
            raise InvalidConfigurationError(
                "suffix_after requires a sub-configuration"
            )
        return self._suffix_after(prefix)

    def _suffix_after(
        self, prefix: "Configuration"
    ) -> dict[ProcessId, tuple[Event, ...]]:
        """:meth:`suffix_after` for a caller that already knows
        ``prefix <= self`` (a descendant mask, say): the slicing without
        the sub-configuration check."""
        suffixes: dict[ProcessId, tuple[Event, ...]] = {}
        for process, history in self._histories.items():
            cut = len(prefix.history(process))
            if len(history) > cut:
                suffixes[process] = history[cut:]
        return suffixes

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @staticmethod
    def from_computation(computation: Computation) -> "Configuration":
        """The ``[D]``-class of a linear computation."""
        histories = {
            process: computation.projection(process)
            for process in computation.processes
        }
        return Configuration(histories)

    def linearize(self) -> Computation:
        """A deterministic linearization of this configuration.

        Uses Kahn's algorithm over process order plus send-before-receive
        edges, breaking ties by process name, so the result is reproducible.
        Raises :class:`InvalidConfigurationError` when no linearization
        exists (cyclic causality or a receive without its send).
        """
        cursors = {process: 0 for process in self._histories}
        sent: set[Message] = set()
        output: list[Event] = []
        total = len(self)
        while len(output) < total:
            progressed = False
            for process in sorted(cursors):
                index = cursors[process]
                history = self._histories[process]
                if index >= len(history):
                    continue
                event = history[index]
                if isinstance(event, ReceiveEvent) and event.message not in sent:
                    continue
                if isinstance(event, SendEvent):
                    sent.add(event.message)
                output.append(event)
                cursors[process] += 1
                progressed = True
            if not progressed:
                raise InvalidConfigurationError(
                    "configuration has no linearization (cyclic causality or "
                    "receive without corresponding send)"
                )
        return Computation(output)


EMPTY_CONFIGURATION = Configuration({})
"""The configuration of the empty computation."""


def iter_prefix_configurations(
    events: Iterable[Event],
) -> Iterator[Configuration]:
    """Configurations of every prefix of ``events``, empty prefix first.

    Maintains the histories, per-entry rolling hashes and content hash
    incrementally — O(|P|) per step — and snapshots each prefix through
    ``_from_trusted``: about three times faster than an
    :meth:`Configuration.extend` chain, which pays for its per-child
    cache bookkeeping.  The yielded objects hash and compare exactly
    like publicly constructed configurations.
    """
    items: dict[ProcessId, tuple[Event, ...]] = {}
    entry_hashes: dict[ProcessId, int] = {}
    content_hash = 0
    yield EMPTY_CONFIGURATION
    for count, event in enumerate(events, 1):
        process = event.process
        old_entry = entry_hashes.get(process)
        new_entry = _roll(old_entry, process, event)
        content_hash = (content_hash - (old_entry or 0) + new_entry) % _HASH_MODULUS
        items = _with_event(items, event)
        entry_hashes = dict(entry_hashes)
        entry_hashes[process] = new_entry
        snapshot = Configuration._from_trusted(items, content_hash, entry_hashes)
        snapshot._length = count
        yield snapshot

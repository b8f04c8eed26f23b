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
whole system.  Three invariants make it fast (see PERFORMANCE.md):

* ``_histories`` always keeps its keys in sorted order, so projections,
  canonical keys and iteration never re-sort;
* the content hash is an order-independent sum of per-entry hashes,
  maintained *incrementally* by :meth:`extend` (one entry re-hashed per
  event instead of the whole configuration);
* configurations produced by :meth:`extend` are interned in a weak
  registry, so on the exploration hot path equal configurations are the
  *same object* and set/dict membership is effectively by identity.
"""

from __future__ import annotations

import weakref
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


_REGISTRY: dict[int, list] = {}
"""Weak intern registry: content hash -> weakrefs of live configurations.

Collisions are resolved by full structural comparison at lookup time (see
``Configuration.extend``), so a hash bucket may in principle hold several
distinct configurations.  Dead references are pruned by the single shared
:func:`_registry_cleanup` callback via the ref -> hash side table, so
insertion never allocates a per-configuration closure — exploration
inserts thousands of configurations back to back and the closure
allocation was a measurable slice of cold-start time.
"""

_REF_HASHES: dict["weakref.ref", int] = {}
"""Reverse map ref -> content hash for the shared cleanup callback."""


def _registry_cleanup(reference: "weakref.ref") -> None:
    content_hash = _REF_HASHES.pop(reference, None)
    if content_hash is None:
        return
    bucket = _REGISTRY.get(content_hash)
    if bucket is not None:
        try:
            bucket.remove(reference)
        except ValueError:
            pass
        if not bucket:
            _REGISTRY.pop(content_hash, None)


def _registry_insert(content_hash: int, configuration: "Configuration") -> None:
    reference = weakref.ref(configuration, _registry_cleanup)
    _REF_HASHES[reference] = content_hash
    _REGISTRY.setdefault(content_hash, []).append(reference)


def registry_size() -> int:
    """Number of live interned configurations (tests and diagnostics)."""
    return sum(len(bucket) for bucket in _REGISTRY.values())


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
        "__weakref__",
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

    @classmethod
    def _intern_from_histories(
        cls, items: dict[ProcessId, tuple[Event, ...]]
    ) -> "Configuration":
        """Interned no-validate constructor from normalised histories.

        ``items`` must satisfy the ``_from_trusted`` contract (sorted
        keys, nonempty tuple histories, events filed under their own
        process).  Resolves against the intern registry first, so equal
        configurations built elsewhere are returned as the same object —
        one registry lookup and at most one insertion, never the
        per-event churn of rebuilding through repeated ``extend``.
        """
        entry_hashes = {
            process: _entry_hash(process, history)
            for process, history in items.items()
        }
        content_hash = sum(entry_hashes.values()) % _HASH_MODULUS
        bucket = _REGISTRY.get(content_hash)
        if bucket is not None:
            for reference in bucket:
                candidate = reference()
                if candidate is not None and candidate._histories == items:
                    return candidate
        configuration = cls._from_trusted(items, content_hash, entry_hashes)
        _registry_insert(content_hash, configuration)
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
        round-trip.  (The shared ``EMPTY_CONFIGURATION`` singleton sits
        pinned at id 0 of every arena store, so a polluted cache on it
        would otherwise make whole stores unpicklable.)
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

    def _extension_parts(self, event: Event) -> tuple[tuple[Event, ...], int, int]:
        """``(new_history, content_hash, new_entry)`` of ``extend(event)``.

        Derives the child's content hash from this configuration's cached
        hash with one modular multiply-add — O(1), no child construction.
        Exploration kernels use the hash to dedup against their own id
        tables before deciding whether to build anything; ``new_history``
        has the parent history as a prefix, so ``len(new_history) == 1``
        tells builders the process is new to the configuration.
        """
        process = event.process
        entry_hashes = self._entry_hashes
        if entry_hashes is None:
            entry_hashes = self._entry_hash_map()
        parent_hash = self._hash
        if parent_hash is None:
            parent_hash = self.__hash__()
        try:
            event_hash = event._hash_cache
        except AttributeError:
            event_hash = hash(event)
        old_entry = entry_hashes.get(process)
        if old_entry is None:
            new_history: tuple[Event, ...] = (event,)
            new_entry = (
                (hash(process) % _HASH_MODULUS) * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            content_hash = (parent_hash + new_entry) % _HASH_MODULUS
        else:
            new_history = self._histories[process] + (event,)
            new_entry = (old_entry * _ROLL_MULTIPLIER + event_hash) % _HASH_MODULUS
            content_hash = (parent_hash - old_entry + new_entry) % _HASH_MODULUS
        return new_history, content_hash, new_entry

    def _matches_extension(
        self,
        candidate: "Configuration",
        process: ProcessId,
        new_history: tuple[Event, ...],
    ) -> bool:
        """True iff ``candidate == self.extend(event)``, without building
        the child — O(|P|) pointer comparisons against the parent."""
        candidate_histories = candidate._histories
        if candidate_histories.get(process) != new_history:
            return False
        parent_histories = self._histories
        if len(candidate_histories) != len(parent_histories) + (
            1 if len(new_history) == 1 else 0
        ):
            return False
        for existing, history in parent_histories.items():
            if existing != process:
                other = candidate_histories.get(existing)
                if other is not history and other != history:
                    return False
        return True

    def _build_extension(
        self,
        event: Event,
        new_history: tuple[Event, ...],
        content_hash: int,
        new_entry: int,
    ) -> "Configuration":
        """Construct the child described by :meth:`_extension_parts`.

        Trusted path: no validation, no re-sorting, no registry.  Must be
        called with the values ``_extension_parts(event)`` returned (which
        also guarantees ``_entry_hashes`` is populated).
        """
        process = event.process
        parent_histories = self._histories
        if len(new_history) > 1:
            items = dict(parent_histories)
            items[process] = new_history  # same key: position preserved
        else:
            # Insert the new process at its sorted position.
            items = {}
            placed = False
            for existing, history in parent_histories.items():
                if not placed and process < existing:
                    items[process] = new_history
                    placed = True
                items[existing] = history
            if not placed:
                items[process] = new_history

        child_entry_hashes = dict(self._entry_hashes)
        child_entry_hashes[process] = new_entry
        child = Configuration._from_trusted(items, content_hash, child_entry_hashes)
        if self._length is not None:
            child._length = self._length + 1
        self._propagate_caches(child, event)
        return child

    def extend(self, event: Event) -> "Configuration":
        """The configuration with ``event`` appended to its process.

        The result is built without re-validation or re-sorting, its hash
        is derived incrementally from this configuration's hash, and
        structurally equal results are interned so repeated discoveries
        return the same object.  (The exhaustive-exploration kernel no
        longer routes through here — it dedups against its own dense id
        table via :meth:`_extension_parts`; see
        :mod:`repro.universe.explorer`.)
        """
        new_history, content_hash, new_entry = self._extension_parts(event)
        process = event.process
        # Duplicate discovery resolves against the registry with O(|P|)
        # pointer comparisons and no allocation.
        bucket = _REGISTRY.get(content_hash)
        if bucket is not None:
            for reference in bucket:
                candidate = reference()
                if candidate is not None and self._matches_extension(
                    candidate, process, new_history
                ):
                    return candidate
        child = self._build_extension(event, new_history, content_hash, new_entry)
        _registry_insert(content_hash, child)
        return child

    def extend_unregistered(self, event: Event) -> "Configuration":
        """Like :meth:`extend`, but never touches the intern registry.

        For driver loops that extend along one path and discard (or
        privately index) the intermediates — the simulator's step loop and
        the exploration kernel — where interning each child would cycle
        the weak registry once per step for no dedup benefit.  The result
        hashes and compares exactly like an interned configuration, it is
        just never the canonical instance.
        """
        new_history, content_hash, new_entry = self._extension_parts(event)
        return self._build_extension(event, new_history, content_hash, new_entry)

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
    ``_from_trusted`` **without touching the intern registry**: a
    10^5-step simulation trace yields 10^5 throwaway configurations, and
    interning each one would churn the registry with weakrefs that die on
    the next step.  The yielded objects hash and compare exactly like
    publicly constructed configurations.
    """
    items: dict[ProcessId, tuple[Event, ...]] = {}
    entry_hashes: dict[ProcessId, int] = {}
    content_hash = 0
    count = 0
    yield EMPTY_CONFIGURATION
    for event in events:
        process = event.process
        old_history = items.get(process)
        try:
            event_hash = event._hash_cache
        except AttributeError:
            event_hash = hash(event)
        if old_history is None:
            new_entry = (
                (hash(process) % _HASH_MODULUS) * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            content_hash = (content_hash + new_entry) % _HASH_MODULUS
            # Insert the new process at its sorted position.
            rebuilt: dict[ProcessId, tuple[Event, ...]] = {}
            placed = False
            for existing, history in items.items():
                if not placed and process < existing:
                    rebuilt[process] = (event,)
                    placed = True
                rebuilt[existing] = history
            if not placed:
                rebuilt[process] = (event,)
            items = rebuilt
        else:
            old_entry = entry_hashes[process]
            new_entry = (
                old_entry * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            content_hash = (content_hash - old_entry + new_entry) % _HASH_MODULUS
            items = dict(items)
            items[process] = old_history + (event,)
        entry_hashes = dict(entry_hashes)
        entry_hashes[process] = new_entry
        count += 1
        snapshot = Configuration._from_trusted(items, content_hash, entry_hashes)
        snapshot._length = count
        yield snapshot

"""Multiprocess sharded frontier exploration (``Universe(..., workers=K)``).

The single-process kernel (:meth:`repro.universe.explorer.Universe._explore`)
walks the frontier one BFS layer at a time.  Because every edge extends a
configuration by exactly one event, each layer holds configurations of one
uniform event count — so duplicate discoveries can only collide *within*
the layer being expanded, never against earlier layers.  That invariant is
what makes the frontier partitionable:

* the frontier of layer ``L`` is split into ``K`` shards by the parent's
  *content hash* (``hash % K`` — shard-stable because the rolling content
  hash is a pure function of the configuration, see
  :mod:`repro.core.configuration`);
* worker ``w`` expands the parents of its shard: compiled-table enabled
  events, rolling child hashes, and *local* duplicate resolution with the
  same structural checks the kernel performs (transient children are
  materialised per locally-distinct candidate so hash collisions are
  detected exactly, not probabilistically);
* workers ship per-parent **edge batches** — a duplicate edge is one
  ``int`` (the index of the worker-local candidate it collapsed into), a
  candidate-new edge is ``(event, child_hash)``; the batch is packed with
  the shared batch codec (:func:`repro.universe.arena.compress_batch`)
  in the worker and framed with a CRC-32 so a corrupted payload is
  rejected before it is ever inflated or unpickled;
* the coordinator merges the batches *in global BFS order* (ascending
  parent id, original enabled-event order within a parent), resolving
  cross-worker duplicates against its authoritative id table with the
  kernel's own dedup logic, constructing each first-discovered child
  exactly once, and appending the CSR successor rows;
* the merged discovery stream ``[(parent_id, event), ...]`` is broadcast
  back (batch-compressed once, sent ``K`` times) and every worker replays
  it to keep its replica bit-identical to the coordinator's frontier.

Worker replicas are **packed** (:class:`_PackedReplica`): because
shard expansion only ever reads the *current* frontier layer — batch
dedup is layer-local by the uniform-event-count argument above, and
cross-layer collisions are resolved coordinator-side — a worker keeps no
``Configuration`` objects and no id table at all.  Its state is one
window of packed history rows (fixed-width tuples in
``ordered_processes`` order, exactly the representation of the
kernel ``Universe._explore``) plus per-layer-interned
received/in-flight message frozensets; replaying the discovery stream
advances the window floor parent-by-parent, so replaying the *full*
stream after a respawn still peaks at one layer of rows.  The
coordinator's fold-in fallback (:class:`_Replica`) expands over the
coordinator's own arena instead.

Determinism: the coordinator replay *is* the kernel's inner loop fed by a
pre-computed enabled-event stream, so the resulting universe — dense ids,
CSR successor arrays, hash table (including collision buckets),
completeness flag, truncation point under ``on_limit="truncate"`` — is
bit-identical to single-process exploration.  The test suite asserts this
on star/tree/ring broadcast, token bus, ping-pong and custom-enabling
protocols.

Fault tolerance (PR 6).  The coordinator never blocks on a bare
``recv()``: every wait is a bounded ``multiprocessing.connection.wait``
poll, workers send heartbeats while expanding (every
``SupervisionPolicy.heartbeat_parents`` parents and every
``heartbeat_records`` replayed records), and a worker that crashes
(``EOFError``/``BrokenPipeError``), hangs (heartbeat timeout) or ships a
corrupt frame (CRC mismatch) surfaces as a typed :class:`WorkerFailure`
instead of a deadlock.  Recovery leans on the same purity that makes the
engine deterministic: **shard expansion is a pure function of the merged
discovery stream**, and the coordinator's arena holds that stream
verbatim (:meth:`~repro.universe.arena.ArenaStore.records`), so the
coordinator either

* **respawns** a replacement worker and feeds it the full reconstructed
  stream as its first replay (the replacement rebuilds the replica and
  re-expands the failed layer shard — bit-identical by construction), or
* once the respawn budget (``SupervisionPolicy.max_respawns``) is spent,
  **folds** the dead worker's shard into itself: the coordinator owns the
  authoritative state and expands that shard in-process for the rest of
  the run.  The shard *assignment* (``hash % K``) never changes — only
  who executes a shard — which is exactly why recovery cannot perturb
  the result.

Worker-side exceptions are shipped as structured error frames (type,
message, original traceback) and re-raised by the coordinator as
:class:`WorkerError` — deterministic application errors are *not*
retried, because a replacement would fail identically.

Deterministic fault injection (:mod:`repro.universe.faults`) threads
through ``_worker_main`` so every one of these recovery paths is
exercised by tests and by ``repro bench --suite fault-recovery``;
layer-boundary checkpointing and the RSS watchdog
(:mod:`repro.universe.checkpoint`) hook into the layer loop.

Workers are forked (``multiprocessing`` ``"fork"`` context): the protocol
object and its :class:`~repro.universe.protocol.CompiledStepTable` are
inherited copy-on-write, so no table handoff cost is paid up front (the
table also pickles, for explicit handoffs — see
``CompiledStepTable.__getstate__``).  Fork also inherits the interpreter's
hash seed, which the content hashes of processes and events depend on;
each worker verifies :func:`repro.core.configuration.hash_domain_token`
against the coordinator's before exploring, so a spawn-style context with
a different ``PYTHONHASHSEED`` fails loudly instead of mis-sharding.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import traceback
import zlib
from dataclasses import dataclass
from math import inf
from multiprocessing.connection import wait as _connection_wait

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    _entry_hash,
    EMPTY_CONFIGURATION,
    Configuration,
    hash_domain_token,
)
from repro.core.errors import UniverseError
from repro.core.events import ReceiveEvent, SendEvent
from repro.universe.arena import compress_batch, decompress_batch
from repro.universe.recovery import RecoveryLog
from repro.universe.retry import (
    TRANSIENT_SPAWN_ERRNOS,
    is_storage_error,
    transient_spawn_error,
)

_BOUND_MESSAGE = (
    "exploration exceeded %s configurations; raise the bound or shrink "
    "the protocol"
)

_MAX_WORKERS = 64
"""Safety cap on the worker count (each worker replicates the frontier)."""


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None``/``0``/``1`` mean the
    in-process kernel; ``K > 1`` means ``K`` sharded worker processes."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise UniverseError(f"workers must be >= 0, got {workers}")
    if workers > _MAX_WORKERS:
        raise UniverseError(
            f"workers must be <= {_MAX_WORKERS}, got {workers}"
        )
    return max(workers, 1)


# Spawn-transient classification lives in the shared typed-retry module
# now (PR 10); these aliases keep the original names importable.
_TRANSIENT_SPAWN_ERRNOS = TRANSIENT_SPAWN_ERRNOS
_transient_spawn_error = transient_spawn_error


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunables of the coordinator's worker supervision.

    ``heartbeat_timeout`` is how long a worker may stay silent (no
    heartbeat, no batch) before it is declared hung; workers emit a
    heartbeat every ``heartbeat_parents`` expanded parents and every
    ``heartbeat_records`` replayed records, so the gap between
    heartbeats under normal operation is bounded work, not a layer.
    ``max_respawns`` is the total replacement budget for the whole
    exploration (``None`` means one per worker); once spent, further
    failures fold the shard into the coordinator.  ``poll_interval``
    bounds every coordinator wait; ``join_timeout`` bounds teardown.

    ``spawn_attempts``/``spawn_backoff`` make worker *starts* resilient:
    a transient ``Process.start`` failure (fork EAGAIN under pid/memory
    pressure, "resource temporarily unavailable") is retried up to
    ``spawn_attempts`` times with exponential backoff starting at
    ``spawn_backoff`` seconds before the failure counts — at initial
    spawn it then raises, at respawn it folds the shard.
    """

    heartbeat_timeout: float = 30.0
    poll_interval: float = 0.05
    heartbeat_parents: int = 2048
    heartbeat_records: int = 200_000
    max_respawns: int | None = None
    join_timeout: float = 5.0
    spawn_attempts: int = 3
    spawn_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.heartbeat_timeout <= 0:
            raise UniverseError("heartbeat_timeout must be positive")
        if self.poll_interval <= 0:
            raise UniverseError("poll_interval must be positive")
        if self.heartbeat_parents < 1 or self.heartbeat_records < 1:
            raise UniverseError("heartbeat chunk sizes must be >= 1")
        if self.max_respawns is not None and self.max_respawns < 0:
            raise UniverseError("max_respawns must be >= 0")
        if self.spawn_attempts < 1:
            raise UniverseError("spawn_attempts must be >= 1")
        if self.spawn_backoff < 0:
            raise UniverseError("spawn_backoff must be >= 0")

    def resolve_respawns(self, workers: int) -> int:
        return workers if self.max_respawns is None else self.max_respawns


class WorkerFailure(Exception):
    """Internal control-flow signal: worker ``shard`` failed *environmentally*
    (crash, hang, corrupt frame) and the layer must be recovered.

    Never escapes :class:`ShardedExplorer` — it is consumed by the
    failover logic.  Deterministic application errors travel as
    :class:`WorkerError` instead and are never retried.
    """

    def __init__(self, shard: int, kind: str, detail: str = "") -> None:
        super().__init__(f"worker {shard} {kind}: {detail}")
        self.shard = shard
        self.kind = kind  # "exit" | "timeout" | "corrupt" | "storage"
        self.detail = detail


class WorkerError(UniverseError):
    """A worker raised a real exception; re-raised by the coordinator
    with the worker's original traceback preserved in the message and in
    :attr:`worker_traceback`."""

    def __init__(self, shard: int, payload: dict) -> None:
        self.shard = shard
        self.worker_type = payload.get("type", "Exception")
        self.worker_traceback = payload.get("traceback") or ""
        text = (
            f"sharded exploration worker {shard} failed with "
            f"{self.worker_type}: {payload.get('message', '')}"
        )
        if self.worker_traceback:
            text += (
                "\n--- original worker traceback ---\n"
                + self.worker_traceback
            )
        super().__init__(text)


def _child_items(parent: Configuration, process, new_history):
    """The child's normalised history dict (kernel construction)."""
    parent_histories = parent._histories
    if len(new_history) > 1:
        items = dict(parent_histories)
        items[process] = new_history
    else:
        items = {}
        placed = False
        for existing_process, history in parent_histories.items():
            if not placed and process < existing_process:
                items[process] = new_history
                placed = True
            items[existing_process] = history
        if not placed:
            items[process] = new_history
    return items


class _Replica:
    """The coordinator's expander for a folded shard.

    Reads the coordinator's own configuration store — authoritative, so
    :meth:`expand` re-derives exactly the batch the dead worker would
    have sent (shard expansion is a pure function of the stream).
    """

    __slots__ = (
        "protocol",
        "configurations",
        "entry_hash_of",
        "seed_of",
        "max_events",
        "initial_steps",
    )

    def __init__(self, protocol, max_events, configurations) -> None:
        self.protocol = protocol
        self.configurations = configurations
        # Rolling entry hashes keyed by history-tuple identity, exactly as
        # in the kernel; valid only while the keyed histories stay alive.
        self.entry_hash_of: dict[int, int] = {}
        self.seed_of = {
            process: hash(process) % _HASH_MODULUS
            for process in protocol.ordered_processes
        }
        self.max_events = max_events
        table = protocol.step_table
        self.initial_steps = {
            process: table.steps(process, ())
            for process in protocol.ordered_processes
        }

    # -- shared hash math ----------------------------------------------
    def _child_parts(self, parent: Configuration, event):
        """``(process, new_history, child_hash)`` of one edge.

        The kernel's rolling-hash math verbatim: O(1) per edge via the
        history-identity entry memo.
        """
        process = event.process
        try:
            event_hash = event._hash_cache
        except AttributeError:
            event_hash = hash(event)
        parent_hash = parent._hash
        if parent_hash is None:
            parent_hash = hash(parent)
        old_history = parent._histories.get(process)
        if old_history is None:
            new_history = (event,)
            new_entry = (
                self.seed_of[process] * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            child_hash = (parent_hash + new_entry) % _HASH_MODULUS
        else:
            memo = self.entry_hash_of
            old_entry = memo.get(id(old_history))
            if old_entry is None:
                old_entry = _entry_hash(process, old_history)
                memo[id(old_history)] = old_entry
            new_history = old_history + (event,)
            new_entry = (
                old_entry * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            child_hash = (parent_hash - old_entry + new_entry) % _HASH_MODULUS
        return process, new_history, child_hash

    # -- expansion ------------------------------------------------------
    def expand(
        self,
        layer_start: int,
        layer_end: int,
        shard: int,
        shards: int,
        progress=None,
        progress_every: int = 0,
    ):
        """Expand this shard's parents of one frontier layer.

        Returns ``(records, incomplete)``: per owned parent, in ascending
        id order, ``(parent_id, edges)`` where ``edges`` is ``None`` for a
        ``max_events``-capped parent, else a list whose elements are
        either an ``int`` (duplicate of the batch-local candidate with
        that index) or ``(event, child_hash)`` (candidate-new edge, first
        local discovery).  ``incomplete`` is True iff a capped parent
        still had enabled events (the kernel's completeness rule).

        ``progress`` (if given) is invoked every ``progress_every``
        *owned* parents — the worker-side heartbeat hook.
        """
        protocol = self.protocol
        configurations = self.configurations
        max_events = self.max_events
        table = protocol.step_table
        steps_for = table.steps
        by_history = table._by_history
        ordered = protocol.ordered_processes
        selective = protocol.is_selective
        custom_enabling = protocol.has_custom_enabling
        enabling_filter = (
            protocol.filter_enabled_events
            if protocol.has_enabling_filter
            else None
        )
        receive_sets = protocol.receive_events_for
        selective_receives = protocol.selective_receive_events
        compiled_enabled = protocol.compiled_enabled_events
        initial_steps = self.initial_steps
        child_parts = self._child_parts
        child_items = _child_items
        from_trusted = Configuration._from_trusted

        records = []
        incomplete = False
        candidates = 0
        since_progress = 0
        # Batch-local candidate table: child_hash -> [(index, transient)].
        # Transient children are materialised so local duplicate edges get
        # the kernel's structural check, not a hash-only equality.
        layer_candidates: dict[int, list] = {}
        for parent_id in range(layer_start, layer_end):
            current = configurations[parent_id]
            parent_hash = current._hash
            if parent_hash is None:
                parent_hash = hash(current)
            if parent_hash % shards != shard:
                continue
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
            if max_events is not None and len(current) >= max_events:
                if compiled_enabled(current):
                    incomplete = True
                records.append((parent_id, None))
                continue
            if custom_enabling:
                enabled = list(protocol.enabled_events(current))
            else:
                history_of = current._histories.get
                enabled = []
                for process in ordered:
                    history = history_of(process)
                    if history is None:
                        enabled += initial_steps[process]
                    else:
                        steps = by_history[process].get(history)
                        enabled += (
                            steps
                            if steps is not None
                            else steps_for(process, history)
                        )
                in_flight = current.in_flight_messages
                if in_flight:
                    if not selective:
                        enabled += receive_sets(in_flight)
                    else:
                        enabled += selective_receives(
                            current._histories.get, in_flight
                        )
                if enabling_filter is not None:
                    enabled = enabling_filter(current, enabled)
            matches = current._matches_extension
            edges: list = []
            for event in enabled:
                process, new_history, child_hash = child_parts(
                    current, event
                )
                bucket = layer_candidates.get(child_hash)
                if bucket is not None:
                    resolved = None
                    for candidate_index, transient in bucket:
                        if matches(transient, process, new_history):
                            resolved = candidate_index
                            break
                    if resolved is not None:
                        edges.append(resolved)
                        continue
                transient = from_trusted(
                    child_items(current, process, new_history),
                    child_hash,
                    None,
                )
                if bucket is None:
                    layer_candidates[child_hash] = [(candidates, transient)]
                else:
                    bucket.append((candidates, transient))
                edges.append((event, child_hash))
                candidates += 1
            records.append((parent_id, edges))
        return records, incomplete


class _PackedReplica:
    """A worker's *packed window* replica of the frontier.

    A shard worker only ever reads the layer it is expanding: batch
    dedup is layer-local (every edge adds one event, so duplicates
    collide within a layer), and the rare cross-layer content-hash
    collision is resolved on the coordinator, which owns the id table.  So this replica keeps exactly
    one window of packed entries

        ``id -> (row, content_hash, received, in_flight)``

    in the representation of the kernel
    (:meth:`repro.universe.explorer.Universe._explore`): ``row``
    is a fixed-width tuple of per-process histories in
    ``ordered_processes`` order (``()`` for absent processes), and the
    message frozensets are interned per layer so siblings share set
    objects.  :meth:`apply` replays the coordinator's merged discovery
    stream into packed form, advancing the window floor as the stream's
    (non-decreasing) parent ids move past entries — a full-stream replay
    after a respawn therefore still peaks at one layer of rows.
    :meth:`expand` produces **bit-identical batches** to the
    coordinator's :class:`_Replica`: same enabled-event enumeration
    (compiled tables, selective receives, enabling filters via transient
    materialisation), same rolling child hashes, same batch-local
    candidate ordering.

    The rolling entry-hash memo is id-keyed on history tuples and
    rotates per :meth:`apply` generation, exactly as in the kernel:
    every tuple a lookup can name is held by a live window row, and a
    freshly allocated tuple that reuses a freed address has its memo
    entry overwritten at creation, so eviction cannot alias.
    """

    __slots__ = (
        "protocol",
        "max_events",
        "count",
        "window",
        "floor",
        "entry_hash_of",
        "entry_prev_get",
        "interned",
        "seed_of",
        "initial_steps",
        "ordered",
        "index_of",
        "width",
    )

    def __init__(self, protocol, max_events) -> None:
        self.protocol = protocol
        self.max_events = max_events
        self.ordered = protocol.ordered_processes
        self.width = len(self.ordered)
        self.index_of = {
            process: i for i, process in enumerate(self.ordered)
        }
        self.seed_of = {
            process: hash(process) % _HASH_MODULUS
            for process in self.ordered
        }
        table = protocol.step_table
        self.initial_steps = {
            process: table.steps(process, ()) for process in self.ordered
        }
        root_hash = hash(EMPTY_CONFIGURATION)
        empty = frozenset()
        self.window: dict[int, tuple] = {
            0: (((),) * self.width, root_hash, empty, empty)
        }
        self.floor = 0
        self.count = 1
        self.entry_hash_of: dict[int, int] = {}
        self.entry_prev_get = {}.get
        self.interned: dict[frozenset, frozenset] = {}

    def _transient(self, entry: tuple) -> Configuration:
        """A throwaway ``Configuration`` for the slow-path hooks
        (custom enabling, enabling filters, ``max_events`` probes)."""
        row, content_hash, received, in_flight = entry
        items = {
            process: history
            for process, history in zip(self.ordered, row)
            if history
        }
        configuration = Configuration._from_trusted(items, content_hash, None)
        cache = configuration.__dict__
        cache["received_messages"] = received
        cache["in_flight_messages"] = in_flight
        return configuration

    # -- replay ---------------------------------------------------------
    def apply(self, records, progress=None, progress_every: int = 0) -> None:
        """Replay a merged discovery stream ``[(parent_id, event), ...]``
        into packed window entries.

        Parent ids are non-decreasing in any discovery stream (children
        are appended in global BFS order), so entries strictly below the
        current parent can never be referenced again and are dropped as
        the replay advances — the window floor.  Rotates the entry-hash
        memo and the frozenset intern table: one ``apply`` + the
        following ``expand`` form one generation.
        """
        window = self.window
        index_of = self.index_of
        seed_of = self.seed_of
        modulus = _HASH_MODULUS
        multiplier = _ROLL_MULTIPLIER
        # Rotate the generation-scoped memos (see class docstring).
        self.entry_prev_get = self.entry_hash_of.get
        entry_prev_get = self.entry_prev_get
        entry_hash_of: dict[int, int] = {}
        self.entry_hash_of = entry_hash_of
        entry_memo_get = entry_hash_of.get
        interned: dict[frozenset, frozenset] = {}
        self.interned = interned
        intern = interned.setdefault
        floor = self.floor
        count = self.count
        since_progress = 0
        # Layer tracking for full-stream replays (respawn recovery): a
        # parent at or past `boundary` was itself created by this call,
        # i.e. the stream crossed a BFS layer — rotate the memos there
        # too, so a whole-universe replay keeps per-layer memo footprint.
        boundary = count
        for parent_id, event in records:
            if parent_id >= boundary:
                boundary = count
                self.entry_prev_get = entry_hash_of.get
                entry_prev_get = self.entry_prev_get
                entry_hash_of = {}
                self.entry_hash_of = entry_hash_of
                entry_memo_get = entry_hash_of.get
                interned = {}
                self.interned = interned
                intern = interned.setdefault
            while floor < parent_id:
                window.pop(floor, None)
                floor += 1
            row, parent_hash, received, in_flight = window[parent_id]
            process = event.process
            position = index_of[process]
            try:
                event_hash = event._hash_cache
            except AttributeError:
                event_hash = hash(event)
            old_history = row[position]
            if not old_history:
                new_history = (event,)
                new_entry = (
                    seed_of[process] * multiplier + event_hash
                ) % modulus
                child_hash = (parent_hash + new_entry) % modulus
            else:
                key = id(old_history)
                old_entry = entry_memo_get(key)
                if old_entry is None:
                    old_entry = entry_prev_get(key)
                    if old_entry is None:
                        old_entry = _entry_hash(process, old_history)
                    entry_hash_of[key] = old_entry
                new_history = old_history + (event,)
                new_entry = (
                    old_entry * multiplier + event_hash
                ) % modulus
                child_hash = (parent_hash - old_entry + new_entry) % modulus
            entry_hash_of[id(new_history)] = new_entry
            child_row = row[:position] + (new_history,) + row[position + 1:]
            # Inlined Configuration._propagate_caches over the interned
            # frozensets, exactly as in the kernel (including the
            # degenerate re-send of an already-received message).
            if isinstance(event, SendEvent):
                message = event.message
                child_received = received
                if message in received:
                    child_in_flight = in_flight
                else:
                    new_set = in_flight | {message}
                    child_in_flight = intern(new_set, new_set)
            elif isinstance(event, ReceiveEvent):
                message = event.message
                new_set = received | {message}
                child_received = intern(new_set, new_set)
                new_set = in_flight - {message}
                child_in_flight = intern(new_set, new_set)
            else:
                child_received = received
                child_in_flight = in_flight
            window[count] = (
                child_row,
                child_hash,
                child_received,
                child_in_flight,
            )
            count += 1
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
        self.floor = floor
        self.count = count

    # -- expansion ------------------------------------------------------
    def expand(
        self,
        layer_start: int,
        layer_end: int,
        shard: int,
        shards: int,
        progress=None,
        progress_every: int = 0,
    ):
        """Expand this shard's parents of one frontier layer.

        Same contract and bit-identical output as
        :meth:`_Replica.expand`; operates on packed rows, materialising
        transient configurations only on the slow paths.
        """
        protocol = self.protocol
        max_events = self.max_events
        window = self.window
        # Entries below the frontier are dead (their children are built);
        # drop any stragglers the last replay's floor left behind.
        floor = self.floor
        while floor < layer_start:
            window.pop(floor, None)
            floor += 1
        self.floor = floor
        table = protocol.step_table
        steps_for = table.steps
        by_history = table._by_history
        ordered = self.ordered
        width = self.width
        index_of = self.index_of
        selective = protocol.is_selective
        custom_enabling = protocol.has_custom_enabling
        enabling_filter = (
            protocol.filter_enabled_events
            if protocol.has_enabling_filter
            else None
        )
        receive_sets = protocol.receive_events_for
        selective_receives = protocol.selective_receive_events
        compiled_enabled = protocol.compiled_enabled_events
        initial_steps = self.initial_steps
        transient = self._transient
        seed_of = self.seed_of
        modulus = _HASH_MODULUS
        multiplier = _ROLL_MULTIPLIER
        entry_hash_of = self.entry_hash_of
        entry_memo_get = entry_hash_of.get
        entry_prev_get = self.entry_prev_get

        # Every BFS edge appends one event, so the layer depth is any
        # frontier member's total event count.
        depth = None
        if max_events is not None and layer_start < layer_end:
            depth = sum(map(len, window[layer_start][0]))

        records = []
        incomplete = False
        candidates = 0
        since_progress = 0
        # Batch-local candidate table: child_hash -> [(index, row)].
        # Candidate rows are compared elementwise — shared history tuples
        # make those identity hits — so local duplicate edges get the
        # kernel's structural check, not a hash-only equality.
        layer_candidates: dict[int, list] = {}
        for parent_id in range(layer_start, layer_end):
            entry = window[parent_id]
            row, parent_hash, received, in_flight = entry
            if parent_hash % shards != shard:
                continue
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
            if depth is not None and depth >= max_events:
                if compiled_enabled(transient(entry)):
                    incomplete = True
                records.append((parent_id, None))
                continue
            if custom_enabling:
                enabled = list(protocol.enabled_events(transient(entry)))
            else:
                enabled = []
                for position, process in enumerate(ordered):
                    history = row[position]
                    if not history:
                        enabled += initial_steps[process]
                    else:
                        steps = by_history[process].get(history)
                        enabled += (
                            steps
                            if steps is not None
                            else steps_for(process, history)
                        )
                if in_flight:
                    if not selective:
                        enabled += receive_sets(in_flight)
                    else:
                        items = {
                            process: history
                            for process, history in zip(ordered, row)
                            if history
                        }
                        enabled += selective_receives(items.get, in_flight)
                if enabling_filter is not None:
                    enabled = enabling_filter(transient(entry), enabled)
            edges: list = []
            for event in enabled:
                process = event.process
                position = index_of[process]
                try:
                    event_hash = event._hash_cache
                except AttributeError:
                    event_hash = hash(event)
                old_history = row[position]
                if not old_history:
                    new_history = (event,)
                    new_entry = (
                        seed_of[process] * multiplier + event_hash
                    ) % modulus
                    child_hash = (parent_hash + new_entry) % modulus
                else:
                    key = id(old_history)
                    old_entry = entry_memo_get(key)
                    if old_entry is None:
                        old_entry = entry_prev_get(key)
                        if old_entry is None:
                            old_entry = _entry_hash(process, old_history)
                        entry_hash_of[key] = old_entry
                    new_history = old_history + (event,)
                    new_entry = (
                        old_entry * multiplier + event_hash
                    ) % modulus
                    child_hash = (
                        parent_hash - old_entry + new_entry
                    ) % modulus
                bucket = layer_candidates.get(child_hash)
                if bucket is not None:
                    resolved = None
                    for candidate_index, candidate_row in bucket:
                        theirs = candidate_row[position]
                        if theirs is not new_history and theirs != new_history:
                            continue
                        for j in range(width):
                            if j == position:
                                continue
                            theirs = candidate_row[j]
                            ours = row[j]
                            if theirs is not ours and theirs != ours:
                                break
                        else:
                            resolved = candidate_index
                            break
                    if resolved is not None:
                        edges.append(resolved)
                        continue
                candidate_row = (
                    row[:position] + (new_history,) + row[position + 1:]
                )
                if bucket is None:
                    layer_candidates[child_hash] = [
                        (candidates, candidate_row)
                    ]
                else:
                    bucket.append((candidates, candidate_row))
                edges.append((event, child_hash))
                candidates += 1
            records.append((parent_id, edges))
        return records, incomplete


# ---------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------
def _send_error(connection, error: BaseException | None, message: str) -> None:
    """Ship a structured error frame; never raise from the shipper.

    ``environmental`` marks storage/resource failures (ENOSPC, EIO,
    descriptor exhaustion — e.g. a worker-side spill hitting a hostile
    disk): the coordinator routes those into deterministic failover
    (respawn or fold re-derives the same batch) instead of re-raising
    them as the exploration's own deterministic error.
    """
    payload = {
        "type": type(error).__name__ if error is not None else "UniverseError",
        "message": str(error) if error is not None else message,
        "traceback": traceback.format_exc() if error is not None else "",
        "environmental": error is not None and is_storage_error(error),
    }
    try:
        connection.send(("error", payload))
    except Exception:
        pass


def _worker_peak_rss_mb() -> float | None:
    """This process's peak RSS in MiB (``ru_maxrss``), ``None`` where
    the platform does not report it."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # pragma: no cover - non-POSIX only
        return None
    if peak <= 0:  # pragma: no cover - platform-defensive
        return None
    # Linux reports KiB; macOS reports bytes.
    divisor = 1024.0 if os.uname().sysname != "Darwin" else 1024.0 * 1024.0
    return peak / divisor


def _worker_main(
    connection,
    protocol,
    shard,
    shards,
    max_events,
    token,
    heartbeat_parents,
    heartbeat_records,
    fault_actions,
    inherited=(),
):
    """Body of one shard worker process.

    ``fault_actions`` is a list of :meth:`repro.universe.faults.Fault.as_wire`
    tuples scoped to this worker — deterministic fault injection for the
    recovery test matrix; empty in production use.

    ``inherited`` holds the coordinator-side pipe ends this fork copied:
    the worker's own and its earlier siblings'.  They are closed first,
    so when the coordinator dies — even by SIGKILL — the last writer of
    ``connection`` is gone and ``recv`` raises ``EOFError`` instead of
    blocking forever.
    """
    for end in inherited:
        end.close()
    gc.disable()
    faults_by_layer: dict[int, list] = {}
    for kind, layer, seconds in fault_actions:
        faults_by_layer.setdefault(layer, []).append((kind, seconds))

    def heartbeat() -> None:
        try:
            connection.send(("heartbeat",))
        except (BrokenPipeError, OSError):
            pass

    try:
        if hash_domain_token() != token:
            _send_error(
                connection,
                None,
                "worker hash domain differs from the coordinator's "
                "(sharded exploration requires the fork start method "
                "or a pinned PYTHONHASHSEED)",
            )
            return
        replica = _PackedReplica(protocol, max_events)
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "stop":
                # Farewell frame: this worker's peak RSS, so the
                # coordinator can attribute sharded memory per process
                # (the `sharded_rss_*` bench pair and the fault-recovery
                # suite's per-worker axis).
                try:
                    connection.send(("stopped", shard, _worker_peak_rss_mb()))
                except (BrokenPipeError, OSError):
                    pass
                return
            # ("expand", records_blob, layer_start, layer_end, layer)
            _, blob, layer_start, layer_end, layer = message
            actions = faults_by_layer.pop(layer, ())
            for fault_kind, _ in actions:
                if fault_kind == "kill":
                    # Simulated hard crash: no cleanup, no farewell frame
                    # — the coordinator sees EOF, exactly as for an OOM
                    # kill or a segfault.
                    os._exit(17)
            heartbeat()
            replica.apply(
                decompress_batch(blob),
                progress=heartbeat,
                progress_every=heartbeat_records,
            )
            if replica.count != layer_end:
                _send_error(
                    connection,
                    None,
                    f"replica desync: {replica.count} "
                    f"configurations, expected {layer_end}",
                )
                return
            batch, incomplete = replica.expand(
                layer_start,
                layer_end,
                shard,
                shards,
                progress=heartbeat,
                progress_every=heartbeat_parents,
            )
            # Batch-compressed with the shared codec: the CRC guards the
            # compressed frame, so corruption is rejected before either
            # inflate or unpickle sees the bytes.
            frame = compress_batch((batch, incomplete))
            crc = zlib.crc32(frame)
            drop = False
            for fault_kind, seconds in actions:
                if fault_kind == "delay_batch":
                    time.sleep(seconds)
                elif fault_kind == "drop_batch":
                    drop = True
                elif fault_kind == "corrupt_batch":
                    mangled = bytearray(frame)
                    mangled[len(mangled) // 2] ^= 0xFF
                    frame = bytes(mangled)
            if not drop:
                connection.send(("batch", frame, crc))
    except BaseException as error:
        _send_error(connection, error, "")
    finally:
        connection.close()


class _GatherState:
    """Mutable per-layer gather bookkeeping shared by the broadcast,
    gather and failover paths."""

    __slots__ = ("pending", "batches", "last_seen", "incomplete")

    def __init__(self, workers: int) -> None:
        self.pending: set[int] = set()
        self.batches: list = [None] * workers
        self.last_seen: dict[int, float] = {}
        self.incomplete = False


class ShardedExplorer:
    """Coordinator of the multiprocess sharded frontier exploration.

    Drives ``workers`` forked shard workers through the per-layer batch
    exchange protocol described in the module docstring and merges their
    edge batches into the owning :class:`~repro.universe.explorer.Universe`
    — deterministically, so the result is bit-identical to the
    single-process kernel, *including* across worker crashes, hangs and
    corrupt frames (see the fault-tolerance section of the module
    docstring and RELIABILITY.md).
    """

    def __init__(
        self,
        protocol,
        max_events,
        workers: int,
        supervision: SupervisionPolicy | None = None,
        fault_plan=None,
    ) -> None:
        if workers < 2:
            raise UniverseError(
                f"sharded exploration needs at least 2 workers, got {workers}"
            )
        self._protocol = protocol
        self._max_events = max_events
        self._workers = workers
        self._policy = supervision or SupervisionPolicy()
        self._fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate(workers)
        self._connections: list = [None] * workers
        self._processes: list = [None] * workers
        self._alive: list[bool] = [False] * workers
        self._respawns_left = self._policy.resolve_respawns(workers)
        self._fallback: _Replica | None = None
        self._stream_blob: tuple[int, bytes] | None = None
        self._context = None
        self._token = None
        self.recovery_log: list[dict] = []
        self.worker_peak_rss_mb: dict[int, float] = {}

    # -- process lifecycle ---------------------------------------------
    def _spawn(self, shard: int) -> None:
        """Start (or restart) the worker for ``shard`` on a fresh pipe.

        Transient start failures (fork EAGAIN under pid/memory pressure)
        are retried with bounded backoff per
        ``SupervisionPolicy.spawn_attempts``/``spawn_backoff``; a
        persistent or non-transient ``OSError`` propagates to the caller
        (initial spawn raises, :meth:`_recover` folds the shard).
        """
        actions = (
            self._fault_plan.take_for_shard(shard)
            if self._fault_plan is not None
            else []
        )
        parent_end, child_end = self._context.Pipe(duplex=True)
        worker_args = (
            child_end,
            self._protocol,
            shard,
            self._workers,
            self._max_events,
            self._token,
            self._policy.heartbeat_parents,
            self._policy.heartbeat_records,
            actions,
            (parent_end, *(c for c in self._connections if c is not None)),
        )
        delay = self._policy.spawn_backoff
        try:
            for attempt in range(1, self._policy.spawn_attempts + 1):
                process = self._context.Process(
                    target=_worker_main, args=worker_args, daemon=True
                )
                try:
                    process.start()
                    break
                except OSError as error:
                    if (
                        not _transient_spawn_error(error)
                        or attempt == self._policy.spawn_attempts
                    ):
                        raise
                    self.recovery_log.append(
                        {
                            "shard": shard,
                            "layer": None,
                            "kind": "spawn",
                            "action": "retry",
                            "detail": (
                                f"attempt {attempt}/"
                                f"{self._policy.spawn_attempts}: {error}"
                            ),
                        }
                    )
                    time.sleep(delay)
                    delay *= 2
        except OSError:
            parent_end.close()
            child_end.close()
            raise
        child_end.close()
        self._connections[shard] = parent_end
        self._processes[shard] = process
        self._alive[shard] = True

    def _discard_worker(self, shard: int) -> None:
        """Terminate and reap one worker, closing both coordinator-side
        handles.  Safe to call on an already-dead worker."""
        connection = self._connections[shard]
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
            self._connections[shard] = None
        process = self._processes[shard]
        if process is not None:
            try:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=self._policy.join_timeout)
                if process.is_alive():  # pragma: no cover - defensive
                    process.kill()
                    process.join(timeout=self._policy.join_timeout)
            except Exception:  # pragma: no cover - defensive
                pass
            self._processes[shard] = None
        self._alive[shard] = False

    def _teardown(self) -> None:
        """Exception-safe teardown of every child and both pipe ends.

        Connections close first so idle workers unblock from ``recv``
        with EOF and exit on their own; stragglers are terminated, then
        killed.  Runs on every exit path — success, coordinator-side
        exceptions, ``KeyboardInterrupt`` — so no orphan processes or
        leaked descriptors survive ``explore_into``.
        """
        for shard in range(self._workers):
            self._discard_worker(shard)

    def _worker_pids(self) -> list[int]:
        return [
            process.pid
            for process in self._processes
            if process is not None and process.is_alive()
        ]

    # -- failover -------------------------------------------------------
    def _full_stream_blob(self, universe, layer_end: int) -> bytes:
        """The compressed full discovery stream up to ``layer_end``,
        cached per layer (several failures in one layer replay the same
        stream).  The arena's columns *are* the stream
        (:meth:`~repro.universe.arena.ArenaStore.records`)."""
        cached = self._stream_blob
        if cached is not None and cached[0] == layer_end:
            return cached[1]
        arena = universe._configurations
        blob = compress_batch(arena.records(1, len(arena)))
        self._stream_blob = (layer_end, blob)
        return blob

    def _fold_shard(
        self, universe, shard: int, layer_start: int, layer_end: int
    ):
        """Expand ``shard`` in the coordinator — the no-respawn fallback.

        The coordinator's own state is authoritative, so a
        :class:`_Replica` over it re-derives exactly the batch the worker
        would have sent (pure function of the stream)."""
        if self._fallback is None:
            self._fallback = _Replica(
                self._protocol, self._max_events, universe._configurations
            )
        # The arena evicts cold layers (freeing their history tuples), so
        # the id-keyed entry memo cannot persist across layers without
        # aliasing risk.  Frontier parents stay alive in the hot window
        # for the whole expand call, so a per-call memo is both safe and
        # still O(1) per edge within the layer.
        self._fallback.entry_hash_of.clear()
        return self._fallback.expand(
            layer_start, layer_end, shard, self._workers
        )

    def _recover(
        self,
        universe,
        failure: WorkerFailure,
        state: _GatherState,
        layer_start: int,
        layer_end: int,
        layer: int,
    ) -> None:
        """Deterministic failover for one failed worker.

        Either respawn a replacement (fed the full reconstructed stream,
        so it re-expands the failed layer shard bit-identically) or fold
        the shard into the coordinator for the rest of the run.
        """
        shard = failure.shard
        self._discard_worker(shard)
        if self._respawns_left > 0:
            self._respawns_left -= 1
            try:
                self._spawn(shard)
            except OSError as error:
                # The host refused us a replacement process even after
                # the bounded retries; fold the shard instead of dying.
                self.recovery_log.append(
                    {
                        "layer": layer,
                        "shard": shard,
                        "kind": failure.kind,
                        "action": "respawn-failed",
                        "detail": f"spawn: {error}",
                    }
                )
                self._recover(
                    universe,
                    WorkerFailure(shard, "exit", f"spawn failed: {error}"),
                    state,
                    layer_start,
                    layer_end,
                    layer,
                )
                return
            try:
                self._connections[shard].send(
                    (
                        "expand",
                        self._full_stream_blob(universe, layer_end),
                        layer_start,
                        layer_end,
                        layer,
                    )
                )
            except (BrokenPipeError, OSError) as error:
                # The replacement died before taking the job; recurse —
                # bounded by the respawn budget, then folds.
                self.recovery_log.append(
                    {
                        "layer": layer,
                        "shard": shard,
                        "kind": failure.kind,
                        "action": "respawn-failed",
                        "detail": str(error),
                    }
                )
                self._recover(
                    universe,
                    WorkerFailure(shard, "exit", str(error)),
                    state,
                    layer_start,
                    layer_end,
                    layer,
                )
                return
            state.pending.add(shard)
            state.last_seen[shard] = time.monotonic()
            self.recovery_log.append(
                {
                    "layer": layer,
                    "shard": shard,
                    "kind": failure.kind,
                    "action": "respawn",
                    "detail": failure.detail,
                }
            )
            return
        state.pending.discard(shard)
        records, incomplete = self._fold_shard(
            universe, shard, layer_start, layer_end
        )
        state.batches[shard] = records
        state.incomplete |= incomplete
        self.recovery_log.append(
            {
                "layer": layer,
                "shard": shard,
                "kind": failure.kind,
                "action": "fold",
                "detail": failure.detail,
            }
        )

    # -- layer exchange -------------------------------------------------
    def _exchange_layer(
        self, universe, replay, layer_start: int, layer_end: int, layer: int
    ) -> _GatherState:
        """One full broadcast/expand/gather round with supervision.

        Returns the gather state with every shard's batch present —
        produced by its worker, a respawned replacement, or the
        coordinator's fold — or raises :class:`WorkerError` /
        :class:`UniverseError` for deterministic failures.
        """
        policy = self._policy
        state = _GatherState(self._workers)
        blob = compress_batch(replay)
        now = time.monotonic()
        for shard in range(self._workers):
            if not self._alive[shard]:
                # Permanently folded shard: the coordinator does the work.
                records, incomplete = self._fold_shard(
                    universe, shard, layer_start, layer_end
                )
                state.batches[shard] = records
                state.incomplete |= incomplete
                continue
            try:
                self._connections[shard].send(
                    ("expand", blob, layer_start, layer_end, layer)
                )
            except (BrokenPipeError, OSError) as error:
                self._recover(
                    universe,
                    WorkerFailure(shard, "exit", f"send failed: {error}"),
                    state,
                    layer_start,
                    layer_end,
                    layer,
                )
                continue
            state.pending.add(shard)
            state.last_seen[shard] = now

        while state.pending:
            conn_of = {
                self._connections[shard]: shard for shard in state.pending
            }
            ready = _connection_wait(
                list(conn_of), timeout=policy.poll_interval
            )
            now = time.monotonic()
            for connection in ready:
                shard = conn_of[connection]
                if shard not in state.pending:
                    continue  # recovered earlier in this drain
                if self._connections[shard] is not connection:
                    continue  # stale handle of a replaced worker
                try:
                    message = connection.recv()
                except (EOFError, BrokenPipeError, OSError) as error:
                    self._recover(
                        universe,
                        WorkerFailure(
                            shard, "exit", f"{type(error).__name__}: {error}"
                        ),
                        state,
                        layer_start,
                        layer_end,
                        layer,
                    )
                    continue
                state.last_seen[shard] = now
                kind = message[0]
                if kind == "heartbeat":
                    continue
                if kind == "error":
                    if message[1].get("environmental"):
                        # Environmental storage/resource failure (not a
                        # bug): a replacement on a healthier mount or the
                        # coordinator's fold re-derives the same batch.
                        self._recover(
                            universe,
                            WorkerFailure(
                                shard, "storage", message[1]["message"]
                            ),
                            state,
                            layer_start,
                            layer_end,
                            layer,
                        )
                        continue
                    # Deterministic application error: re-raise with the
                    # original traceback; a replacement would fail the
                    # same way, so no retry.
                    raise WorkerError(shard, message[1])
                frame, crc = message[1], message[2]
                if zlib.crc32(frame) != crc:
                    self._recover(
                        universe,
                        WorkerFailure(
                            shard,
                            "corrupt",
                            f"batch CRC mismatch at layer {layer}",
                        ),
                        state,
                        layer_start,
                        layer_end,
                        layer,
                    )
                    continue
                records, incomplete = decompress_batch(frame)
                state.batches[shard] = records
                state.incomplete |= incomplete
                state.pending.discard(shard)
            for shard in sorted(state.pending):
                if now - state.last_seen[shard] > policy.heartbeat_timeout:
                    self._recover(
                        universe,
                        WorkerFailure(
                            shard,
                            "timeout",
                            f"no heartbeat for "
                            f"{policy.heartbeat_timeout:.3g}s at layer "
                            f"{layer}",
                        ),
                        state,
                        layer_start,
                        layer_end,
                        layer,
                    )
        return state

    # -- exploration ----------------------------------------------------
    def explore_into(
        self,
        universe,
        max_configurations,
        on_limit,
        checkpoint=None,
        rss_budget_mb=None,
    ) -> None:
        """Run the sharded exploration, filling ``universe``'s stores.

        ``checkpoint`` is an optional
        :class:`~repro.universe.checkpoint.CheckpointSession` (resume +
        layer-boundary saves); ``rss_budget_mb`` arms the RSS watchdog
        (coordinator + live workers), degrading to the
        ``on_limit="truncate"`` behaviour at the next layer boundary
        instead of being OOM-killed.
        """
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX only
            raise UniverseError(
                "sharded exploration requires the 'fork' multiprocessing "
                "start method (content hashes depend on the interpreter's "
                "hash seed, which fork inherits)"
            ) from error
        # Warm the root's message-set caches before forking so the
        # propagate chain is unbroken in every process, as in the kernel.
        EMPTY_CONFIGURATION.received_messages
        EMPTY_CONFIGURATION.in_flight_messages
        self._token = hash_domain_token()
        # Share the universe's structured log so worker-failover rungs,
        # checkpoint salvage events and storage degradations interleave
        # on one monotonic sequence; fall back to our own list when
        # driven outside a Universe.
        recovery = getattr(universe, "_recovery_log", None)
        if recovery is None:
            recovery = RecoveryLog()
            universe._recovery_log = recovery
        self.recovery_log = recovery
        watchdog = None
        if rss_budget_mb is not None:
            from repro.universe.checkpoint import RssWatchdog

            watchdog = RssWatchdog(rss_budget_mb, self._worker_pids)
        universe._rss_watchdog = watchdog
        resumed = checkpoint.try_resume(universe) if checkpoint else None
        try:
            for shard in range(self._workers):
                self._spawn(shard)
            self._explore_loop(
                universe,
                max_configurations,
                on_limit,
                checkpoint,
                watchdog,
                resumed,
            )
            for shard in range(self._workers):
                if self._alive[shard]:
                    try:
                        self._connections[shard].send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            self._collect_farewells()
            universe._worker_peak_rss_mb = dict(self.worker_peak_rss_mb)
        finally:
            self._teardown()

    def _collect_farewells(self) -> None:
        """Drain each live worker's ``("stopped", shard, peak_rss_mb)``
        farewell, bounded by ``join_timeout`` — per-process peak memory
        attribution for the bench suites.  Best-effort: a worker that
        dies instead of answering is simply missing from the map."""
        deadline = time.monotonic() + self._policy.join_timeout
        for shard in range(self._workers):
            if not self._alive[shard]:
                continue
            connection = self._connections[shard]
            if connection is None:
                continue
            try:
                while time.monotonic() < deadline:
                    remaining = deadline - time.monotonic()
                    if not connection.poll(max(remaining, 0.0)):
                        break
                    message = connection.recv()
                    if message[0] == "stopped":
                        rss = message[2]
                        if rss is not None:
                            self.worker_peak_rss_mb[shard] = rss
                        break
            except (EOFError, BrokenPipeError, OSError):
                continue

    def _explore_loop(
        self,
        universe,
        max_configurations,
        on_limit,
        checkpoint,
        watchdog,
        resumed,
    ) -> None:
        """The coordinator side: broadcast, gather, merge, repeat."""
        workers = self._workers
        arena = universe._configurations
        lookup = arena._get_hot
        ids_by_hash = universe._ids_by_hash
        succ_ids = universe._succ_ids
        succ_offsets = universe._succ_offsets
        from_trusted = Configuration._from_trusted
        child_items = _child_items
        limit = max_configurations if max_configurations is not None else inf

        if resumed is not None:
            count = len(arena)
            edges = len(succ_ids)
            layer_start = resumed.frontier_start
            layer = resumed.layers
            # Fresh replicas rebuild from the root: the first replay blob
            # is the full restored stream, not one layer's.
            replay: list = resumed.stream
        else:
            arena.append(EMPTY_CONFIGURATION)
            ids_by_hash[hash(EMPTY_CONFIGURATION)] = 0
            count = 1
            edges = 0
            layer_start = 0
            layer = 0
            replay = []  # previous layer's merged discovery stream
        arm_storage = getattr(universe, "_arm_storage_faults", None)
        if arm_storage is not None:
            arm_storage(layer)
        bound_error: str | None = None
        rss_truncated = False
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                layer_end = count
                state = self._exchange_layer(
                    universe, replay, layer_start, layer_end, layer
                )
                if state.incomplete:
                    universe._complete = False
                batches = state.batches
                replay = []
                cursors = [0] * workers
                # Per worker, candidate index -> resolved global id, filled
                # in batch order as the merge walks the layer.
                candidate_ids: list[list[int]] = [[] for _ in range(workers)]
                for parent_id in range(layer_start, layer_end):
                    parent = lookup(parent_id)
                    parent_hash = parent._hash
                    if parent_hash is None:
                        parent_hash = hash(parent)
                    shard = parent_hash % workers
                    record = batches[shard][cursors[shard]]
                    cursors[shard] += 1
                    if record[0] != parent_id:
                        raise UniverseError(
                            f"sharded merge desync: worker {shard} sent "
                            f"parent {record[0]}, expected {parent_id}"
                        )
                    edge_list = record[1]
                    if edge_list is None:  # max_events-capped parent
                        succ_offsets.append(edges)
                        continue
                    resolved = candidate_ids[shard]
                    propagate = parent._propagate_caches
                    matches = parent._matches_extension
                    for edge in edge_list:
                        if type(edge) is int:
                            succ_ids.append(resolved[edge])
                            edges += 1
                            continue
                        event, child_hash = edge
                        process = event.process
                        old_history = parent._histories.get(process)
                        new_history = (
                            old_history + (event,)
                            if old_history is not None
                            else (event,)
                        )
                        existing = ids_by_hash.get(child_hash)
                        if existing is None:
                            if count >= limit:
                                bound_error = (
                                    _BOUND_MESSAGE % max_configurations
                                )
                                break
                            child_id = count
                        elif type(existing) is int:
                            if matches(
                                lookup(existing), process, new_history
                            ):
                                resolved.append(existing)
                                succ_ids.append(existing)
                                edges += 1
                                continue
                            # content-hash collision: open the bucket
                            if count >= limit:
                                bound_error = (
                                    _BOUND_MESSAGE % max_configurations
                                )
                                break
                            child_id = count
                            ids_by_hash[child_hash] = [existing, child_id]
                        else:
                            for candidate_id in existing:
                                if matches(
                                    lookup(candidate_id),
                                    process,
                                    new_history,
                                ):
                                    child_id = candidate_id
                                    break
                            else:
                                if count >= limit:
                                    bound_error = (
                                        _BOUND_MESSAGE % max_configurations
                                    )
                                    break
                                child_id = count
                                existing.append(child_id)
                            if child_id != count:
                                resolved.append(child_id)
                                succ_ids.append(child_id)
                                edges += 1
                                continue
                        # First discovery.
                        if existing is None:
                            ids_by_hash[child_hash] = child_id
                        count += 1
                        child = from_trusted(
                            child_items(parent, process, new_history),
                            child_hash,
                            None,
                        )
                        propagate(child, event)
                        arena.append_child(parent_id, event, child_hash, child)
                        replay.append((parent_id, event))
                        resolved.append(child_id)
                        succ_ids.append(child_id)
                        edges += 1
                    succ_offsets.append(edges)
                    if bound_error is not None:
                        break
                if bound_error is not None:
                    break
                done = count == layer_end  # no new configurations
                if arm_storage is not None:
                    arm_storage(layer + 1)
                if checkpoint is not None:
                    checkpoint.commit_layer(
                        replay, layer_end, universe, final=done
                    )
                # The consumed frontier is cold now: evict its window
                # objects and seal/compress whole chunks below it.
                arena.retire(layer_end)
                layer_start = layer_end
                layer += 1
                if done:
                    break
                if watchdog is not None and watchdog.exceeded():
                    if arena.spill_cold() and not watchdog.exceeded():
                        # Graceful spill bought headroom; keep exploring.
                        self.recovery_log.append(
                            {
                                "layer": layer,
                                "shard": None,
                                "kind": "rss_budget",
                                "action": "spill",
                                "detail": f"{count} configurations",
                            }
                        )
                        continue
                    self.recovery_log.append(
                        {
                            "layer": layer,
                            "shard": None,
                            "kind": "rss_budget",
                            "action": "truncate",
                            "detail": f"{count} configurations",
                        }
                    )
                    rss_truncated = True
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        if bound_error is not None and on_limit == "raise":
            raise UniverseError(bound_error)
        if bound_error is not None or rss_truncated:
            universe._complete = False
            while len(succ_offsets) < len(arena) + 1:
                succ_offsets.append(len(succ_ids))


__all__ = [
    "ShardedExplorer",
    "SupervisionPolicy",
    "WorkerError",
    "WorkerFailure",
    "resolve_workers",
]

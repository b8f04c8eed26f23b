"""Compact arena configuration store: packed histories, lazy objects.

The exploration kernel discovers every configuration as *one parent plus
one event*.  The arena persists exactly that — three packed
struct-of-arrays columns (parent dense id, interned event index, rolling
content hash; 20 bytes per configuration) — and materialises
:class:`~repro.core.configuration.Configuration` objects lazily, behind
a read-only list-like sequence interface:

* neither the exploration engines nor a checkpoint replay
  (:meth:`ArenaStore.replay`) build objects: the engines keep their
  frontier as packed rows
  (:class:`~repro.universe.frontier.PackedFrontier`) and the replay
  recomputes each child's hash from rolling entry hashes
  (:func:`~repro.universe.frontier.stream_hashes`);
* children arrive in batches: an engine hands each BFS layer's
  discoveries to :meth:`ArenaStore.extend_children` as three columns at
  the layer boundary, resolving each event object to its index once,
  and a replay hands over columns whose event indices already point
  into the vocabulary it installs;
* every read is a **chain walk** up the parent and event columns to the
  nearest LRU-resident ancestor (the root at worst) that folds the
  collected events into one copy of its histories: one object per read,
  and only read targets enter the bounded LRU — property sweeps and spot
  lookups never pay for objects they don't touch;
* sealed **cold chunks** (whole column slices below the retired floor)
  compress with zlib at batch level and stay in RAM as ``bytes`` blobs;
  the arena never touches the filesystem.

:func:`compress_batch`/:func:`decompress_batch` are the batch codec the
cold tier shares with the sharded engine's per-layer successor exchange
and the checkpoint segment payloads.  A checkpoint segment is a slice of
the arena's own columns (:meth:`ArenaStore.columns`) plus the events it
uses, and a resume refills the columns in bulk (:meth:`ArenaStore.replay`).
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from collections import OrderedDict
from collections.abc import Iterator
from operator import itemgetter

from repro.core.configuration import (
    EMPTY_CONFIGURATION,
    Configuration,
    _with_event,
)
from repro.core.events import Event
from repro.universe.frontier import stream_hashes


def compress_batch(payload: object) -> bytes:
    """Pickle + zlib(level 1) a batch payload.

    One codec for every bulk transfer in the system: checkpoint segment
    payloads, the sharded engine's layer exchange and full-stream respawn
    blobs, and the arena's sealed chunks.  Level 1 because every call
    site is latency-sensitive and the pickled streams are highly
    repetitive (ratios of 3-6x at negligible CPU).
    """
    return zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1)


def decompress_batch(blob: bytes) -> object:
    """Inverse of :func:`compress_batch`."""
    return pickle.loads(zlib.decompress(blob))


_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1
_PARENT_BYTES = 8 * _CHUNK_SIZE
_EVENT_BYTES = 4 * _CHUNK_SIZE


def _event_indices(events, vocabulary: list, event_index: dict):
    """The index in ``vocabulary`` of each of ``events`` (a sequence),
    lazily.

    Each distinct event *object* is resolved once, by equality, so an
    equal but non-identical event (unpickled, or sent by a shard worker)
    maps to its existing index, and new events are appended to
    ``vocabulary`` (and ``event_index``, its inverse) in first-appearance
    order.  ``events`` keeps every object alive, so object ids stay
    unique."""
    index_of_id: dict[int, int] = {}
    for key, event in dict(zip(map(id, events), events)).items():
        index = event_index.get(event)
        if index is None:
            index = event_index[event] = len(vocabulary)
            vocabulary.append(event)
        index_of_id[key] = index
    return map(index_of_id.__getitem__, map(id, events))


def record_columns(records) -> tuple[array, array, list[Event]]:
    """``(parents, events, vocabulary)`` of a list of ``(parent_id,
    event)`` discovery records: the parent ids, each record's index into
    ``vocabulary``, and the distinct events by value in first-appearance
    order — the arguments :meth:`ArenaStore.replay` takes."""
    vocabulary: list[Event] = []
    events = array(
        "i", _event_indices(list(map(itemgetter(1), records)), vocabulary, {})
    )
    return array("q", map(itemgetter(0), records)), events, vocabulary


def _materialise_child(
    parent: Configuration, event: Event, content_hash: int
) -> Configuration:
    """Rebuild the child ``parent + event`` with its recorded hash.

    The same sorted items layout as ``parent.extend(event)``, but with
    the recorded hash instead of the parent's entry-hash map, which a
    materialised parent lacks.  No message-set cache is derived: the
    root is the process-wide empty configuration, whose caches any
    unrelated caller may have filled, and a reader that wants the sets
    computes them lazily.
    """
    child = Configuration._from_trusted(
        _with_event(parent._histories, event), content_hash, None
    )
    if parent._length is not None:
        child._length = parent._length + 1
    return child


class ArenaStore:
    """Packed ``(parent_id, event, hash)`` store behind a sequence API.

    Drop-in for the explorer's ``_configurations`` list: supports
    ``len``, indexing (lazy materialisation), iteration (streaming, two
    layers of transient objects) and equality against any configuration
    sequence.  It grows by one root (:meth:`append`) and then only by
    batches of children: a BFS layer from an engine
    (:meth:`extend_children`), or a whole discovery stream's columns
    (:meth:`replay`).
    """

    def __init__(self, lru_size: int = 4096, chunk_cache_size: int = 8) -> None:
        self._lru_size = lru_size
        self._chunk_cache_size = chunk_cache_size
        self._count = 0
        # Interned event vocabulary: protocols have a small finite event
        # set, so the 4-byte column index replaces a per-history pointer.
        self._events: list[Event] = []
        self._event_index: dict[Event, int] = {}
        # Sealed cold chunks (one zlib blob of the three column slices
        # each) + the growing uncompressed tail columns.
        self._chunks: list[bytes] = []
        self._tail_parent = array("q")
        self._tail_event = array("i")
        self._tail_hash = array("q")
        # Ids below the floor belong to expanded layers: whole chunks
        # under it seal into the cold tier.
        self._floor = 0
        # The root (id 0, no parent) stays resident forever.
        self._root: Configuration | None = None
        self._lru: OrderedDict[int, Configuration] = OrderedDict()
        self._chunk_cache: OrderedDict[int, tuple[array, array, array]] = (
            OrderedDict()
        )
        # Telemetry for perfbench and PERFORMANCE.md.
        self.raw_bytes = 0
        self.compressed_bytes = 0
        # Configuration objects built: one per cold read, one per
        # streamed child.
        self.materialisations = 0
        self.chain_walks = 0

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def _chunk_arrays(self, chunk_index: int) -> tuple[array, array, array]:
        cache = self._chunk_cache
        cached = cache.get(chunk_index)
        if cached is not None:
            cache.move_to_end(chunk_index)
            return cached
        columns = self._decode_chunk(chunk_index)
        cache[chunk_index] = columns
        while len(cache) > self._chunk_cache_size:
            cache.popitem(last=False)
        return columns

    def _decode_chunk(self, chunk_index: int) -> tuple[array, array, array]:
        raw = zlib.decompress(self._chunks[chunk_index])
        parents = array("q")
        parents.frombytes(raw[:_PARENT_BYTES])
        events = array("i")
        events.frombytes(raw[_PARENT_BYTES : _PARENT_BYTES + _EVENT_BYTES])
        hashes = array("q")
        hashes.frombytes(raw[_PARENT_BYTES + _EVENT_BYTES :])
        return parents, events, hashes

    @property
    def vocabulary(self) -> tuple[Event, ...]:
        """The interned events, by event index.  Each was appended
        together with a configuration that holds it, so these are the
        events of every stored configuration but the roots'."""
        return tuple(self._events)

    def parent_event_columns(self) -> Iterator[tuple[int, array, array]]:
        """``(first id, parent ids, event indices)`` of each sealed chunk,
        then of the tail, in id order.  A sealed chunk is decoded for the
        caller only, bypassing the chunk cache, so a full scan holds one
        decompressed chunk at a time and evicts nothing."""
        for chunk_index in range(len(self._chunks)):
            parents, events, _ = self._decode_chunk(chunk_index)
            yield chunk_index << _CHUNK_BITS, parents, events
        yield len(self._chunks) << _CHUNK_BITS, self._tail_parent, self._tail_event

    def _entry(self, index: int) -> tuple[int, int, int]:
        """``(parent_id, event_index, content_hash)`` of one id."""
        chunk_index = index >> _CHUNK_BITS
        if chunk_index < len(self._chunks):
            parents, events, hashes = self._chunk_arrays(chunk_index)
            offset = index & _CHUNK_MASK
            return parents[offset], events[offset], hashes[offset]
        offset = index - (len(self._chunks) << _CHUNK_BITS)
        return (
            self._tail_parent[offset],
            self._tail_event[offset],
            self._tail_hash[offset],
        )

    def parent_id(self, index: int) -> int:
        """Parent dense id of ``index`` (-1 for roots)."""
        return self._entry(index)[0]

    def content_hash(self, index: int) -> int:
        """Stored rolling content hash of ``index``."""
        return self._entry(index)[2]

    def columns(self, start: int, end: int) -> tuple[array, array]:
        """``(parent ids, event indices)`` of ids ``[start, end)``, as
        fresh arrays copied slice by slice off the sealed chunks and the
        tail."""
        parents = array("q")
        events = array("i")
        sealed = len(self._chunks) << _CHUNK_BITS
        cursor = start
        while cursor < min(end, sealed):
            chunk_index = cursor >> _CHUNK_BITS
            base = chunk_index << _CHUNK_BITS
            chunk_parents, chunk_events, _ = self._chunk_arrays(chunk_index)
            offset, stop = cursor - base, min(end - base, _CHUNK_SIZE)
            parents.extend(chunk_parents[offset:stop])
            events.extend(chunk_events[offset:stop])
            cursor = base + _CHUNK_SIZE
        if end > sealed:
            offset, stop = max(start, sealed) - sealed, end - sealed
            parents.extend(self._tail_parent[offset:stop])
            events.extend(self._tail_event[offset:stop])
        return parents, events

    def records(self, start: int, end: int) -> list[tuple[int, Event]]:
        """Discovery records ``(parent_id, event)`` for the children
        among ids [start, end) (the root, id 0, has none).

        Read straight off the columns — the arena *is* the discovery
        stream, so worker respawn never reconstructs it from CSR walks
        or object identity.
        """
        parents, events = self.columns(max(start, 1), end)
        return list(zip(parents, map(self._events.__getitem__, events)))

    # ------------------------------------------------------------------
    # Growth (exploration hot path)
    # ------------------------------------------------------------------
    def append(self, configuration: Configuration) -> int:
        """Append the root configuration (no parent), resident forever.

        An arena has one root, at id 0: every later id is a child, which
        the packed history-label pass relies on.
        """
        self._tail_parent.append(-1)
        self._tail_event.append(-1)
        self._tail_hash.append(hash(configuration))
        self._count = 1
        self._root = configuration
        return 0

    def extend_children(self, parents, events, hashes) -> None:
        """Record a batch of first discoveries — a BFS layer, or one
        chunk of a replayed stream — as the three packed columns: child
        ``k`` of the batch is ``events[k]`` on ``parents[k]``, with
        content hash ``hashes[k]``.  No object is kept; any later read
        materialises through the cold tiers.

        Each distinct event object is resolved to its vocabulary index
        once (:func:`_event_indices`), so the columns are the same as one
        append per child.
        """
        self._tail_parent.extend(parents)
        self._tail_event.extend(
            _event_indices(events, self._events, self._event_index)
        )
        self._tail_hash.extend(hashes)
        self._count += len(hashes)

    def retire(self, new_floor: int) -> None:
        """Raise the floor to ``new_floor`` and seal the whole chunks
        below it.  Called at BFS layer boundaries with the id where the
        next frontier starts."""
        if new_floor > self._floor:
            self._floor = new_floor
        self._seal_cold()

    def _seal_cold(self) -> None:
        while True:
            base = len(self._chunks) << _CHUNK_BITS
            if base + _CHUNK_SIZE > self._floor:
                break
            if base + _CHUNK_SIZE > self._count:
                break
            raw = (
                self._tail_parent[:_CHUNK_SIZE].tobytes()
                + self._tail_event[:_CHUNK_SIZE].tobytes()
                + self._tail_hash[:_CHUNK_SIZE].tobytes()
            )
            del self._tail_parent[:_CHUNK_SIZE]
            del self._tail_event[:_CHUNK_SIZE]
            del self._tail_hash[:_CHUNK_SIZE]
            blob = zlib.compress(raw, 1)
            self.raw_bytes += len(raw)
            self.compressed_bytes += len(blob)
            self._chunks.append(blob)

    # ------------------------------------------------------------------
    # Sequence protocol + lazy materialisation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("arena index out of range")
        if index == 0:
            return self._root
        lru = self._lru
        configuration = lru.get(index)
        if configuration is not None:
            lru.move_to_end(index)
            return configuration
        return self._materialise(index)

    def _materialise(self, index: int) -> Configuration:
        """Build the one object for a child ``index``.

        Walks the parent and event columns up to the nearest
        LRU-resident ancestor (the root at worst), collecting event
        indices only, then folds those events into one copy of that
        ancestor's histories.  Only the target is built and enters the
        LRU."""
        self.chain_walks += 1
        lru = self._lru
        chunk_bits = _CHUNK_BITS
        chunk_mask = _CHUNK_MASK
        sealed = len(self._chunks) << chunk_bits
        tail_parent = self._tail_parent
        tail_event = self._tail_event
        loaded = -1  # the sealed chunk whose columns are at hand
        path: list[int] = []  # event indices, target's first
        cursor = index
        while True:
            if cursor >= sealed:
                offset = cursor - sealed
                parent = tail_parent[offset]
                path.append(tail_event[offset])
            else:
                chunk_index = cursor >> chunk_bits
                if chunk_index != loaded:
                    parents, events, _ = self._chunk_arrays(chunk_index)
                    loaded = chunk_index
                offset = cursor & chunk_mask
                parent = parents[offset]
                path.append(events[offset])
            cursor = parent
            if cursor == 0:
                base = self._root
                break
            base = lru.get(cursor)
            if base is not None:
                lru.move_to_end(cursor)
                break
        vocabulary = self._events
        histories = dict(base._histories)
        last = next(reversed(histories), None)
        in_order = True
        for event_index in reversed(path):
            event = vocabulary[event_index]
            process = event.process
            history = histories.get(process)
            if history is not None:
                histories[process] = history + (event,)
            else:
                histories[process] = (event,)
                if last is None or last < process:
                    last = process
                else:
                    in_order = False
        if not in_order:
            histories = dict(sorted(histories.items()))
        configuration = Configuration._from_trusted(
            histories, self.content_hash(index), None
        )
        configuration._length = len(base) + len(path)
        self.materialisations += 1
        lru[index] = configuration
        if len(lru) > self._lru_size:
            lru.popitem(last=False)
        return configuration

    def __iter__(self) -> Iterator[Configuration]:
        """Stream all configurations in id order.

        BFS parent ids are non-decreasing along the id order, so one
        rolling two-layer cache gives every child an O(1) parent lookup;
        resident transient objects stay bounded by two BFS layers no
        matter the universe size.  Every child built here counts in
        :attr:`materialisations`, like a read target.
        """
        cache: dict[int, Configuration] = {}
        floor = 0
        events = self._events
        for index in range(self._count):
            parent_id, event_index, content_hash = self._entry(index)
            if parent_id < 0:
                current = self._root
            else:
                while floor < parent_id:
                    cache.pop(floor, None)
                    floor += 1
                parent = cache.get(parent_id)
                if parent is None:
                    parent = self[parent_id]
                current = _materialise_child(
                    parent, events[event_index], content_hash
                )
                self.materialisations += 1
            cache[index] = current
            yield current

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, (ArenaStore, list, tuple)):
            if len(other) != self._count:
                return False
            return all(ours == theirs for ours, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable container semantics, like list

    # ------------------------------------------------------------------
    # Checkpoint replay
    # ------------------------------------------------------------------
    def replay(
        self, parents, events, vocabulary, processes
    ) -> dict[int, int | list[int]]:
        """Rebuild the arena from a discovery stream given as columns.

        Child ``k`` (id ``k + 1``) is ``vocabulary[events[k]]`` on
        ``parents[k]``, in discovery order (:func:`record_columns` turns
        a record list into these columns); ``vocabulary`` holds distinct
        events and ``processes`` is the protocol's ``ordered_processes``.
        No configuration is built and no event is looked up: each
        child's content hash is recomputed under this interpreter's hash
        seed from rolling entry hashes
        (:func:`~repro.universe.frontier.stream_hashes`), ``vocabulary``
        becomes the event table, and the columns are copied in a chunk
        at a time.  Returns the content-hash -> dense id dedup table
        (collision buckets in id order), ready to install on the
        universe.
        """
        if self._count:
            self.clear()
        self.append(EMPTY_CONFIGURATION)
        hashes = stream_hashes(processes, parents, events, vocabulary)
        count = len(hashes)
        root_hash = hash(EMPTY_CONFIGURATION)
        ids_by_hash: dict[int, int | list[int]] = {root_hash: 0}
        ids_by_hash.update(zip(hashes, range(1, count + 1)))
        if len(ids_by_hash) <= count:
            # Two ids share a content hash: bucket them in id order.
            ids_by_hash = {root_hash: 0}
            for child_id, child_hash in enumerate(hashes, 1):
                entry = ids_by_hash.get(child_hash)
                if entry is None:
                    ids_by_hash[child_hash] = child_id
                elif type(entry) is int:
                    ids_by_hash[child_hash] = [entry, child_id]
                else:
                    entry.append(child_id)
        self._events[:] = vocabulary
        self._event_index.update(zip(vocabulary, range(len(vocabulary))))
        # Parents below the last child's are fully expanded.  Copying a
        # chunk at a time keeps the tail short while it seals.
        self._floor = parents[-1] if count else 0
        for start in range(0, count, _CHUNK_SIZE):
            stop = start + _CHUNK_SIZE
            self._tail_parent.extend(parents[start:stop])
            self._tail_event.extend(events[start:stop])
            self._tail_hash.extend(hashes[start:stop])
            self._count = 1 + min(stop, count)
            self._seal_cold()
        return ids_by_hash

    def intern_events(self, canonical) -> None:
        """Swap each vocabulary event for ``canonical(event)``, an equal
        object, so configurations materialised after a resume hold the
        resuming interpreter's canonical events instead of a stream's
        unpickled ones."""
        vocabulary = self._events
        vocabulary[:] = map(canonical, vocabulary)
        event_index = self._event_index
        event_index.clear()
        event_index.update(zip(vocabulary, range(len(vocabulary))))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._count = 0
        self._events.clear()
        self._event_index.clear()
        self._chunks.clear()
        self.raw_bytes = 0
        self.compressed_bytes = 0
        del self._tail_parent[:]
        del self._tail_event[:]
        del self._tail_hash[:]
        self._floor = 0
        self._root = None
        self._lru.clear()
        self._chunk_cache.clear()

    def stats(self) -> dict:
        """Layout/compression telemetry for perfbench and docs."""
        tail_bytes = (
            len(self._tail_parent) * 8
            + len(self._tail_event) * 4
            + len(self._tail_hash) * 8
        )
        return {
            "configurations": self._count,
            "event_table": len(self._events),
            "sealed_chunks": len(self._chunks),
            "tail_bytes": tail_bytes,
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "lru": len(self._lru),
            "materialisations": self.materialisations,
            "chain_walks": self.chain_walks,
        }


__all__ = [
    "ArenaStore",
    "compress_batch",
    "decompress_batch",
    "record_columns",
]

"""Exhaustive enumeration of a protocol's system computations.

A :class:`Universe` is the set of all reachable configurations (canonical
``[D]``-classes of system computations) of a protocol, up to optional
bounds.  It is *the* quantification domain for everything in the theory:

* ``x [P] y`` quantifies over projections — answered by a partition
  table built from per-process history labels;
* composed relations ``x [P1 … Pn] z`` existentially quantify over
  intermediate computations — answered by breadth-first search through
  isomorphism classes;
* ``(P knows b) at x`` universally quantifies over the ``[P]``-class of
  ``x`` — answered by scanning the indexed class.

When exploration terminates without hitting a bound the universe is
*complete* and every quantifier is exact (the protocols shipped in
:mod:`repro.protocols` are designed to have finite computation spaces).
When a bound is hit the universe is a sound under-approximation and
:attr:`Universe.is_complete` is ``False``; theorem checkers refuse
incomplete universes unless explicitly told otherwise.

Every configuration receives a *dense integer id* (its BFS discovery
index).  Successor lists are stored as id arrays and partition tables
map each ``[P]``-class to an **int bitmask** over ids, so set
algebra over the universe (knowledge extensions, class containment,
fixpoints) runs as single bitwise operations on Python ints — see
PERFORMANCE.md for the architecture.

Every universe, an :class:`EnumeratedUniverse` included, keeps its
configurations in one packed :class:`~repro.universe.arena.ArenaStore`
with its root, the empty configuration, at id 0.  History labels, class
histories and the event set are read from the arena's parent and event
columns; a :class:`Configuration` is materialised only when a caller
asks for one.
"""

from __future__ import annotations

import gc
import sys
from math import inf
from array import array
from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator, Sequence
from functools import partial
from itertools import repeat

from repro.core.configuration import (
    _HASH_MODULUS,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.errors import UniverseError
from repro.core.events import Event
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.universe.arena import ArenaStore, record_columns
from repro.universe.fileops import DEFAULT_FILEOPS, FaultInjectingFileOps
from repro.universe.frontier import PackedFrontier
from repro.universe.options import ExplorationOptions
from repro.universe.recovery import RecoveryLog
from repro.universe.protocol import History, Protocol

_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)
"""Set-bit offsets per byte value, for O(bytes) mask iteration."""

_LITTLE_ENDIAN = sys.byteorder == "little"


def iter_bit_ids(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, ascending (dense config ids).

    Serialises the mask once and walks it as zero-copy 64-bit words
    (``memoryview.cast``): zero words — the bulk of fragmented class
    masks — are skipped with a single comparison instead of eight
    byte tests, and set bits inside a nonzero word are extracted from a
    *small* int with the byte offset table.  Isolating bits on the
    big int itself (``mask & -mask``) would copy the whole mask per set
    bit, which is quadratic on the dense masks the composed-relation
    pipelines produce.
    """
    if not mask:
        return
    byte_bits = _BYTE_BITS
    length = (mask.bit_length() + 63) >> 6  # words
    raw = mask.to_bytes(length << 3, "little")
    if _LITTLE_ENDIAN:
        words: Iterable[int] = memoryview(raw).cast("Q")
    else:
        # cast("Q") reads native-order words; on big-endian hosts the
        # little-endian serialisation must be decoded per word.
        words = (
            int.from_bytes(raw[start : start + 8], "little")
            for start in range(0, len(raw), 8)
        )
    offset = 0
    for word in words:
        if word == 0xFFFFFFFFFFFFFFFF:  # saturated word: the dense bulk
            yield from range(offset, offset + 64)
            offset += 64
        elif word:
            while word:
                byte = word & 0xFF
                if byte:
                    for bit in byte_bits[byte]:
                        yield offset + bit
                word >>= 8
                offset += 8
            offset = (offset + 63) & -64
        else:
            offset += 64


_DENSE_MASK_WORD_BUDGET = 1 << 21
"""Dense partition tables cache one big-int mask per class; a table whose
cached masks would exceed this many 64-bit words (16 MiB) stores member
id-arrays instead and materialises masks on demand.  Highly fragmented
partitions — e.g. the all-singleton ``[D]``-classes, where per-class masks
cost ``O(classes × n/64)`` words — take the sparse representation long
before coarse partitions do."""

_COMPOSE_MEMO_LIMIT = 8192
"""Cap on memoised class-combination masks per partition table."""

_SPARSE_MASK_MEMO_WORDS = 1 << 16
"""Sparse tables memoise transiently-materialised class masks up to this
many 64-bit words (512 KiB per table): fragmented ``[D]``-like partitions
have repeat ``class_mask`` callers (property checkers, knowledge
evaluation) that would otherwise re-materialise the same mask per call,
while the full dense cache stays quadratic and out of reach."""


def mask_of_ids(ids: Sequence[int]) -> int:
    """The bitmask with the bits of ``ids`` (ascending) set, in O(n): one
    ``bytearray`` bit set and one ``int.from_bytes``.  ``mask |= 1 << id``
    per id would copy the growing int on every set bit."""
    if len(ids) == 1:
        return 1 << ids[0]
    bits = bytearray(((ids[-1] if ids else 0) >> 3) + 1)
    for config_id in ids:
        bits[config_id >> 3] |= 1 << (config_id & 7)
    return int.from_bytes(bits, "little")


def first_occurrence_labels(keys: Iterable[Hashable]) -> tuple[array, dict]:
    """``(labels, label_of)``: ``labels[i]`` is ``label_of[key]`` of the
    ``i``-th key, labels counting up in order of first occurrence — the
    canonical labelling of the partition ``keys`` induces on positions.
    ``label_of`` iterates the distinct keys in label order."""
    label_of: dict = {}
    setdefault = label_of.setdefault
    labels = array("i", [setdefault(key, len(label_of)) for key in keys])
    return labels, label_of


def packed_history_labels(
    store: ArenaStore, processes: Sequence[ProcessId]
) -> list[tuple[array, int]]:
    """``(labels, count)`` per process ``p`` of ``processes``: the
    first-occurrence labels of each configuration's ``p``-history, read
    from the arena's parent and event columns with no configuration
    built (oracle: :func:`repro.universe.reference.streamed_history_labels`).

    A child's ``p``-history is its parent's, except on the process of its
    event ``e``, where it is the parent's plus ``e``.  So, in id order, a
    child copies its parent's label in every column, and the column of
    ``e``'s process gets ``intern[(parent label, e)]``, a new label the
    first time that pair occurs; the root's histories are label 0.
    Labels are thus handed out in order of first occurrence: the
    canonical labelling, equal to the streamed pass's.

    A parent precedes its child and parent ids never decrease, so the
    ids ``[lo, hi)`` whose parents all lie below ``lo`` (one BFS layer,
    cut at chunk ends) copy their inherited labels with one C-level
    ``extend`` per column, leaving one dict probe per id in Python.  The
    columns are read one sealed chunk at a time.
    """
    lane_of = {process: lane for lane, process in enumerate(processes)}
    columns = [array("i") for _ in processes]
    interns: list[dict[tuple[int, int], int]] = [{} for _ in processes]
    targets = []  # per event index: its process's (column, intern), if built
    for event in store.vocabulary:
        lane = lane_of.get(event.process)
        targets.append(None if lane is None else (columns[lane], interns[lane]))
    for start, parents, events in store.parent_event_columns():
        lo = start
        end = start + len(parents)
        if lo == 0 < end:  # the root
            for column in columns:
                column.append(0)
            lo = 1
        while lo < end:
            hi = max(bisect_left(parents, lo, lo - start) + start, lo + 1)
            inherited = parents[lo - start : hi - start]
            for column in columns:
                column.extend(map(column.__getitem__, inherited))
            for config_id, event_index in zip(
                range(lo, hi), events[lo - start : hi - start]
            ):
                target = targets[event_index]
                if target is not None:
                    column, intern = target
                    column[config_id] = intern.setdefault(
                        (column[config_id], event_index), len(intern) + 1
                    )
            lo = hi
    return [
        (column, len(intern) + 1 if column else 0)
        for column, intern in zip(columns, interns)
    ]


class PartitionTable:
    """The ``[P]``-partition of a universe on dense configuration ids.

    One table answers every class-level question the isomorphism engine
    asks:

    * ``class_of[config_id]`` — the class index of a configuration;
    * ``members[k]`` — the ids of class ``k``, ascending;
    * ``representatives[k]`` — the lowest id of class ``k``;
    * ``class_mask(k)`` / ``masks()`` — classes as int bitmasks;
    * ``compose(mask)`` — the closure of a mask under ``[P]`` in one
      pass (the primitive behind ``[P1 … Pn]`` composition);
    * ``contained_classes_mask(body)`` — the union of classes wholly
      inside ``body`` (the modal step of ``knows``).

    A table is built from ``(class_of, num_classes)`` with classes
    numbered in first-occurrence order; it never writes to ``class_of``.
    Dense tables cache all class masks; *sparse* tables (fragmented
    partitions where per-class masks would be quadratic in memory) keep
    only the id arrays and materialise masks transiently.
    """

    __slots__ = (
        "size",
        "num_classes",
        "class_of",
        "sparse",
        "_members",
        "_representatives",
        "_masks",
        "_compose_memo",
        "_sparse_memo",
        "_sparse_memo_words",
        "_consistent",
    )

    def __init__(
        self,
        class_of: array,
        num_classes: int,
        sparse: bool | None = None,
    ) -> None:
        self.size = size = len(class_of)
        self.num_classes = num_classes
        self.class_of = class_of
        if sparse is None:
            words = (size + 63) >> 6
            sparse = num_classes * words > _DENSE_MASK_WORD_BUDGET
        self.sparse = sparse
        self._members: tuple[array, ...] | None = None
        self._representatives: array | None = None
        self._masks: list[int] | None = None
        self._compose_memo: dict[tuple[int, ...], int] = {}
        self._sparse_memo: dict[int, int] = {}
        self._sparse_memo_words = 0
        self._consistent: bool | None = None

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable]) -> "PartitionTable":
        """The partition of ids ``0, 1, …`` by equal ``keys[id]``.

        Classes are labelled in first-occurrence order, the canonical
        labelling every table uses (see :meth:`same_partition_as`).
        """
        class_of, label_of = first_occurrence_labels(keys)
        return cls(class_of, len(label_of))

    @property
    def members(self) -> tuple[array, ...]:
        """``members[k]`` — the ids of class ``k``, ascending.

        Bucketed from :attr:`class_of` in one pass on first use: tables
        that are only compared (:meth:`same_partition_as`, refinement
        products) never pay for it.
        """
        members = self._members
        if members is None:
            rows = [array("i") for _ in range(self.num_classes)]
            appends = [row.append for row in rows]
            for config_id, index in enumerate(self.class_of):
                appends[index](config_id)
            members = self._members = tuple(rows)
        return members

    @property
    def representatives(self) -> array:
        """``representatives[k]`` — the lowest id of class ``k``, i.e.
        ``members[k][0]``, without bucketing the members.

        Classes are labelled in first-occurrence order, so class ``k``
        first occurs after class ``k - 1`` does: one C-level
        ``array.index`` scan per class, resuming where the last stopped,
        reads them all in one pass over :attr:`class_of`.
        """
        representatives = self._representatives
        if representatives is None:
            find = self.class_of.index
            representatives = array("i")
            start = 0
            for index in range(self.num_classes):
                start = find(index, start)
                representatives.append(start)
            self._representatives = representatives
        return representatives

    # -- mask materialisation ------------------------------------------
    def _dense_masks(self) -> list[int]:
        masks = self._masks
        if masks is None:
            masks = [mask_of_ids(ids) for ids in self.members]
            self._masks = masks
        return masks

    def class_mask(self, index: int) -> int:
        """The bitmask of class ``index``.

        Sparse tables materialise transiently but memoise repeat callers
        up to a word budget (``_SPARSE_MASK_MEMO_WORDS``), so fragmented
        ``[D]``-like partitions stop re-materialising the same mask per
        call without ever caching quadratically many words.
        """
        if self.sparse:
            memo = self._sparse_memo
            mask = memo.get(index)
            if mask is None:
                mask = mask_of_ids(self.members[index])
                words = ((mask.bit_length() + 63) >> 6) or 1
                if self._sparse_memo_words + words <= _SPARSE_MASK_MEMO_WORDS:
                    memo[index] = mask
                    self._sparse_memo_words += words
            return mask
        return self._dense_masks()[index]

    def masks(self) -> tuple[int, ...]:
        """All class masks, in class-index order.

        Dense tables return a cached tuple; sparse tables materialise a
        fresh tuple per call (reusing the bounded per-class memo) —
        prefer :attr:`class_of`/:attr:`members` or :meth:`compose` on
        fragmented partitions.
        """
        if self.sparse:
            return tuple(self.class_mask(index) for index in range(self.num_classes))
        return tuple(self._dense_masks())

    # -- identity ------------------------------------------------------
    def same_partition_as(self, other: "PartitionTable") -> bool:
        """Exact partition equality over the same universe.

        Class indices are assigned in first-occurrence order over the
        dense configuration ids, so ``class_of`` is a *canonical*
        labelling: two tables describe the same partition iff their
        arrays are equal, one C-level compare.
        """
        return self is other or self.class_of == other.class_of

    def verify_consistency(self) -> bool:
        """Cross-check mask materialisation against the id arrays.

        Confirms, for every class, that the materialised mask decodes to
        exactly the member ids and that each member's ``class_of`` entry
        points back at the class — and that the member rows partition
        ``range(size)``.  This is the mask↔index cross-check the property
        checkers lean on; it is a property of the table alone, verified
        once and memoised (checkers used to re-derive it per subset
        pair).
        """
        result = self._consistent
        if result is None:
            result = True
            total = 0
            class_of = self.class_of
            for index, ids in enumerate(self.members):
                total += len(ids)
                if any(class_of[config_id] != index for config_id in ids):
                    result = False
                    break
                if list(iter_bit_ids(self.class_mask(index))) != list(ids):
                    result = False
                    break
            if result:
                result = total == self.size
            self._consistent = result
        return result

    # -- relational algebra --------------------------------------------
    def compose(self, mask: int) -> int:
        """Close ``mask`` under ``[P]``: the union of the classes of its
        members, each class unioned exactly once."""
        class_of = self.class_of
        hit = bytearray(self.num_classes)
        touched: list[int] = []
        for config_id in iter_bit_ids(mask):
            index = class_of[config_id]
            if not hit[index]:
                hit[index] = 1
                touched.append(index)
        touched.sort()
        return self._union_of(tuple(touched))

    def classes_mask(self, indices: Iterable[int]) -> int:
        """Union mask of the given classes (memoised per combination).

        Composed relations repeatedly materialise the same unions of
        final-partition classes; the memo makes each distinct combination
        cost its ORs once.
        """
        return self._union_of(tuple(sorted(set(indices))))

    def _union_of(self, key: tuple[int, ...]) -> int:
        if len(key) == 1:
            return self.class_mask(key[0])
        if self.sparse:
            bits = bytearray((self.size >> 3) + 1)
            for index in key:
                for config_id in self.members[index]:
                    bits[config_id >> 3] |= 1 << (config_id & 7)
            return int.from_bytes(bits, "little")
        memo = self._compose_memo
        result = memo.get(key)
        if result is None:
            masks = self._dense_masks()
            result = 0
            for index in key:
                result |= masks[index]
            if len(memo) < _COMPOSE_MEMO_LIMIT:
                memo[key] = result
        return result

    def contained_classes_mask(self, body: int) -> int:
        """Union of the classes wholly contained in ``body``.

        This is the modal step of ``knows``: a class is kept iff every
        member satisfies the body.
        """
        if self.sparse:
            # Index the body's bytes directly: shifting the big-int per
            # member would copy it once per bit tested.
            body_bytes = body.to_bytes((self.size >> 3) + 1, "little")
            bits = bytearray((self.size >> 3) + 1)
            for ids in self.members:
                if all(
                    body_bytes[config_id >> 3] >> (config_id & 7) & 1
                    for config_id in ids
                ):
                    for config_id in ids:
                        bits[config_id >> 3] |= 1 << (config_id & 7)
            return int.from_bytes(bits, "little")
        satisfied = 0
        for class_mask in self._dense_masks():
            if class_mask & body == class_mask:
                satisfied |= class_mask
        return satisfied


_BOUND_MESSAGE = (
    "exploration exceeded %s configurations; raise the bound or shrink "
    "the protocol"
)
"""The ``max_configurations`` error of every engine (``%s`` is the bound)."""


def _resolve_collision(
    ids_by_hash: dict,
    child_hash: int,
    bucket: int | list[int],
    row_matches,
    child_row: tuple,
    count: int,
    limit: float,
) -> int | None:
    """The content-hash collision path of both engines' layer bodies.

    ``bucket`` is ``ids_by_hash[child_hash]``: either one id whose row
    already failed ``row_matches`` against the child, or a list of
    colliding ids.  Returns the matching candidate's id; else, when
    ``count`` is under ``limit``, registers the new child as id
    ``count`` (opening a list bucket for a lone int) and returns
    ``count``; else ``None`` (the ``max_configurations`` bound hit).
    """
    if type(bucket) is int:
        if count >= limit:
            return None
        ids_by_hash[child_hash] = [bucket, count]
        return count
    for candidate_id in bucket:
        if row_matches(candidate_id, child_row):
            return candidate_id
    if count >= limit:
        return None
    bucket.append(count)
    return count


class Universe:
    """All reachable configurations of a protocol, with isomorphism indexes.

    ``Universe(protocol, options=None)`` explores ``protocol``.
    ``options`` is an :class:`~repro.universe.options.ExplorationOptions`
    (``None`` = all defaults), the one way to configure an exploration;
    its groups document each knob:
    :class:`~repro.universe.options.Limits` (event and size bounds, what
    happens at the cap),
    :class:`~repro.universe.options.CheckpointPolicy` (layer-boundary
    checkpoints, resume and salvage),
    :class:`~repro.universe.options.ResourceBudget` (RSS watchdog) and
    :class:`~repro.universe.options.Sharding`
    (multiprocess engine, supervision, fault injection).
    """

    def __init__(
        self, protocol: Protocol, options: ExplorationOptions | None = None
    ) -> None:
        opts = options if options is not None else ExplorationOptions()
        if not isinstance(opts, ExplorationOptions):
            raise TypeError(
                "Universe(options=...) expects an ExplorationOptions "
                f"instance, got {type(opts).__name__}"
            )
        self._options = opts
        max_events = opts.limits.max_events
        on_limit = opts.limits.on_limit
        workers = opts.sharding.workers
        supervision = opts.sharding.supervision
        fault_plan = opts.sharding.fault_plan
        checkpoint = opts.checkpoint.path
        store = opts.store
        if on_limit not in ("raise", "truncate"):
            raise UniverseError(
                f"on_limit must be 'raise' or 'truncate', got {on_limit!r}"
            )
        if store != "arena":
            raise UniverseError(
                f"store must be 'arena' (the object store was removed), "
                f"got {store!r}"
            )
        # Storage fault delivery: every checkpoint filesystem call
        # routes through one shared file-ops shim; write-targeting kinds
        # arm at the BFS layer boundary covering their layer, eio_read
        # arms immediately so it can land on the resume read path.
        storage_actions = (
            fault_plan.take_storage_faults() if fault_plan is not None else []
        )
        self._init_store(
            protocol,
            opts,
            FaultInjectingFileOps() if storage_actions else DEFAULT_FILEOPS,
        )
        for kind, layer, seconds in storage_actions:
            if kind == "eio_read":
                self._fileops.arm(kind, seconds)
            else:
                self._storage_faults.setdefault(layer, []).append(
                    (kind, seconds)
                )
        from repro.universe.sharded import ShardedExplorer, resolve_workers

        worker_count = resolve_workers(workers)
        if worker_count <= 1:
            if fault_plan is not None and fault_plan.has_worker_faults:
                raise UniverseError(
                    "fault injection requires the sharded engine "
                    "(workers >= 2); the in-process kernel has no workers "
                    "to fail"
                )
            if supervision is not None:
                raise UniverseError(
                    "supervision policies apply to the sharded engine only "
                    "(workers >= 2)"
                )
        if (
            fault_plan is not None
            and fault_plan.has_checkpoint_faults
            and checkpoint is None
        ):
            raise UniverseError(
                "checkpoint fault injection (torn_save/corrupt_segment) "
                "requires a checkpoint path"
            )
        if storage_actions and checkpoint is None:
            raise UniverseError(
                "storage fault injection (enospc/eio_read/eio_write/"
                "fsync_fail/slow_io/fd_exhaust) requires a checkpoint "
                "path: nothing else touches the filesystem"
            )
        session = None
        if checkpoint is not None:
            from repro.universe.checkpoint import CheckpointSession

            session = CheckpointSession(
                checkpoint,
                protocol,
                max_events,
                every=opts.checkpoint.every,
                strict=opts.checkpoint.strict,
                fault_actions=(
                    fault_plan.take_checkpoint_faults()
                    if fault_plan is not None
                    else ()
                ),
                fileops=self._fileops,
                recovery_log=self._recovery_log,
            )
        self._checkpoint_session = session
        try:
            if worker_count > 1:
                ShardedExplorer(
                    protocol,
                    max_events,
                    worker_count,
                    supervision=supervision,
                    fault_plan=fault_plan,
                ).explore_into(self)
            else:
                self._explore()
        finally:
            if session is not None:
                # Exploration may exit early (truncation, bound errors)
                # between interval saves; drain the background writer so
                # every handed-off segment is committed — or its stored
                # failure surfaces — before the universe is usable.
                session.flush()

    def _init_store(
        self, protocol: Protocol | None, options: ExplorationOptions, fileops
    ) -> None:
        """Set every attribute the base class reads, over an empty arena;
        both constructors call it."""
        self._protocol = protocol
        self._options = options
        self._max_events = options.limits.max_events
        self._fileops = fileops
        self._recovery_log = RecoveryLog()
        self._storage_faults: dict[int, list[tuple[str, float]]] = {}
        self._checkpoint_session = None
        self._rss_watchdog = None
        self._worker_peak_rss_mb: dict[int, float] = {}
        self._configurations = ArenaStore()
        # Content hash -> dense id (or list of ids on hash collision).
        # This is both the BFS dedup table and, after exploration, the
        # public configuration -> id index: one table, no second
        # content-keyed dict.
        self._ids_by_hash: dict[int, int | list[int]] = {}
        # CSR successor store: the successor ids of configuration i are
        # _succ_ids[_succ_offsets[i]:_succ_offsets[i+1]].  BFS emits each
        # configuration's successors contiguously, so the flat layout is
        # append-only — no per-configuration list objects.
        self._succ_offsets = array("q", (0,))
        self._succ_ids = array("q")
        self._complete = True
        self._init_relation_caches()

    def _init_relation_caches(self) -> None:
        self._partition_tables: dict[frozenset[ProcessId], PartitionTable] = {}
        self._class_histories: dict[ProcessId, tuple[History, ...]] = {}
        self._adjacency: dict[
            tuple[frozenset[ProcessId], frozenset[ProcessId]],
            tuple[tuple[int, ...], ...],
        ] = {}
        # Refinement products: frozenset-pair -> (first_set, table, pairs).
        self._refinement_products: dict[
            frozenset[frozenset[ProcessId]],
            tuple[frozenset[ProcessId], PartitionTable, list[tuple[int, int]]],
        ] = {}
        self._active_processes: frozenset[ProcessId] | None = None

    def _explore(self, engine=None) -> None:
        """The one BFS layer driver of both engines.

        It builds the one
        :class:`~repro.universe.frontier.PackedFrontier` and the RSS
        watchdog, then, with the collector off, seeds the root or resumes
        from the checkpoint session (the replay already refilled the
        packed columns without building objects, so only the frontier
        window is rebuilt, from the arena's cold tiers) and runs one
        layer body per BFS layer.  At every layer boundary it runs the one
        epilogue: arm due storage faults, commit the layer to the
        checkpoint, retire the consumed frontier into the arena's cold
        tier, start the frontier's next layer of message-set interning,
        then the RSS ladder's one rung (truncate once resident memory is
        over budget).  At the end it raises the ``max_configurations``
        error or truncates and pads the CSR rows.

        ``engine`` is ``None`` for the in-process kernel, whose layer
        body is :meth:`_expand_layer`, or a
        :class:`~repro.universe.sharded.ShardedExplorer`, which supplies
        its worker pids to the watchdog and its own layer body.  A layer
        body ``(layer_start, layer_end, layer)`` expands the parents
        ``[layer_start, layer_end)`` of BFS layer ``layer``, hands its
        first discoveries to the arena in one
        :meth:`~repro.universe.arena.ArenaStore.extend_children`, and
        returns whether the ``max_configurations`` bound stopped it
        mid-layer.  The checkpoint reads each save's discoveries back off
        the arena's columns.

        :func:`repro.universe.reference.reference_bfs` is the oracle:
        ``tests/test_universe_arena.py`` holds both engines
        bit-identical to it (ids, CSR arrays, hash buckets,
        completeness, truncation point).
        """
        arena: ArenaStore = self._configurations
        succ_ids = self._succ_ids
        succ_offsets = self._succ_offsets
        session = self._checkpoint_session
        limits = self._options.limits
        rss_budget_mb = self._options.budget.rss_budget_mb
        frontier = PackedFrontier(self._protocol, self._max_events, arena)
        watchdog = None
        if rss_budget_mb is not None:
            from repro.universe.checkpoint import RssWatchdog

            watchdog = RssWatchdog(
                rss_budget_mb, engine.worker_pids if engine is not None else None
            )
        self._rss_watchdog = watchdog
        # math.inf compares greater than every count, so `count >= limit`
        # is the single bound test; non-positive bounds fire on the first
        # discovered child.
        max_configurations = limits.max_configurations
        limit = max_configurations if max_configurations is not None else inf
        bound_hit = rss_truncated = False
        # The engines and the resume replay allocate millions of acyclic,
        # long-lived objects and create no reference cycles of their own;
        # CPython's generational collector would rescan the growing
        # universe on every threshold crossing — a superlinear tax at n=8.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            resumed = session.try_resume(self) if session is not None else None
            if resumed is not None:
                # try_resume replayed the stream into the packed columns;
                # rebuild the frontier window and continue from the first
                # unexpanded layer.
                layer_start = resumed.frontier_start
                layer = resumed.layers
                frontier.load(arena, layer_start, len(arena))
                arena.retire(layer_start)
            else:
                arena.append(EMPTY_CONFIGURATION)
                self._ids_by_hash[hash(EMPTY_CONFIGURATION)] = 0
                layer_start = 0
                layer = 0
            if engine is None:
                expand_layer = partial(self._expand_layer, frontier, limit)
            else:
                expand_layer = engine.layer_body(self, frontier, limit)
            self._arm_storage_faults(layer)
            while layer_start < len(arena):
                layer_end = len(arena)
                bound_hit = expand_layer(layer_start, layer_end, layer)
                if bound_hit:
                    # Mid-layer stop: the checkpoint keeps the previous
                    # (complete) layer boundary, never a torn layer.
                    break
                layer += 1
                done = len(arena) == layer_end  # no new configurations
                self._arm_storage_faults(layer)
                if session is not None:
                    session.commit_layer(layer_end, self, final=done)
                # Advance the arena floor (seals + compresses full cold
                # chunks) and start the next layer's message-set intern table.
                arena.retire(layer_end)
                frontier.new_layer()
                layer_start = layer_end
                if done or watchdog is None or not watchdog.exceeded():
                    continue
                self._recovery_log.record(
                    "rss_budget",
                    "truncate",
                    layer=layer,
                    detail=f"{len(arena)} configurations",
                )
                rss_truncated = True
                break
        finally:
            if gc_was_enabled:
                gc.enable()
        if bound_hit and limits.on_limit == "raise":
            raise UniverseError(_BOUND_MESSAGE % max_configurations)
        if bound_hit or rss_truncated:
            self._complete = False
            # Unexpanded frontier configurations keep empty successor rows.
            while len(succ_offsets) < len(arena) + 1:
                succ_offsets.append(len(succ_ids))

    def _expand_layer(
        self,
        frontier: PackedFrontier,
        limit: float,
        layer_start: int,
        layer_end: int,
        layer: int,
    ) -> bool:
        """The kernel's layer body (see :meth:`_explore`): expand BFS
        layer ``layer`` over the frontier's *state rows*.

        Configurations go into the arena as packed ``(parent id, event,
        hash)`` columns; the kernel never builds child objects.
        ``frontier`` supplies each parent's enabled moves, the slow-path
        transient objects and the cross-layer row comparison.  Each
        window entry is popped the moment its expansion completes, so a
        consumed frontier prefix stops counting toward peak RSS
        mid-layer instead of at the next boundary.

        A move ``(position, state, delta, event, kind, message)`` carries
        everything the parent's state already fixes (see
        :mod:`repro.universe.frontier`), so the per-edge work stays
        inline, hashes no history and makes no Python-level call on the
        duplicate and first-discovery paths.  A duplicate costs one
        descriptor unpack, one add and conditional subtract (the child's
        content hash), one cell replacement (the child row), one
        ``ids_by_hash`` probe
        and one C tuple compare of the two rows, whose elements are
        interned states and so identity hits.  Only a candidate outside
        the window (a cross-layer content-hash collision) or a collision
        bucket calls out, to :meth:`PackedFrontier.row_matches
        <repro.universe.frontier.PackedFrontier.row_matches>` and
        :func:`_resolve_collision`.  A first discovery adds its window
        entry, with the message-set derivation of
        :meth:`PackedFrontier.child
        <repro.universe.frontier.PackedFrontier.child>`, and appends its
        parent id, event and hash to three per-layer columns, which go to
        the arena in one :meth:`ArenaStore.extend_children
        <repro.universe.arena.ArenaStore.extend_children>` when the layer
        ends or the ``max_configurations`` bound stops it.
        """
        arena: ArenaStore = self._configurations
        ids_by_hash = self._ids_by_hash
        succ_ids = self._succ_ids
        succ_offsets = self._succ_offsets
        window = frontier.window
        count = len(arena)
        max_events = self._max_events
        if max_events is not None and layer >= max_events:
            # Every BFS edge appends one event, so layer L's parents hold
            # L events: the whole layer is capped, and the universe is
            # incomplete iff one of them still has an enabled event.
            compiled_enabled = self._protocol.compiled_enabled_events
            transient = frontier.transient
            edges = len(succ_ids)
            for parent_id in range(layer_start, layer_end):
                if compiled_enabled(transient(window.pop(parent_id))):
                    self._complete = False
                succ_offsets.append(edges)
            return False
        enabled_at = frontier.enabled
        row_matches = frontier.row_matches
        window_get = window.get
        intern = frontier.interned.setdefault
        modulus = _HASH_MODULUS
        succ_append = succ_ids.append
        # The layer's first discoveries, as the arena's three columns.
        parents: list[int] = []
        events: list = []
        hashes: list[int] = []
        parents_append = parents.append
        events_append = events.append
        hashes_append = hashes.append
        bound_hit = False
        for parent_id in range(layer_start, layer_end):
            entry = window.pop(parent_id)
            row, parent_hash, received, in_flight = entry
            for position, state, delta, event, kind, message in enabled_at(entry):
                # Both terms lie in [0, modulus): one subtract is the mod.
                child_hash = parent_hash + delta
                if child_hash >= modulus:
                    child_hash -= modulus
                cells = list(row)
                cells[position] = state
                child_row = tuple(cells)
                existing = ids_by_hash.get(child_hash)
                if existing is None:
                    if count >= limit:
                        bound_hit = True
                        break
                else:
                    if type(existing) is int:
                        # Same-depth duplicates live in the window; only
                        # a cross-layer collision chain-walks the arena.
                        candidate = window_get(existing)
                        if (
                            candidate[0] == child_row
                            if candidate is not None
                            else row_matches(existing, child_row)
                        ):
                            succ_append(existing)
                            continue
                    child_id = _resolve_collision(
                        ids_by_hash, child_hash, existing, row_matches,
                        child_row, count, limit,
                    )
                    if child_id is None:
                        bound_hit = True
                        break
                    if child_id != count:
                        succ_append(child_id)
                        continue
                # First discovery: keep its packed columns for the
                # layer's bulk extend and only the row and message sets
                # hot — no child object.  The window entry is
                # PackedFrontier.child inlined.
                child_id = count
                if existing is None:
                    ids_by_hash[child_hash] = child_id
                count += 1
                child_received = received
                child_in_flight = in_flight
                if kind == 1:
                    if message.isdisjoint(received):
                        child_in_flight = in_flight | message
                        child_in_flight = intern(child_in_flight, child_in_flight)
                elif kind == 2:
                    child_received = received | message
                    child_received = intern(child_received, child_received)
                    child_in_flight = in_flight - message
                    child_in_flight = intern(child_in_flight, child_in_flight)
                window[child_id] = (
                    child_row, child_hash, child_received, child_in_flight
                )
                parents_append(parent_id)
                events_append(event)
                hashes_append(child_hash)
                succ_append(child_id)
            succ_offsets.append(len(succ_ids))
            if bound_hit:
                break
        arena.extend_children(parents, events, hashes)
        return bound_hit

    def _id_of(self, configuration: Configuration) -> int | None:
        """Dense id of ``configuration``, or ``None`` if not a member.

        Reads the stored hash slot and tries identity before equality,
        so the usual hit, an object the arena handed out, makes no
        Python-level ``__hash__`` or ``__eq__`` call."""
        try:
            content_hash = configuration._hash
        except AttributeError:
            content_hash = None
        if content_hash is None:
            content_hash = hash(configuration)
        entry = self._ids_by_hash.get(content_hash)
        if entry is None:
            return None
        configurations = self._configurations
        if type(entry) is int:
            stored = configurations[entry]
            if stored is configuration or stored == configuration:
                return entry
            return None
        for candidate_id in entry:
            stored = configurations[candidate_id]
            if stored is configuration or stored == configuration:
                return candidate_id
        return None

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> Protocol:
        return self._protocol

    @property
    def processes(self) -> frozenset[ProcessId]:
        """The paper's ``D``."""
        return self._protocol.processes

    @property
    def is_complete(self) -> bool:
        """True iff no exploration bound truncated the computation space."""
        return self._complete

    @property
    def recovery_log(self):
        """Recovery events survived while building this universe, in
        order: one :class:`~repro.universe.recovery.RecoveryEvent`
        (dict-compatible — ``event["kind"]``/``event["action"]`` keep
        working) per recovered
        :class:`~repro.universe.sharded.WorkerFailure` (``layer``,
        ``shard``, ``kind``, rung ``"respawn"`` or ``"fold"``), per
        checkpoint salvage event (``"salvage-truncate"``, ``"restart"``
        or ``"discard-orphan"``), per storage retry/degradation rung
        (``"storage_retry"``/``"retry"``, ``"checkpoint_degraded"``/
        ``"disable-checkpointing"``), and per RSS-watchdog truncation
        (``"rss_budget"``/``"truncate"``)."""
        return tuple(self._recovery_log)

    @property
    def checkpoint_degraded(self) -> bool:
        """True when a persistent storage failure disabled checkpointing
        mid-run: exploration completed, the last committed manifest is
        still valid, but no further saves happened after the failure
        (the ``checkpoint_degraded`` rung on :attr:`recovery_log` has
        the detail)."""
        session = self._checkpoint_session
        return bool(session is not None and session.degraded)

    def _arm_storage_faults(self, layers_done: int) -> None:
        """Arm every planned storage fault whose layer the exploration
        clock has now passed (same ``fault.layer < layers_done``
        semantics as the checkpoint fault actions): the next matching
        filesystem operation — this layer boundary's checkpoint save or
        a background-writer append — takes the hit.

        When a background checkpoint writer is active the arming is
        queued behind its already-enqueued saves, so a fault for layer
        L can never land retroactively on a still-inflight save of an
        earlier layer: the manifest through L stays committed and
        clean, which is what the degradation ladder promises."""
        pending = self._storage_faults
        if not pending:
            return
        due: list[tuple[str, float]] = []
        for layer in [layer for layer in pending if layer < layers_done]:
            due.extend(pending.pop(layer))
        if not due:
            return
        session = self._checkpoint_session
        if session is not None and session.arm_storage_faults(due):
            return
        for kind, seconds in due:
            self._fileops.arm(kind, seconds)

    @property
    def worker_peak_rss_mb(self) -> dict[int, float]:
        """Per-shard peak RSS (MiB) of the sharded engine's workers,
        collected from their farewell frames; empty for single-process
        exploration or workers that died before answering."""
        return dict(self._worker_peak_rss_mb)

    @property
    def options(self) -> ExplorationOptions:
        """The exploration options this universe was built with."""
        return self._options

    @property
    def rss_watchdog_active(self) -> bool | None:
        """Whether the ``rss_budget_mb`` watchdog could actually measure
        RSS on this host: ``None`` when no budget was set, ``False``
        when the host exposes no measurement (the watchdog warned once
        and will never truncate), ``True`` otherwise."""
        watchdog = self._rss_watchdog
        if watchdog is None:
            return None
        return watchdog.active

    @property
    def configurations(self) -> Sequence[Configuration]:
        """All reachable configurations, in BFS order (shortest first)."""
        return tuple(self._configurations)

    def __len__(self) -> int:
        return len(self._configurations)

    def __contains__(self, configuration: Configuration) -> bool:
        return self._id_of(configuration) is not None

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configurations)

    def require(self, configuration: Configuration) -> Configuration:
        """Return ``configuration`` if it belongs to the universe, else raise."""
        if self._id_of(configuration) is None:
            raise UniverseError(
                f"{configuration!r} is not a computation of this universe"
            )
        return configuration

    def successors(self, configuration: Configuration) -> Sequence[Configuration]:
        """One-event extensions of ``configuration`` within the universe."""
        index = self._id_of(configuration)
        if index is None:
            raise UniverseError(
                f"{configuration!r} is not a computation of this universe"
            )
        configurations = self._configurations
        offsets = self._succ_offsets
        return tuple(
            configurations[successor]
            for successor in self._succ_ids[offsets[index] : offsets[index + 1]]
        )

    def complement(self, processes: ProcessSetLike) -> frozenset[ProcessId]:
        """``P̄ = D - P``."""
        return self._protocol.complement(processes)

    # ------------------------------------------------------------------
    # Dense-id / bitmask machinery
    # ------------------------------------------------------------------
    def config_id(self, configuration: Configuration) -> int:
        """The dense id (BFS discovery index) of ``configuration``."""
        index = self._id_of(configuration)
        if index is None:
            raise UniverseError(
                f"{configuration!r} is not a computation of this universe"
            )
        return index

    def configuration_of_id(self, index: int) -> Configuration:
        """The configuration with dense id ``index``."""
        if not 0 <= index < len(self._configurations):
            raise UniverseError(
                f"no configuration with id {index} in a universe of "
                f"{len(self._configurations)}"
            )
        return self._configurations[index]

    @property
    def full_mask(self) -> int:
        """Bitmask with one set bit per configuration of the universe."""
        return (1 << len(self._configurations)) - 1

    def configurations_in_mask(self, mask: int) -> tuple[Configuration, ...]:
        """The configurations whose ids are set in ``mask``, in id order."""
        configurations = self._configurations
        return tuple(configurations[index] for index in iter_bit_ids(mask))

    # ------------------------------------------------------------------
    # Isomorphism machinery
    # ------------------------------------------------------------------
    def partition_table(self, processes: ProcessSetLike) -> PartitionTable:
        """The ``[P]``-partition of the universe as a :class:`PartitionTable`.

        Tables are computed once per process set and cached; they are the
        engine behind ``iso_class``, composed-relation pipelines, the
        property checkers, and the knowledge evaluator.

        ``x [P] y`` iff every process of ``P`` has the same history in
        ``x`` and ``y``, so per-process history labels fix every table.
        The singleton tables' ``class_of`` arrays *are* those labels, all
        built together on the first call (:meth:`_build_history_labels`),
        from the arena's packed columns, not during exploration, so a
        universe that is only explored never pays for them.  ``[P]`` for
        ``|P| > 1`` relabels the rows of its processes' label columns in
        first-occurrence order, over ints only, and ``[∅]`` is one class.
        """
        p_set = as_process_set(processes)
        table = self._partition_tables.get(p_set)
        if table is None:
            if len(p_set) == 1:
                self._build_history_labels(p_set)
                return self._partition_tables[p_set]
            columns = [
                self.partition_table(frozenset((process,))).class_of
                for process in sorted(p_set)
            ]
            table = PartitionTable.from_keys(
                zip(*columns) if columns else repeat((), len(self._configurations))
            )
            self._partition_tables[p_set] = table
        return table

    def _build_history_labels(self, requested: frozenset[ProcessId]) -> None:
        """Label every configuration's ``p``-history, for every process
        ``p`` of ``D ∪ requested`` not labelled yet, in one pass.

        Each process gets an ``array('i')`` column of first-occurrence
        labels, the canonical labelling, which becomes its singleton
        table's ``class_of``.  The arena is read as parent and event
        columns (:func:`packed_history_labels`), materialising nothing.
        """
        tables = self._partition_tables
        processes = [
            process
            for process in sorted(self.processes | requested)
            if frozenset((process,)) not in tables
        ]
        labels = packed_history_labels(self._configurations, processes)
        for process, (column, count) in zip(processes, labels):
            tables[frozenset((process,))] = PartitionTable(column, count)

    def class_histories(self, process: ProcessId) -> tuple[History, ...]:
        """``class_histories(p)[k]`` — the ``p``-history shared by the
        configurations of class ``k`` of ``partition_table({p})``.

        Built once per process from each class's lowest member, with no
        configuration built: the lowest member of a class ``k > 0`` is
        where its label was handed out, so its event is on ``p`` and its
        history is its parent's class history plus that event
        (:func:`packed_history_labels`); class 0 is the root's, empty.
        """
        histories = self._class_histories.get(process)
        if histories is None:
            table = self.partition_table(frozenset((process,)))
            class_of = table.class_of
            records = self._configurations.records
            built: list[History] = [()]
            for first in table.representatives[1:]:
                ((parent, event),) = records(first, first + 1)
                built.append(built[class_of[parent]] + (event,))
            histories = self._class_histories[process] = tuple(built)
        return histories

    def class_masks(self, processes: ProcessSetLike) -> tuple[int, ...]:
        """One bitmask per ``[P]``-class of the universe.

        The masks partition :attr:`full_mask`; order is by first
        discovery (BFS order of the class representative).  On sparse
        (fragmented) partitions this materialises transiently — prefer
        :meth:`partition_table` there.
        """
        return self.partition_table(processes).masks()

    def compose_masks(self, mask: int, processes: ProcessSetLike) -> int:
        """Close ``mask`` under ``[P]`` in one pass.

        Returns the union of the ``[P]``-classes of the configurations in
        ``mask`` — the frontier step of ``[P1 … Pn]`` composition.  Each
        touched class is unioned exactly once.
        """
        return self.partition_table(processes).compose(mask)

    def _refinement_entry(
        self, p_set: frozenset[ProcessId], q_set: frozenset[ProcessId]
    ) -> tuple[PartitionTable, list[tuple[int, int]]]:
        """The common refinement of ``[P]`` and ``[Q]`` plus its pair keys.

        Returns ``(table, pairs)`` where ``table`` partitions the
        universe into the nonempty intersections of ``[P]``- and
        ``[Q]``-classes (labels in first-occurrence order — canonical)
        and ``pairs[k]`` is the ``(P-class, Q-class)`` pair of refinement
        class ``k``.  ``pairs`` is oriented for the *requested* order.

        Built from the two ``class_of`` index arrays in one O(n) pass (the
        first-occurrence relabelling of their rows) and
        memoised per unordered pair of process sets.
        """
        key = frozenset((p_set, q_set))
        cached = self._refinement_products.get(key)
        if cached is not None:
            first_set, table, pairs = cached
            if first_set == p_set:
                return table, pairs
            return table, [(b, a) for a, b in pairs]
        class_of, label_of = first_occurrence_labels(
            zip(
                self.partition_table(p_set).class_of,
                self.partition_table(q_set).class_of,
            )
        )
        pairs = list(label_of)
        table = PartitionTable(class_of, len(pairs))
        self._refinement_products[key] = (p_set, table, pairs)
        return table, pairs

    def refinement_product(
        self, first: ProcessSetLike, second: ProcessSetLike
    ) -> PartitionTable:
        """The common refinement of ``[P]`` and ``[Q]`` as a partition table.

        This is the relation ``[P] ∩ [Q]`` computed *from the class-index
        arrays* — independently of the ``[P ∪ Q]`` table, which relabels
        the history label columns of ``P ∪ Q`` directly; that is what
        lets :func:`repro.isomorphism.algebra.check_union` compare the
        two.  Canonically labelled and memoised; see
        :meth:`_refinement_entry`.
        """
        p_set = as_process_set(first)
        q_set = as_process_set(second)
        if p_set == q_set:
            return self.partition_table(p_set)
        return self._refinement_entry(p_set, q_set)[0]

    def class_adjacency(
        self, first: ProcessSetLike, second: ProcessSetLike
    ) -> tuple[tuple[int, ...], ...]:
        """For each ``[P]``-class, the ``[Q]``-classes sharing a member.

        Entry ``k`` lists, ascending, the class indices of
        ``partition_table(second)`` reachable from class ``k`` of
        ``partition_table(first)`` in one ``[Q]`` step.  This is the class
        graph along which composed relations propagate.  Derived from the
        memoised refinement product — whose realised ``(P-class,
        Q-class)`` pairs are exactly the adjacency edges — so one O(n)
        pass serves both directions and every product consumer; cached
        per ordered pair.
        """
        p_set = as_process_set(first)
        q_set = as_process_set(second)
        cached = self._adjacency.get((p_set, q_set))
        if cached is None:
            if p_set == q_set:
                cached = tuple(
                    (index,)
                    for index in range(self.partition_table(p_set).num_classes)
                )
            else:
                _, pairs = self._refinement_entry(p_set, q_set)
                reachable: list[set[int]] = [
                    set() for _ in range(self.partition_table(p_set).num_classes)
                ]
                for p_class, q_class in pairs:
                    reachable[p_class].add(q_class)
                cached = tuple(tuple(sorted(entry)) for entry in reachable)
            self._adjacency[(p_set, q_set)] = cached
        return cached

    def iso_class_mask(
        self, configuration: Configuration, processes: ProcessSetLike
    ) -> int:
        """Bitmask of the ``[P]``-class of ``configuration``."""
        config_id = self.config_id(configuration)
        table = self.partition_table(processes)
        return table.class_mask(table.class_of[config_id])

    def iso_class_index(
        self, configuration: Configuration, processes: ProcessSetLike
    ) -> int:
        """Class index of ``configuration`` in ``partition_table(processes)``."""
        return self.partition_table(processes).class_of[
            self.config_id(configuration)
        ]

    def iso_class(
        self, configuration: Configuration, processes: ProcessSetLike
    ) -> Sequence[Configuration]:
        """All universe configurations ``y`` with ``configuration [P] y``."""
        return self.configurations_in_mask(
            self.iso_class_mask(configuration, processes)
        )

    def iso_class_size(
        self, configuration: Configuration, processes: ProcessSetLike
    ) -> int:
        """Size of the ``[P]``-class of ``configuration``."""
        return self.iso_class_mask(configuration, processes).bit_count()

    def descendant_masks(self, ids: int) -> Iterator[tuple[int, int]]:
        """``(x, descendants)`` for each id ``x`` set in ``ids``, highest
        first: ``descendants`` masks the ids reachable from ``x`` along
        stored successor edges, ``x`` included.  On a complete universe
        that is every ``z`` with ``x <= z``; on a truncated one it is a
        sound under-approximation, missing the pairs whose every path
        crosses a configuration the bound left unexpanded.

        ``desc[x] = bit(x) | OR desc[child]``, from the highest id down (a
        child's id exceeds its parents').  A child's mask is dropped once
        its discovery parent, its lowest-id predecessor, is visited, so
        the live masks stay about one BFS layer wide.
        """
        wanted = list(iter_bit_ids(ids))
        if not wanted:
            return
        parents = array("q")
        for _, column, _ in self._configurations.parent_event_columns():
            parents.extend(column)
        offsets = self._succ_offsets
        succ_ids = self._succ_ids
        live: dict[int, int] = {}
        for x in range(len(parents) - 1, wanted[0] - 1, -1):
            mask = 1 << x
            for child in succ_ids[offsets[x] : offsets[x + 1]]:
                mask |= live.pop(child) if parents[child] == x else live[child]
            live[x] = mask
            if x == wanted[-1]:
                wanted.pop()
                yield x, mask

    def events(self) -> frozenset[Event]:
        """Every event occurring anywhere in the universe.

        Answered from the arena's event vocabulary, materialising
        nothing: each configuration but the empty root is its parent
        plus one vocabulary event, so the vocabulary holds them all.
        """
        return frozenset(self._configurations.vocabulary)

    @property
    def active_processes(self) -> frozenset[ProcessId]:
        """Processes with at least one event somewhere in the universe:
        the processes of :meth:`events`."""
        cached = self._active_processes
        if cached is None:
            cached = frozenset(event.process for event in self.events())
            self._active_processes = cached
        return cached


class EnumeratedUniverse(Universe):
    """A universe given by an explicit set of computations.

    Used for hand-built examples (e.g. Figure 3-1) where no protocol
    exists: the given configurations are closed under consistent cuts
    and indexed exactly like an explored universe, on the same arena.
    Ids are BFS discovery order from the empty configuration over
    one-event extensions within the closure, each successor row is
    ascending, and the arena is filled by replaying the discovery
    records (:meth:`~repro.universe.arena.ArenaStore.replay`), so hashes
    and the hash -> id table come from the same rolling entry hashes as
    a checkpoint resume's.  The processes ``D`` are those the given
    configurations hold; default :class:`ExplorationOptions` apply.
    """

    def __init__(self, configurations: Iterable[Configuration]) -> None:
        # Deliberately does not call super().__init__: there is no protocol.
        from repro.causality.cuts import consistent_cuts

        self._init_store(None, ExplorationOptions(), DEFAULT_FILEOPS)
        closure: dict[Configuration, None] = {}  # in first-seen order
        processes: set[ProcessId] = set()
        for configuration in configurations:
            cuts = dict.fromkeys(consistent_cuts(configuration))
            if next(reversed(cuts)) != configuration:
                raise UniverseError(
                    "a given configuration has no linearization (cyclic "
                    "causality or a receive without its send)"
                )
            closure.update(cuts)
            processes.update(configuration.processes)
        self._processes = frozenset(processes)
        # A child's parents are its cuts one event short: drop each
        # process's last event and probe the closure.
        children: dict[Configuration, list[tuple[Configuration, Event]]] = {}
        for child in closure:
            histories = child._histories
            for process, history in histories.items():
                parent = Configuration({**histories, process: history[:-1]})
                if parent in closure:
                    children.setdefault(parent, []).append((child, history[-1]))
        ids = {EMPTY_CONFIGURATION: 0}
        order = [EMPTY_CONFIGURATION]
        stream: list[tuple[int, Event]] = []
        succ_ids = self._succ_ids
        for parent_id, parent in enumerate(order):  # grows while walked
            row = []
            for child, event in children.get(parent, ()):
                child_id = ids.get(child)
                if child_id is None:
                    child_id = ids[child] = len(order)
                    order.append(child)
                    stream.append((parent_id, event))
                row.append(child_id)
            succ_ids.extend(sorted(row))
            self._succ_offsets.append(len(succ_ids))
        self._ids_by_hash = self._configurations.replay(
            *record_columns(stream), sorted(processes)
        )

    @property
    def protocol(self) -> Protocol:  # type: ignore[override]
        raise UniverseError("an enumerated universe has no protocol")

    @property
    def processes(self) -> frozenset[ProcessId]:  # type: ignore[override]
        return self._processes

    def complement(self, processes: ProcessSetLike) -> frozenset[ProcessId]:
        p_set = as_process_set(processes)
        if not p_set <= self._processes:
            raise UniverseError(
                f"{sorted(p_set)} is not a subset of D = {sorted(self._processes)}"
            )
        return self._processes - p_set

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
"""

from __future__ import annotations

import gc
import os
import sys
import zlib
from math import inf
from array import array
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Sequence
from functools import partial
from itertools import repeat

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    _entry_hash,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.errors import UniverseError
from repro.core.events import Event, ReceiveEvent, SendEvent
from repro.core.process import ProcessId, ProcessSetLike, as_process_set
from repro.universe.arena import ArenaStore
from repro.universe.fileops import DEFAULT_FILEOPS, FaultInjectingFileOps
from repro.universe.frontier import PackedFrontier
from repro.universe.options import ExplorationOptions
from repro.universe.recovery import RecoveryLog
from repro.universe.protocol import Protocol

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


def first_occurrence_labels(keys: Iterable[Hashable]) -> tuple[array, dict]:
    """``(labels, label_of)``: ``labels[i]`` is ``label_of[key]`` of the
    ``i``-th key, labels counting up in order of first occurrence — the
    canonical labelling of the partition ``keys`` induces on positions.
    ``label_of`` iterates the distinct keys in label order."""
    label_of: dict = {}
    setdefault = label_of.setdefault
    labels = array("i", [setdefault(key, len(label_of)) for key in keys])
    return labels, label_of


class PartitionTable:
    """The ``[P]``-partition of a universe on dense configuration ids.

    One table answers every class-level question the isomorphism engine
    asks:

    * ``class_of[config_id]`` — the class index of a configuration;
    * ``members[k]`` — the ids of class ``k``, ascending;
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
        "_masks",
        "_compose_memo",
        "_sparse_memo",
        "_sparse_memo_words",
        "_fingerprint",
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
        self._masks: list[int] | None = None
        self._compose_memo: dict[tuple[int, ...], int] = {}
        self._sparse_memo: dict[int, int] = {}
        self._sparse_memo_words = 0
        self._fingerprint: tuple[int, int, int] | None = None
        self._consistent: bool | None = None

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable]) -> "PartitionTable":
        """The partition of ids ``0, 1, …`` by equal ``keys[id]``.

        Classes are labelled in first-occurrence order, the canonical
        labelling every table uses (see :attr:`fingerprint`).
        """
        class_of, label_of = first_occurrence_labels(keys)
        return cls(class_of, len(label_of))

    @property
    def members(self) -> tuple[array, ...]:
        """``members[k]`` — the ids of class ``k``, ascending.

        Bucketed from :attr:`class_of` in one pass on first use: tables
        that are only compared (fingerprints, refinement products) never
        pay for it.
        """
        members = self._members
        if members is None:
            rows = [array("i") for _ in range(self.num_classes)]
            appends = [row.append for row in rows]
            for config_id, index in enumerate(self.class_of):
                appends[index](config_id)
            members = self._members = tuple(rows)
        return members

    # -- mask materialisation ------------------------------------------
    def _mask_of_ids(self, ids: Sequence[int]) -> int:
        if len(ids) == 1:
            return 1 << ids[0]
        bits = bytearray(((ids[-1] if ids else 0) >> 3) + 1)
        for config_id in ids:
            bits[config_id >> 3] |= 1 << (config_id & 7)
        return int.from_bytes(bits, "little")

    def _dense_masks(self) -> list[int]:
        masks = self._masks
        if masks is None:
            masks = [self._mask_of_ids(ids) for ids in self.members]
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
                mask = self._mask_of_ids(self.members[index])
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
    @property
    def fingerprint(self) -> tuple[int, int, int]:
        """Stable identity of the partition: ``(size, classes, crc)``.

        Class indices are assigned in first-occurrence order over the
        dense configuration ids, so the ``class_of`` array is a
        *canonical* labelling: two tables over the same universe describe
        the same partition iff their arrays are equal, and the
        fingerprint — a CRC of the array bytes, independent of hash
        randomisation — is equal whenever the partitions are.  Callers
        that need exactness confirm with :meth:`same_partition_as`
        (fingerprint first, then a C-level array compare).
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = (
                self.size,
                self.num_classes,
                zlib.crc32(self.class_of.tobytes()),
            )
            self._fingerprint = fingerprint
        return fingerprint

    def same_partition_as(self, other: "PartitionTable") -> bool:
        """Exact partition equality (fingerprint fast-path, then arrays)."""
        if self is other:
            return True
        return self.fingerprint == other.fingerprint and self.class_of == other.class_of

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
    row: tuple,
    position: int,
    new_history: tuple,
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
        if row_matches(candidate_id, row, position, new_history):
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
    :class:`~repro.universe.options.ResourceBudget` (RSS watchdog, arena
    spill directory) and :class:`~repro.universe.options.Sharding`
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
        spill_dir = opts.budget.spill_dir
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
        self._protocol = protocol
        self._max_events = max_events
        self._recovery_log = RecoveryLog()
        # Storage fault delivery: every checkpoint/spill filesystem call
        # routes through one shared file-ops shim; write-targeting kinds
        # arm at the BFS layer boundary covering their layer, eio_read
        # arms immediately so it can land on the resume read path.
        storage_actions = (
            fault_plan.take_storage_faults() if fault_plan is not None else []
        )
        if storage_actions:
            self._fileops = FaultInjectingFileOps()
        else:
            self._fileops = DEFAULT_FILEOPS
        self._storage_faults: dict[int, list[tuple[str, float]]] = {}
        for kind, layer, seconds in storage_actions:
            if kind == "eio_read":
                self._fileops.arm(kind, seconds)
            else:
                self._storage_faults.setdefault(layer, []).append(
                    (kind, seconds)
                )
        self._configurations: Sequence[Configuration] = ArenaStore(
            spill_dir=spill_dir,
            fileops=self._fileops,
            recovery_log=self._recovery_log,
        )
        # Content hash -> dense id (or list of ids on hash collision).
        # This is both the BFS dedup table and, after exploration, the
        # public configuration -> id index: one table, no second
        # content-keyed dict and no weak-registry round-trips.
        self._ids_by_hash: dict[int, int | list[int]] = {}
        # CSR successor store: the successor ids of configuration i are
        # _succ_ids[_succ_offsets[i]:_succ_offsets[i+1]].  BFS emits each
        # configuration's successors contiguously, so the flat layout is
        # append-only — no per-configuration list objects.
        self._succ_offsets = array("q", (0,))
        self._succ_ids = array("q")
        self._complete = True
        self._init_relation_caches()
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
        if storage_actions and checkpoint is None and spill_dir is None:
            raise UniverseError(
                "storage fault injection (enospc/eio_read/eio_write/"
                "fsync_fail/slow_io/fd_exhaust) requires a checkpoint "
                "path or a spill_dir — there are no filesystem calls to "
                "land on otherwise"
            )
        if checkpoint is not None and spill_dir is not None:
            # A killed predecessor's spill file is unreachable (spill
            # offsets live only in its process memory); our own store
            # has not spilled yet (creation is lazy), so every existing
            # arena-*.spill here is an orphan.
            self._clean_orphan_spills(spill_dir)
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
        self._rss_watchdog = None
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

    def _init_relation_caches(self) -> None:
        self._partition_tables: dict[frozenset[ProcessId], PartitionTable] = {}
        self._adjacency: dict[
            tuple[frozenset[ProcessId], frozenset[ProcessId]],
            tuple[tuple[int, ...], ...],
        ] = {}
        # Refinement products: frozenset-pair -> (first_set, table, pairs);
        # fingerprint-keyed layer shares products across subset pairs
        # whose partitions coincide extensionally.
        self._refinement_products: dict[
            frozenset[frozenset[ProcessId]],
            tuple[frozenset[ProcessId], PartitionTable, list[tuple[int, int]]],
        ] = {}
        self._refinement_by_fp: dict[
            tuple[tuple[int, int, int], tuple[int, int, int]],
            tuple[array, array, PartitionTable, list[tuple[int, int]]],
        ] = {}
        # Composed-relation frontier memo, shared across the property
        # checkers (inversion, concatenation, reflexivity, equality all
        # fold the same class graphs): sequence of process sets ->
        # (base table, final table, per-base-class final-class frontiers).
        # Owned by the universe so one sweep's folds serve the next.
        self._frontier_class_memo: dict[
            tuple[frozenset[ProcessId], ...], tuple
        ] = {}

    def _explore(self, engine=None) -> None:
        """The one BFS layer driver of both engines.

        It seeds the root or resumes from the checkpoint session (the
        replay already refilled the packed columns, so only the frontier
        window is rebuilt and the replay's objects retired), builds the
        one :class:`~repro.universe.frontier.PackedFrontier` and the RSS
        watchdog, and runs one layer body per BFS layer with the
        collector off.  At every layer boundary it runs the one
        epilogue: arm due storage faults, commit the layer to the
        checkpoint, retire the consumed frontier into the arena's cold
        tier, rotate the frontier's memo generation, then the RSS ladder
        (spill the cold tier; truncate only if that is not enough).  At
        the end it raises the ``max_configurations`` error or truncates
        and pads the CSR rows.

        ``engine`` is ``None`` for the in-process kernel, whose layer
        body is :meth:`_expand_layer`, or a
        :class:`~repro.universe.sharded.ShardedExplorer`, which supplies
        its worker pids to the watchdog and its own layer body.  A layer
        body ``(layer_start, layer_end, layer)`` expands the parents
        ``[layer_start, layer_end)`` of BFS layer ``layer`` and returns
        ``(records, bound_hit)``: the layer's discovery records
        ``[(parent_id, event), ...]`` for the checkpoint, and whether
        the ``max_configurations`` bound stopped it mid-layer.

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
        resumed = session.try_resume(self) if session is not None else None
        if resumed is not None:
            # try_resume replayed the stream into the packed columns;
            # rebuild the frontier window and continue from the first
            # unexpanded layer.
            layer_start = resumed.frontier_start
            layer = resumed.layers
            frontier.load(arena, layer_start, len(arena))
            # The replay's materialised objects are now redundant: the
            # window rows carry the frontier from here on.
            arena.retire(len(arena))
        else:
            arena.append(EMPTY_CONFIGURATION)
            self._ids_by_hash[hash(EMPTY_CONFIGURATION)] = 0
            layer_start = 0
            layer = 0
        # math.inf compares greater than every count, so `count >= limit`
        # is the single bound test; non-positive bounds fire on the first
        # discovered child.
        max_configurations = limits.max_configurations
        limit = max_configurations if max_configurations is not None else inf
        if engine is None:
            expand_layer = partial(self._expand_layer, frontier, limit)
        else:
            # Fresh workers rebuild from the root: on resume their first
            # replay is the full restored stream, not one layer's.
            expand_layer = engine.layer_body(
                self, frontier, limit, resumed.stream if resumed else []
            )
        self._arm_storage_faults(layer)
        bound_hit = rss_truncated = False
        # The engines allocate millions of acyclic, long-lived objects and
        # create no reference cycles of their own; CPython's generational
        # collector would rescan the growing universe on every threshold
        # crossing — a superlinear tax at n=8.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while layer_start < len(arena):
                layer_end = len(arena)
                records, bound_hit = expand_layer(layer_start, layer_end, layer)
                if bound_hit:
                    # Mid-layer stop: the checkpoint keeps the previous
                    # (complete) layer boundary, never a torn layer.
                    break
                layer += 1
                done = len(arena) == layer_end  # no new configurations
                self._arm_storage_faults(layer)
                if session is not None:
                    session.commit_layer(records, layer_end, self, final=done)
                # Advance the arena floor (seals + compresses full cold
                # chunks) and rotate the generation-scoped memos.
                arena.retire(layer_end)
                frontier.rotate()
                layer_start = layer_end
                if done or watchdog is None or not watchdog.exceeded():
                    continue
                # Graceful degradation ladder: spill the cold tier to
                # disk first; only truncate if that doesn't bring RSS
                # back under budget.
                detail = f"{len(arena)} configurations"
                if arena.spill_cold() and not watchdog.exceeded():
                    self._recovery_log.record(
                        "rss_budget", "spill", layer=layer, detail=detail
                    )
                    continue
                self._recovery_log.record(
                    "rss_budget", "truncate", layer=layer, detail=detail
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
    ) -> tuple[list | None, bool]:
        """The kernel's layer body (see :meth:`_explore`): expand BFS
        layer ``layer`` over *packed window rows*.

        Configurations go straight into the arena as packed ``(parent
        id, event, hash)`` columns; the kernel never builds child
        objects.  ``frontier`` supplies the per-parent enabled events,
        the slow-path transient objects and the collision-aware row
        comparison.  Each window entry is popped the moment its
        expansion completes, so a consumed frontier prefix stops
        counting toward peak RSS mid-layer instead of at the next
        boundary.  The per-edge work stays inline because this loop is
        the hot path: the child's content hash is O(1) from the parent's
        (rolling entry hashes), dedup compares rows elementwise — shared
        history tuples make those identity hits, and the rare content-hash
        collision goes through :func:`_resolve_collision` — and a first
        discovery appends its packed columns and window entry here, with
        the same row and message-set derivation as
        :meth:`PackedFrontier.child
        <repro.universe.frontier.PackedFrontier.child>`.  The discovery
        records are only kept when a checkpoint session will commit
        them (``None`` otherwise).
        """
        arena: ArenaStore = self._configurations
        ids_by_hash = self._ids_by_hash
        succ_ids = self._succ_ids
        succ_offsets = self._succ_offsets
        window = frontier.window
        records = [] if self._checkpoint_session is not None else None
        count = len(arena)
        edges = len(succ_ids)
        max_events = self._max_events
        if max_events is not None and layer >= max_events:
            # Every BFS edge appends one event, so layer L's parents hold
            # L events: the whole layer is capped, and the universe is
            # incomplete iff one of them still has an enabled event.
            compiled_enabled = self._protocol.compiled_enabled_events
            transient = frontier.transient
            for parent_id in range(layer_start, layer_end):
                if compiled_enabled(transient(window.pop(parent_id))):
                    self._complete = False
                succ_offsets.append(edges)
            return records, False
        enabled_at = frontier.enabled
        row_matches = frontier.row_matches
        index_of = frontier.index_of
        seed_of = frontier.seed_of
        entry_hash_of = frontier.entry_hash_of
        entry_memo_get = entry_hash_of.get
        entry_prev_get = frontier.entry_prev_get
        intern = frontier.interned.setdefault
        modulus = _HASH_MODULUS
        multiplier = _ROLL_MULTIPLIER
        for parent_id in range(layer_start, layer_end):
            entry = window.pop(parent_id)
            row = entry[0]
            parent_hash = entry[1]
            for event in enabled_at(entry):
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
                    new_entry = (old_entry * multiplier + event_hash) % modulus
                    child_hash = (parent_hash - old_entry + new_entry) % modulus
                existing = ids_by_hash.get(child_hash)
                if existing is None:
                    if count >= limit:
                        succ_offsets.append(edges)
                        return records, True
                elif type(existing) is int and row_matches(
                    existing, row, position, new_history
                ):
                    succ_ids.append(existing)
                    edges += 1
                    continue
                else:
                    child_id = _resolve_collision(
                        ids_by_hash, child_hash, existing, row_matches,
                        row, position, new_history, count, limit,
                    )
                    if child_id is None:
                        succ_offsets.append(edges)
                        return records, True
                    if child_id != count:
                        succ_ids.append(child_id)
                        edges += 1
                        continue
                # First discovery: pack the columns, keep only the row +
                # message sets hot — no child object.  The window entry
                # is PackedFrontier.child inlined (memo write, interned
                # message sets, child row).
                child_id = count
                if existing is None:
                    ids_by_hash[child_hash] = child_id
                count += 1
                entry_hash_of[id(new_history)] = new_entry
                received = entry[2]
                in_flight = entry[3]
                if isinstance(event, SendEvent):
                    message = event.message
                    if message not in received:
                        in_flight = in_flight | {message}
                        in_flight = intern(in_flight, in_flight)
                elif isinstance(event, ReceiveEvent):
                    message = event.message
                    received = received | {message}
                    received = intern(received, received)
                    in_flight = in_flight - {message}
                    in_flight = intern(in_flight, in_flight)
                window[child_id] = (
                    row[:position] + (new_history,) + row[position + 1:],
                    child_hash,
                    received,
                    in_flight,
                )
                arena.append_child(parent_id, event, child_hash, None)
                succ_ids.append(child_id)
                edges += 1
                if records is not None:
                    records.append((parent_id, event))
            succ_offsets.append(edges)
        return records, False

    def _id_of(self, configuration: Configuration) -> int | None:
        """Dense id of ``configuration``, or ``None`` if not a member."""
        entry = self._ids_by_hash.get(hash(configuration))
        if entry is None:
            return None
        configurations = self._configurations
        if type(entry) is int:
            if configurations[entry] == configuration:
                return entry
            return None
        for candidate_id in entry:
            if configurations[candidate_id] == configuration:
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
        ``"disable-checkpointing"``, ``"spill_degraded"``/
        ``"sealed-in-ram"``, ``"orphan_spill"``/``"discard-orphan"``),
        and per RSS-watchdog rung (``"rss_budget"``/``"spill"`` or
        ``"truncate"``)."""
        return tuple(getattr(self, "_recovery_log", ()))

    @property
    def checkpoint_degraded(self) -> bool:
        """True when a persistent storage failure disabled checkpointing
        mid-run: exploration completed, the last committed manifest is
        still valid, but no further saves happened after the failure
        (the ``checkpoint_degraded`` rung on :attr:`recovery_log` has
        the detail)."""
        session = getattr(self, "_checkpoint_session", None)
        return bool(session is not None and session.degraded)

    def _clean_orphan_spills(self, spill_dir) -> None:
        """Delete arena spill files a killed predecessor left behind in
        ``spill_dir`` (their offsets died with its process memory) and
        log one ``orphan_spill`` recovery event per file."""
        try:
            entries = os.listdir(spill_dir)
        except OSError:
            return  # nothing spilled yet: the directory may not exist
        for name in sorted(entries):
            if not (name.startswith("arena-") and name.endswith(".spill")):
                continue
            try:
                self._fileops.unlink(os.path.join(spill_dir, name))
            except OSError:
                continue  # a live sibling may still own it; leave it be
            self._recovery_log.record(
                "orphan_spill", "discard-orphan", detail=name
            )

    def _arm_storage_faults(self, layers_done: int) -> None:
        """Arm every planned storage fault whose layer the exploration
        clock has now passed (same ``fault.layer < layers_done``
        semantics as the checkpoint fault actions): the next matching
        filesystem operation — this layer boundary's checkpoint save,
        spill write, or a background-writer append — takes the hit.

        When a background checkpoint writer is active the arming is
        queued behind its already-enqueued saves, so a fault for layer
        L can never land retroactively on a still-inflight save of an
        earlier layer: the manifest through L stays committed and
        clean, which is what the degradation ladder promises."""
        pending = getattr(self, "_storage_faults", None)
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
        return dict(getattr(self, "_worker_peak_rss_mb", {}))

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
        watchdog = getattr(self, "_rss_watchdog", None)
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
        built in one streaming pass (:meth:`_build_history_labels`);
        ``[P]`` for ``|P| > 1`` relabels the rows of its processes' label
        columns in first-occurrence order, over ints only, and ``[∅]`` is
        one class.
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

        Each process keeps an intern dict (one entry per distinct history)
        and an ``array('i')`` column of first-occurrence labels — the
        canonical labelling — which becomes its singleton table's
        ``class_of``.  The pass reads only ``self._configurations``, so
        the arena materialises each configuration once for all tables.
        """
        tables = self._partition_tables
        lanes = [
            (process, {}, array("i"))
            for process in sorted(self.processes | requested)
            if frozenset((process,)) not in tables
        ]
        for configuration in self._configurations:
            histories = configuration._histories
            for process, label_of, column in lanes:
                column.append(
                    label_of.setdefault(histories.get(process, ()), len(label_of))
                )
        for process, label_of, column in lanes:
            tables[frozenset((process,))] = PartitionTable(column, len(label_of))

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
        memoised per unordered pair of process sets; a fingerprint-keyed
        layer additionally shares the product across subset pairs whose
        partitions coincide extensionally (verified exactly, arrays
        compared, before reuse).
        """
        key = frozenset((p_set, q_set))
        cached = self._refinement_products.get(key)
        if cached is not None:
            first_set, table, pairs = cached
            if first_set == p_set:
                return table, pairs
            return table, [(b, a) for a, b in pairs]
        p_table = self.partition_table(p_set)
        q_table = self.partition_table(q_set)
        fp_key = (p_table.fingerprint, q_table.fingerprint)
        shared = self._refinement_by_fp.get(fp_key)
        if shared is not None:
            p_of, q_of, table, pairs = shared
            if p_of == p_table.class_of and q_of == q_table.class_of:
                self._refinement_products[key] = (p_set, table, pairs)
                return table, pairs
        shared = self._refinement_by_fp.get((fp_key[1], fp_key[0]))
        if shared is not None:
            q_of, p_of, table, transposed = shared
            if p_of == p_table.class_of and q_of == q_table.class_of:
                pairs = [(a, b) for b, a in transposed]
                self._refinement_products[key] = (p_set, table, pairs)
                return table, pairs
        p_of = p_table.class_of
        q_of = q_table.class_of
        class_of, label_of = first_occurrence_labels(zip(p_of, q_of))
        pairs = list(label_of)
        table = PartitionTable(class_of, len(pairs))
        self._refinement_products[key] = (p_set, table, pairs)
        self._refinement_by_fp[fp_key] = (p_of, q_of, table, pairs)
        return table, pairs

    def refinement_product(
        self, first: ProcessSetLike, second: ProcessSetLike
    ) -> PartitionTable:
        """The common refinement of ``[P]`` and ``[Q]`` as a partition table.

        This is the relation ``[P] ∩ [Q]`` computed *from the class-index
        arrays* — independently of the ``[P ∪ Q]`` table, which relabels
        the history label columns of ``P ∪ Q`` directly; that is what
        lets :func:`repro.isomorphism.algebra.check_union` compare the
        two.  Canonically labelled, memoised, fingerprint-shared; see
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

    def sub_configuration_pairs(
        self,
    ) -> Iterator[tuple[Configuration, Configuration]]:
        """All ordered pairs ``(x, z)`` with ``x`` a sub-configuration of
        ``z`` — the configuration-level analogue of the paper's ``x <= z``.

        Quadratic in the universe size; intended for exhaustive theorem
        checking on small universes.  Candidates are bucketed by event
        count so ``x`` is only ever compared against configurations with
        at least as many events.
        """
        by_count: dict[int, list[Configuration]] = {}
        for configuration in self._configurations:
            by_count.setdefault(len(configuration), []).append(configuration)
        counts = sorted(by_count)
        for smaller in self._configurations:
            threshold = len(smaller)
            for count in counts:
                if count < threshold:
                    continue
                for larger in by_count[count]:
                    if smaller.is_sub_configuration_of(larger):
                        yield smaller, larger

    def events(self) -> frozenset[Event]:
        """Every event occurring anywhere in the universe."""
        found: set[Event] = set()
        for configuration in self._configurations:
            found.update(configuration.events())
        return frozenset(found)

    @property
    def active_processes(self) -> frozenset[ProcessId]:
        """Processes with at least one event somewhere in the universe."""
        cached = getattr(self, "_active_processes", None)
        if cached is None:
            active: set[ProcessId] = set()
            for configuration in self._configurations:
                active.update(configuration._histories)
            cached = frozenset(active)
            self._active_processes = cached
        return cached


def _consistent_cuts(configuration: Configuration) -> Iterator[Configuration]:
    """All message-consistent combinations of per-process history prefixes.

    System computations are prefix closed and closed under removing
    causally-maximal events, so every consistent cut of a computation is
    itself a computation of the same system.

    Implemented as a prefix-pruned forward search: starting from the
    empty cut, a cut is extended one event at a time, receives only when
    their message is already sent within the cut.  For configurations
    with an acyclic causal order this reaches exactly the cuts whose
    received messages are a subset of their sent messages, while never
    materialising the (exponentially larger) full product of prefix
    lengths.  Cyclic inputs fall back to the exhaustive enumeration,
    :func:`repro.causality.cuts.consistent_cuts`.
    """
    processes = sorted(configuration.processes)
    if not processes:
        yield configuration
        return

    from repro.causality.cuts import consistent_cuts
    from repro.causality.order import CausalOrder

    if not CausalOrder(configuration).is_acyclic():
        yield from consistent_cuts(configuration)
        return

    histories = [configuration.history(process) for process in processes]
    start = (0,) * len(processes)
    sent_at: dict[tuple[int, ...], frozenset] = {start: frozenset()}
    queue: deque[tuple[int, ...]] = deque([start])
    cuts: list[tuple[int, ...]] = [start]
    while queue:
        cut = queue.popleft()
        sent = sent_at[cut]
        for position, history in enumerate(histories):
            length = cut[position]
            if length >= len(history):
                continue
            event = history[length]
            if isinstance(event, ReceiveEvent) and event.message not in sent:
                continue
            extended = cut[:position] + (length + 1,) + cut[position + 1 :]
            if extended in sent_at:
                continue
            sent_at[extended] = (
                sent | {event.message} if isinstance(event, SendEvent) else sent
            )
            queue.append(extended)
            cuts.append(extended)
    for cut in cuts:
        yield Configuration(
            {
                process: histories[position][: cut[position]]
                for position, process in enumerate(processes)
                if cut[position]
            }
        )


class EnumeratedUniverse(Universe):
    """A universe given by an explicit set of computations.

    Used for hand-built examples (e.g. Figure 3-1) where no protocol
    exists: the given configurations are prefix-closed along the supplied
    linearizations and indexed exactly like an explored universe.
    """

    def __init__(self, configurations: Iterable[Configuration]) -> None:
        # Deliberately does not call super().__init__: there is no protocol.
        closure: list[Configuration] = []
        seen: set[Configuration] = set()
        processes: set[ProcessId] = set()
        for configuration in configurations:
            for cut in _consistent_cuts(configuration):
                if cut not in seen:
                    seen.add(cut)
                    closure.append(cut)
            processes.update(configuration.processes)
        closure.sort(key=len)
        self._protocol = None  # type: ignore[assignment]
        self._max_events = None
        self._configurations = closure
        self._ids_by_hash = {}
        for index, configuration in enumerate(closure):
            content_hash = hash(configuration)
            entry = self._ids_by_hash.get(content_hash)
            if entry is None:
                self._ids_by_hash[content_hash] = index
            elif type(entry) is int:
                self._ids_by_hash[content_hash] = [entry, index]
            else:
                entry.append(index)
        self._complete = True
        self._init_relation_caches()
        self._processes = frozenset(processes)
        # Successors: one-event extensions within the closure, stored in
        # the same CSR layout as explored universes.  Bucket the
        # candidates by event count so each configuration is only
        # compared against the next layer.
        by_count: dict[int, list[int]] = {}
        for index, configuration in enumerate(closure):
            by_count.setdefault(len(configuration), []).append(index)
        self._succ_offsets = array("q", (0,))
        self._succ_ids = array("q")
        for configuration in closure:
            for candidate in by_count.get(len(configuration) + 1, ()):
                if configuration.is_sub_configuration_of(closure[candidate]):
                    self._succ_ids.append(candidate)
            self._succ_offsets.append(len(self._succ_ids))

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

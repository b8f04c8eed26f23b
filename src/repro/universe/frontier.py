"""The packed frontier: the one hot representation every engine expands.

The one BFS layer driver (:meth:`repro.universe.explorer.Universe._explore`)
builds one :class:`PackedFrontier` per exploration and hands it to the
layer body of either engine: the in-process kernel's
(:meth:`~repro.universe.explorer.Universe._expand_layer`) or the sharded
coordinator's (:mod:`repro.universe.sharded`), whose workers each hold
their own.  Every one of them keeps the configurations it is about to
expand in a window of packed entries

    ``id -> (row, content_hash, received, in_flight, steps)``

where ``row`` is a fixed-width tuple of per-process histories in
``ordered_processes`` order (``()`` for absent processes), the two
message frozensets are interned per layer, so siblings with equal
channel contents share one set object, and ``steps`` is the row's
compiled local steps: one step tuple per process, in the same order
(``None`` for a custom-enabling protocol, which never reads the step
table).  A first-discovered child copies its parent's ``steps`` and
replaces the one slot its event changed, so the step table is asked
once per *new history*, and enumerating a parent's events hashes no
history.  The step table interns its events, so rows, histories and
step tuples hold one object per distinct event and row comparisons are
tuple compares in C that hit identity on every element.  Identity is
only ever a shortcut: an equal but non-identical event (unpickled after
a resume, or sent by a shard worker) still compares equal, and such
events pass through the step table's intern once per distinct object
(:meth:`~PackedFrontier.canonicaliser`).  No
``Configuration`` is built on the hot path:
:meth:`PackedFrontier.transient` materialises a throwaway one only for
the slow-path hooks (custom enabling, enabling filters, ``max_events``
probes).

The frontier is the one place that knows this format: the per-protocol
constants, the enabled-event enumeration (:attr:`PackedFrontier.enabled`),
the rolling child-hash step (:meth:`~PackedFrontier.step`), the child's
entry (:meth:`~PackedFrontier.child`), the collision-aware row
comparison (:meth:`~PackedFrontier.row_matches`),
the checkpoint replay's object-free child hashes (:func:`stream_hashes`),
the resume rebuild (:meth:`~PackedFrontier.load`), replay of a merged
discovery stream (:meth:`~PackedFrontier.apply`) and shard expansion
(:meth:`~PackedFrontier.expand`).  The driver rotates the memo at every
layer boundary.  The kernel's layer body inlines the per-edge work that
these methods also do — the rolling hash step, the child row, the
window-entry dedup compare and the child's window entry — because that
loop is the hot path and makes no Python-level call per edge; it calls
:meth:`~PackedFrontier.row_matches` only for a candidate outside the
window (a cross-layer content-hash collision), and hands each layer's
first discoveries to the arena in one bulk
:meth:`~repro.universe.arena.ArenaStore.extend_children`.  Every child
row or step row is a one-cell replacement, ``cells = list(row);
cells[position] = new; tuple(cells)``: one list and one tuple per row.

Rolling entry hashes are memoised by history-tuple *identity*, and the
memo rotates generations at BFS layer boundaries (:meth:`rotate`).
Evicting window entries cannot alias that memo: every history tuple a
lookup can name is held by a live window row, every tuple a row gains
after a :meth:`load` is a freshly discovered child's ``new_history``
whose memo entry is overwritten at creation (by :meth:`child`, or the
kernel's inlined copy of it), and :meth:`load` only runs on a fresh
frontier, whose memo is empty.
"""

from __future__ import annotations

from array import array
from itertools import chain

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    _entry_hash,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.events import ReceiveEvent, SendEvent


def _transient(ordered, entry: tuple) -> Configuration:
    """A throwaway ``Configuration`` of one window entry."""
    row, content_hash, received, in_flight, _ = entry
    items = {process: history for process, history in zip(ordered, row) if history}
    configuration = Configuration._from_trusted(items, content_hash, None)
    cache = configuration.__dict__
    cache["received_messages"] = received
    cache["in_flight_messages"] = in_flight
    return configuration


def stream_hashes(ordered, parents, events, vocabulary) -> array:
    """The content hash of every child a discovery stream discovers.

    The stream is given as columns over the root at id 0: child ``k``
    (id ``k + 1``) is ``vocabulary[events[k]]`` on ``parents[k]``.  Each
    live configuration is one row holding the rolling entry hash of each
    process in ``ordered`` (``None`` before its first event), and the
    content hashes are kept by id, so a child costs
    :meth:`PackedFrontier.step`'s multiply-add and no history tuple or
    ``Configuration``.  Parent ids are non-decreasing and every edge adds
    one event, so only two BFS layers of rows are live: the parents' and
    the one they build.
    """
    index_of = {process: i for i, process in enumerate(ordered)}
    modulus = _HASH_MODULUS
    multiplier = _ROLL_MULTIPLIER
    # One (position, process seed, event hash) per vocabulary index.
    steps = [
        (index_of[event.process], hash(event.process) % modulus, hash(event))
        for event in vocabulary
    ]
    # Content hashes by id, the root's first; rows of the two live layers.
    hashes = [hash(EMPTY_CONFIGURATION)]
    append = hashes.append
    parent_rows = [(None,) * len(ordered)]
    parents_start = 0
    children: list[tuple] = []
    add_child = children.append
    children_start = 1
    try:
        for parent_id, event_index in zip(parents, events):
            if parent_id >= children_start:
                parent_rows, parents_start = children, children_start
                children, children_start = [], children_start + len(children)
                add_child = children.append
            elif parent_id < parents_start:
                raise ValueError(
                    f"discovery stream is not in BFS order: parent {parent_id} "
                    f"after parents from {parents_start}"
                )
            entries = parent_rows[parent_id - parents_start]
            parent_hash = hashes[parent_id]
            position, seed, event_hash = steps[event_index]
            old_entry = entries[position]
            if old_entry is None:
                new_entry = (seed * multiplier + event_hash) % modulus
                child_hash = (parent_hash + new_entry) % modulus
            else:
                new_entry = (old_entry * multiplier + event_hash) % modulus
                child_hash = (parent_hash - old_entry + new_entry) % modulus
            cells = list(entries)
            cells[position] = new_entry
            add_child(tuple(cells))
            append(child_hash)
    except IndexError:
        raise ValueError(
            "discovery stream names a parent it has not discovered yet or "
            "an event outside its vocabulary"
        ) from None
    return array("q", hashes[1:])


class PackedFrontier:
    """A window of packed frontier entries plus everything that reads or
    grows it (see the module docstring).

    ``arena`` (optional) is the engine's
    :class:`~repro.universe.arena.ArenaStore`; :meth:`row_matches`
    chain-walks it for candidates outside the window.  Shard workers
    pass none: their dedup is batch-local.

    ``window`` starts as the root entry at id 0 and is never rebound, so
    engines may hold it.  ``floor`` and ``count`` bound the ids
    :meth:`apply` and :meth:`expand` have seen: entries below ``floor``
    are dead and ``count`` is the next id :meth:`apply` assigns.
    """

    __slots__ = (
        "protocol",
        "max_events",
        "arena",
        "ordered",
        "index_of",
        "seed_of",
        "initial_steps",
        "window",
        "floor",
        "count",
        "entry_hash_of",
        "entry_prev_get",
        "interned",
        "enabled",
    )

    def __init__(self, protocol, max_events, arena=None) -> None:
        self.protocol = protocol
        self.max_events = max_events
        self.arena = arena
        ordered = self.ordered = protocol.ordered_processes
        self.index_of = {process: i for i, process in enumerate(ordered)}
        self.seed_of = {
            process: hash(process) % _HASH_MODULUS for process in ordered
        }
        # A custom-enabling protocol enumerates through its own override
        # and compiles no step-table entry.
        if protocol.has_custom_enabling:
            self.initial_steps = None
        else:
            steps_for = protocol.step_table.steps
            self.initial_steps = tuple(
                steps_for(process, ()) for process in ordered
            )
        empty: frozenset = frozenset()
        self.window: dict[int, tuple] = {
            0: (
                ((),) * len(ordered),
                hash(EMPTY_CONFIGURATION),
                empty,
                empty,
                self.initial_steps,
            )
        }
        self.floor = 0
        self.count = 1
        self.entry_hash_of: dict[int, int] = {}
        self.entry_prev_get = {}.get
        self.interned: dict[frozenset, frozenset] = {}
        self.enabled = self._enumeration()

    def _enumeration(self):
        """Build :attr:`enabled`, ``entry -> list of enabled events``.

        A closure over the protocol's tables, so the per-parent call
        reads cells instead of attributes.  Order: each process's local
        steps (the entry's step row) in ``ordered_processes`` order, then
        the receives; the protocol's enabling filter applies last, and a
        custom ``enabled_events`` override is authoritative.
        """
        protocol = self.protocol
        ordered = self.ordered
        selective = protocol.is_selective
        custom_enabling = protocol.has_custom_enabling
        enabling_filter = (
            protocol.filter_enabled_events if protocol.has_enabling_filter else None
        )
        receive_sets = protocol.receive_events_for
        selective_receives = protocol.selective_receive_events
        concatenated = chain.from_iterable

        def enabled(entry: tuple) -> list:
            if custom_enabling:
                return list(protocol.enabled_events(_transient(ordered, entry)))
            events = list(concatenated(entry[4]))
            in_flight = entry[3]
            if in_flight:
                if not selective:
                    events += receive_sets(in_flight)
                else:
                    items = {
                        process: history
                        for process, history in zip(ordered, entry[0])
                        if history
                    }
                    events += selective_receives(items.get, in_flight)
            if enabling_filter is not None:
                events = enabling_filter(_transient(ordered, entry), events)
            return events

        return enabled

    def transient(self, entry: tuple) -> Configuration:
        """A throwaway ``Configuration`` for the slow-path hooks."""
        return _transient(self.ordered, entry)

    # -- window maintenance ----------------------------------------------
    def rotate(self) -> None:
        """Start a new memo generation (at a BFS layer boundary): the
        previous generation stays readable for one more layer, and the
        frozenset intern table starts empty."""
        self.entry_prev_get = self.entry_hash_of.get
        self.entry_hash_of = {}
        self.interned = {}

    def canonicaliser(self):
        """A fresh ``event -> canonical event`` map for events another
        interpreter built (a shard worker's batch, the coordinator's
        merged stream, a checkpoint's vocabulary).  Each distinct object
        goes through :meth:`CompiledStepTable.intern
        <repro.universe.protocol.CompiledStepTable.intern>` once, so the
        rows, step-table lookups and arena vocabulary built from it hit
        identity.  The memo is keyed by object id: the caller keeps the
        events alive while it uses the map."""
        memo: dict[int, object] = {}
        memo_get = memo.get
        intern = self.protocol.step_table.intern

        def canonical(event):
            found = memo_get(id(event))
            if found is None:
                found = memo[id(event)] = intern(event)
            return found

        return canonical

    def load(self, arena, start: int, end: int) -> None:
        """Rebuild the window over ids ``[start, end)`` from ``arena``
        after a checkpoint resume, without a ``Configuration``.

        The arena's vocabulary is first swapped for this interpreter's
        canonical events.  Then one pass over the parent and event
        columns grows each id's row and message sets from its parent's,
        the way :meth:`child` does, keeping two BFS layers live (parent
        ids are non-decreasing, as in :func:`stream_hashes`); each
        window entry takes its content hash from the hash column.
        ``start`` is at least 1: a checkpoint commits no layer before
        the root's.  Call on a fresh frontier: its memo is empty, so it
        holds nothing the loaded tuples could alias."""
        arena.intern_events(self.canonicaliser())
        window = self.window
        window.clear()
        self.floor = start
        self.count = end
        if start == end:
            return  # a complete run: nothing is left to expand
        ordered = self.ordered
        intern = self.interned.setdefault
        steps_for = None if self.initial_steps is None else (
            self.protocol.step_table.steps
        )
        # Per event index: (event, row position, kind, message), kind 1
        # for a send, 2 for a receive, 0 otherwise.
        effects = []
        for event in arena.vocabulary:
            if isinstance(event, SendEvent):
                kind, message = 1, event.message
            elif isinstance(event, ReceiveEvent):
                kind, message = 2, event.message
            else:
                kind, message = 0, None
            effects.append((event, self.index_of[event.process], kind, message))
        empty: frozenset = frozenset()
        live = {0: (((),) * len(ordered), empty, empty)}
        floor = 0
        content_hash = arena.content_hash
        for first, parents, events in arena.parent_event_columns():
            if first >= end:
                break
            for index, parent_id, event_index in zip(
                range(first, end), parents, events
            ):
                if parent_id < 0:
                    continue  # the root
                while floor < parent_id:
                    live.pop(floor, None)
                    floor += 1
                row, received, in_flight = live[parent_id]
                event, position, kind, message = effects[event_index]
                cells = list(row)
                cells[position] = row[position] + (event,)
                row = tuple(cells)
                if kind == 1:
                    if message not in received:
                        in_flight = in_flight | {message}
                elif kind == 2:
                    received = received | {message}
                    in_flight = in_flight - {message}
                live[index] = (row, received, in_flight)
                if index >= start:
                    window[index] = (
                        row,
                        content_hash(index),
                        intern(received, received),
                        intern(in_flight, in_flight),
                        None if steps_for is None
                        else tuple(map(steps_for, ordered, row)),
                    )

    # -- one edge ----------------------------------------------------------
    def step(self, row: tuple, parent_hash: int, event):
        """The edge ``row --event-->`` as ``(position, child_row,
        new_entry, child_hash)``: the child's content hash is O(1) from
        the parent's through the rolling entry hashes, and ``child_row``
        is ``row`` with ``row[position]`` extended by ``event``."""
        process = event.process
        position = self.index_of[process]
        try:
            event_hash = event._hash_cache
        except AttributeError:
            event_hash = hash(event)
        old_history = row[position]
        if not old_history:
            new_entry = (
                self.seed_of[process] * _ROLL_MULTIPLIER + event_hash
            ) % _HASH_MODULUS
            child_hash = (parent_hash + new_entry) % _HASH_MODULUS
            new_history = (event,)
        else:
            key = id(old_history)
            memo = self.entry_hash_of
            old_entry = memo.get(key)
            if old_entry is None:
                old_entry = self.entry_prev_get(key)
                if old_entry is None:
                    old_entry = _entry_hash(process, old_history)
                memo[key] = old_entry
            new_entry = (old_entry * _ROLL_MULTIPLIER + event_hash) % _HASH_MODULUS
            child_hash = (parent_hash - old_entry + new_entry) % _HASH_MODULUS
            new_history = old_history + (event,)
        cells = list(row)
        cells[position] = new_history
        return position, tuple(cells), new_entry, child_hash

    def child(
        self,
        entry: tuple,
        event,
        position: int,
        child_row: tuple,
        new_entry: int,
        child_hash: int,
    ) -> tuple:
        """The window entry of a first-discovered child of ``entry``.

        Records the new history's entry hash (the write that keeps the
        identity-keyed memo alias-free), derives the child's message
        sets from the parent's interned ones — exactly the lazy
        ``Configuration`` definitions, including the degenerate re-send
        of an already-received message — and replaces the one slot of
        the parent's step row that ``event`` changed.
        """
        new_history = child_row[position]
        self.entry_hash_of[id(new_history)] = new_entry
        _, _, received, in_flight, steps = entry
        if isinstance(event, SendEvent):
            message = event.message
            if message not in received:
                in_flight = in_flight | {message}
                in_flight = self.interned.setdefault(in_flight, in_flight)
        elif isinstance(event, ReceiveEvent):
            message = event.message
            intern = self.interned.setdefault
            received = received | {message}
            received = intern(received, received)
            in_flight = in_flight - {message}
            in_flight = intern(in_flight, in_flight)
        if steps is not None:
            cells = list(steps)
            cells[position] = self.protocol.step_table.steps(
                event.process, new_history
            )
            steps = tuple(cells)
        return child_row, child_hash, received, in_flight, steps

    def row_matches(self, candidate_id: int, child_row: tuple) -> bool:
        """Whether configuration ``candidate_id`` has the row ``child_row``.

        Same-depth duplicates always live in the window; a candidate
        outside it is a rare cross-layer content-hash collision, read by
        chain-walking the arena's packed columns.  Either way it is one
        tuple compare in C, whose elements are mostly identity hits.
        """
        entry = self.window.get(candidate_id)
        if entry is not None:
            return entry[0] == child_row
        history_of = self.arena[candidate_id]._histories.get
        return tuple(history_of(process, ()) for process in self.ordered) == child_row

    # -- engines' bulk operations -------------------------------------------
    def apply(self, records, progress=None, progress_every: int = 0) -> None:
        """Replay a merged discovery stream ``[(parent_id, event), ...]``
        into window entries.

        Parent ids are non-decreasing in any discovery stream, so entries
        strictly below the current parent are dropped as the replay
        advances — the window floor — and a full-stream replay after a
        respawn still peaks at one layer of rows.  Rotates the memo
        generation first, and again wherever the stream crosses a BFS
        layer (a parent this call itself created).
        """
        window = self.window
        step = self.step
        child = self.child
        floor = self.floor
        count = self.count
        since_progress = 0
        canonical = self.canonicaliser()
        self.rotate()
        boundary = count
        for parent_id, event in records:
            event = canonical(event)
            if parent_id >= boundary:
                boundary = count
                self.rotate()
            while floor < parent_id:
                window.pop(floor, None)
                floor += 1
            entry = window[parent_id]
            window[count] = child(
                entry, event, *step(entry[0], entry[1], event)
            )
            count += 1
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
        self.floor = floor
        self.count = count

    def expand(
        self,
        layer_start: int,
        layer_end: int,
        shard: int,
        shards: int,
        progress=None,
        progress_every: int = 0,
    ):
        """Expand the parents of layer ``[layer_start, layer_end)`` whose
        content hash is ``shard`` modulo ``shards``.

        Returns ``(records, incomplete)``: per owned parent, in ascending
        id order, ``(parent_id, edges)`` where ``edges`` is ``None`` for a
        ``max_events``-capped parent, else a list whose elements are
        either an ``int`` (duplicate of the batch-local candidate with
        that index) or ``(event, child_hash)`` (candidate-new edge, first
        local discovery).  ``incomplete`` is True iff a capped parent
        still had enabled events (the kernel's completeness rule).

        Dedup is layer-local — every edge adds one event, so duplicates
        collide within a layer — and compares candidate rows, never
        hashes alone.  ``progress`` (if given) is
        invoked every ``progress_every`` *owned* parents: the worker-side
        heartbeat hook.
        """
        window = self.window
        # Entries below the frontier are dead (their children are built).
        floor = self.floor
        while floor < layer_start:
            window.pop(floor, None)
            floor += 1
        self.floor = floor
        max_events = self.max_events
        compiled_enabled = self.protocol.compiled_enabled_events
        enabled = self.enabled
        step = self.step
        # Every BFS edge appends one event, so the layer depth is any
        # frontier member's total event count.
        capped = (
            max_events is not None
            and layer_start < layer_end
            and sum(map(len, window[layer_start][0])) >= max_events
        )
        records = []
        incomplete = False
        candidates = 0
        since_progress = 0
        # Batch-local candidate table: child_hash -> [(index, row)].
        layer_candidates: dict[int, list] = {}
        for parent_id in range(layer_start, layer_end):
            entry = window[parent_id]
            row, parent_hash = entry[0], entry[1]
            if parent_hash % shards != shard:
                continue
            if progress is not None:
                since_progress += 1
                if since_progress >= progress_every:
                    since_progress = 0
                    progress()
            if capped:
                if compiled_enabled(self.transient(entry)):
                    incomplete = True
                records.append((parent_id, None))
                continue
            edges: list = []
            for event in enabled(entry):
                _, child_row, _, child_hash = step(row, parent_hash, event)
                bucket = layer_candidates.get(child_hash)
                if bucket is None:
                    bucket = layer_candidates[child_hash] = []
                else:
                    for candidate_index, candidate_row in bucket:
                        if candidate_row == child_row:
                            break
                    else:
                        candidate_index = None
                    if candidate_index is not None:
                        edges.append(candidate_index)
                        continue
                bucket.append((candidates, child_row))
                edges.append((event, child_hash))
                candidates += 1
            records.append((parent_id, edges))
        return records, incomplete


__all__ = ["PackedFrontier"]

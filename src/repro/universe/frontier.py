"""The packed frontier: the one hot representation every engine expands.

The one BFS layer driver (:meth:`repro.universe.explorer.Universe._explore`)
builds one :class:`PackedFrontier` per exploration and hands it to the
layer body of either engine: the in-process kernel's
(:meth:`~repro.universe.explorer.Universe._expand_layer`) or the sharded
coordinator's (:mod:`repro.universe.sharded`), whose workers each hold
their own.  Every one of them keeps the configurations it is about to
expand in a window of packed entries

    ``id -> (row, content_hash, received, in_flight)``

The paper's §2 gives a process as its prefix-closed set of local
histories and a configuration as one history per process, and a row is
exactly that: a fixed-width tuple, in ``ordered_processes`` order, of
:class:`State` objects, one per ``(process, history)`` the exploration
reached.  The frontier interns its states by history value, so two rows
are equal iff they hold the same state objects, and a row compare is a C
tuple compare that never leaves identity.  The two message frozensets
are interned per layer, so siblings with equal channel contents share
one set object.

A state carries everything its history fixes:

* its *contribution* to the content hash: 0 for the empty history, else
  the rolling entry hash of :func:`repro.core.configuration._entry_hash`;
* its *moves*, one descriptor per outgoing local step, compiled from the
  step table the first time a row holding the state is expanded;
* a memo of its *transitions* by canonical event, receives included.

A move is ``(position, next_state, delta, event, kind, message)``, where
``delta = (next.contribution - contribution) mod _HASH_MODULUS``, so the
child's content hash is the parent's plus ``delta``, reduced by one
conditional subtract (both terms lie below the modulus).  ``kind`` is 1
for a send, 2 for a receive and 0 otherwise, and ``message`` is the
one-element frozenset of the event's message (``None`` for an internal
event): the child's message sets are set algebra on it (``in_flight |
message``, ``message.isdisjoint(received)``), which reads the hashes the
sets already store and calls no ``Message.__hash__``.  Enumerating a
parent's moves is one C-level concatenation of its states' move tuples
plus, per in-flight set, a receive plan (the receivers' row positions
and memo keys) read through C-level ``map`` calls, so no edge hashes a
history, and the step table is asked once per state.

Every transition memo is keyed by the ``id`` of a *canonical* event, the
step table's one object for that value (:meth:`CompiledStepTable.intern
<repro.universe.protocol.CompiledStepTable.intern>`), and the move it
maps to holds that event, so no key can outlive its object.  Events
that arrive from elsewhere (the checkpoint vocabulary, a shard worker's
batch, a custom ``enabled_events`` override, an enabling filter's
output) are mapped to the canonical object first.  Identity is only
ever a shortcut: a state's successor is looked up by history value in
the frontier's per-process table before a new state is made.

Only the unfiltered, non-custom enumeration compiles a state's moves
in full; the enabling filter and custom enabling resolve the surviving
events' transitions one at a time, so every state the frontier makes
is a history of some configuration it discovers, in order of first
discovery (``tests/test_universe_states.py`` holds the states equal to
``Universe.class_histories``).

The frontier is the one place that knows this format: the per-protocol
constants, the enabled-move enumeration (:attr:`PackedFrontier.enabled`),
the edge step (:meth:`~PackedFrontier.step`), the child's entry
(:meth:`~PackedFrontier.child`), the collision-aware row comparison
(:meth:`~PackedFrontier.row_matches`), the checkpoint replay's
object-free child hashes (:func:`stream_hashes`, which walks the
same view with a row packed into one ``int`` of per-process state
labels and no ``State`` object), the resume rebuild
(:meth:`~PackedFrontier.load`), replay of a merged discovery stream
(:meth:`~PackedFrontier.apply`) and shard expansion
(:meth:`~PackedFrontier.expand`).  The kernel's layer body inlines the
per-edge work of :meth:`~PackedFrontier.step` and
:meth:`~PackedFrontier.child`, because that loop is the hot path and
makes no Python-level call per edge; it calls
:meth:`~PackedFrontier.row_matches` only for a candidate outside the
window (a cross-layer content-hash collision), and hands each layer's
first discoveries to the arena in one bulk
:meth:`~repro.universe.arena.ArenaStore.extend_children`.  Every child
row is a one-cell replacement, ``cells = list(row); cells[position] =
state; tuple(cells)``: one list and one tuple per row.

States live for one exploration and are never pickled: each shard
worker interns its own, and what crosses a process boundary is events
and content hashes.  No ``Configuration`` is built on the hot path:
:meth:`PackedFrontier.transient` materialises a throwaway one only for
the slow-path hooks (custom enabling, enabling filters, ``max_events``
probes).
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import attrgetter

from repro.core.configuration import (
    _HASH_MODULUS,
    _ROLL_MULTIPLIER,
    EMPTY_CONFIGURATION,
    Configuration,
)
from repro.core.errors import ProtocolError
from repro.core.events import ReceiveEvent, SendEvent
from repro.universe.protocol import _RECEIVE_SET_CACHE_MAX_ENTRIES


class State:
    """One process's local history within one exploration (see the
    module docstring).  ``steps`` (the step table's local steps) and
    ``moves`` are ``None`` until first read, and ``transitions`` maps
    ``id(canonical event)`` to its move."""

    __slots__ = (
        "history",
        "position",
        "contribution",
        "steps",
        "moves",
        "transitions",
    )

    def __init__(self, history: tuple, position: int, contribution: int) -> None:
        self.history = history
        self.position = position
        self.contribution = contribution
        self.steps: tuple | None = None
        self.moves: tuple | None = None
        self.transitions: dict[int, tuple] = {}


def _transient(ordered, entry: tuple) -> Configuration:
    """A throwaway ``Configuration`` of one window entry."""
    row, content_hash, received, in_flight = entry
    items = {
        process: state.history
        for process, state in zip(ordered, row)
        if state.history
    }
    configuration = Configuration._from_trusted(items, content_hash, None)
    cache = configuration.__dict__
    cache["received_messages"] = received
    cache["in_flight_messages"] = in_flight
    return configuration


def stream_hashes(ordered, parents, events, vocabulary) -> array:
    """The content hash of every child a discovery stream discovers.

    The stream is given as columns over the root at id 0: child ``k``
    (id ``k + 1``) is ``vocabulary[events[k]]`` on ``parents[k]``.

    A live configuration is one ``int`` row: one fixed-width field per
    process in ``ordered``, holding a label for that process's history,
    0 for the empty one.  A history is named by its parent history's
    label and its last event, so each ``(label, event index)`` pair is
    one transition, memoised the first time the stream takes it under
    the key ``label * len(vocabulary) + event index``: it makes the next
    label, and its value holds the row delta ``(new - label) << shift``
    and the content-hash delta, the rolling entry hash of
    :func:`repro.core.configuration._entry_hash` after the event minus
    the one before (0 before the first event), reduced mod
    ``_HASH_MODULUS``.  A stream makes at most one label per record, so
    a field of ``(len(parents) + 1).bit_length()`` bits never overflows.
    A child then costs one shift-and-mask, one dict probe, two int adds
    and one conditional subtract: no history tuple, row copy,
    ``Configuration`` or modular multiply.  Parent ids are
    non-decreasing and every edge adds one event, so only two BFS layers
    of rows are live: the parents' and the one they build.
    """
    if len(events) and min(events) < 0:
        raise ValueError(_OUTSIDE_STREAM)
    modulus = _HASH_MODULUS
    width = (len(parents) + 1).bit_length()
    mask = (1 << width) - 1
    size = len(vocabulary)
    index_of = {process: i for i, process in enumerate(ordered)}
    shifts = [index_of[event.process] * width for event in vocabulary]
    # Per (label, event index) key: (row delta, content-hash delta); per
    # label: its rolling entry hash.
    memo: dict[int, tuple[int, int]] = {}
    entry_hashes = [0]
    # Content hashes by id, the root's first; rows of the two live layers.
    hashes = [hash(EMPTY_CONFIGURATION)]
    append = hashes.append
    parent_rows = [0]
    parents_start = 0
    children: list[int] = []
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
            row = parent_rows[parent_id - parents_start]
            shift = shifts[event_index]
            key = (row >> shift & mask) * size + event_index
            try:
                row_delta, hash_delta = memo[key]
            except KeyError:
                row_delta, hash_delta = memo[key] = _label_transition(
                    entry_hashes, row >> shift & mask, shift,
                    vocabulary[event_index], modulus,
                )
            add_child(row + row_delta)
            child_hash = hashes[parent_id] + hash_delta
            if child_hash >= modulus:
                child_hash -= modulus
            append(child_hash)
    except IndexError:
        raise ValueError(_OUTSIDE_STREAM) from None
    return array("q", hashes[1:])


_OUTSIDE_STREAM = (
    "discovery stream names a parent it has not discovered yet or "
    "an event outside its vocabulary"
)


def _label_transition(entry_hashes, label, shift, event, modulus):
    """The ``(row delta, content-hash delta)`` of :func:`stream_hashes`'s
    first step from ``label`` by ``event``; the successor's label is the
    next free one and its entry hash goes into ``entry_hashes``."""
    old = entry_hashes[label]
    base = old if label else hash(event.process) % modulus
    new = (base * _ROLL_MULTIPLIER + hash(event)) % modulus
    successor = len(entry_hashes)
    entry_hashes.append(new)
    return (successor - label) << shift, (new - old) % modulus


class PackedFrontier:
    """A window of packed frontier entries, the states its rows hold, and
    everything that reads or grows them (see the module docstring).

    ``arena`` (optional) is the engine's
    :class:`~repro.universe.arena.ArenaStore`; :meth:`row_matches`
    chain-walks it for candidates outside the window.  Shard workers
    pass none: their dedup is batch-local.

    ``states[position]`` maps each history of that row position's
    process to its one :class:`State`, in order of creation.  ``window``
    starts as the root entry at id 0 and is never rebound, so engines
    may hold it.  ``floor`` and ``count`` bound the ids :meth:`apply`
    and :meth:`expand` have seen: entries below ``floor`` are dead and
    ``count`` is the next id :meth:`apply` assigns.
    """

    __slots__ = (
        "protocol",
        "max_events",
        "arena",
        "ordered",
        "index_of",
        "states",
        "window",
        "floor",
        "count",
        "interned",
        "enabled",
    )

    def __init__(self, protocol, max_events, arena=None) -> None:
        self.protocol = protocol
        self.max_events = max_events
        self.arena = arena
        ordered = self.ordered = protocol.ordered_processes
        self.index_of = {process: i for i, process in enumerate(ordered)}
        self.states: list[dict[tuple, State]] = [
            {(): State((), position, 0)} for position in range(len(ordered))
        ]
        empty: frozenset = frozenset()
        self.window: dict[int, tuple] = {
            0: (
                tuple(table[()] for table in self.states),
                hash(EMPTY_CONFIGURATION),
                empty,
                empty,
            )
        }
        self.floor = 0
        self.count = 1
        self.interned: dict[frozenset, frozenset] = {}
        self.enabled = self._enumeration()

    # -- states --------------------------------------------------------------
    def transition(self, state: State, event) -> tuple:
        """The move of ``state`` by ``event``, which must be canonical
        (:meth:`CompiledStepTable.intern
        <repro.universe.protocol.CompiledStepTable.intern>`), from the
        state's memo or made and memoised here.  The successor is the
        frontier's one state for the extended history; its contribution
        is the rolling entry hash, and ``_HASH_MODULUS`` is read now, so
        a patched modulus reaches every delta of the exploration."""
        move = state.transitions.get(id(event))
        if move is None:
            modulus = _HASH_MODULUS
            history = state.history + (event,)
            table = self.states[state.position]
            successor = table.get(history)
            if successor is None:
                base = (
                    state.contribution
                    if state.history
                    else hash(event.process) % modulus
                )
                successor = table[history] = State(
                    history,
                    state.position,
                    (base * _ROLL_MULTIPLIER + hash(event)) % modulus,
                )
            if isinstance(event, SendEvent):
                kind, message = 1, frozenset((event.message,))
            elif isinstance(event, ReceiveEvent):
                kind, message = 2, frozenset((event.message,))
            else:
                kind, message = 0, None
            move = state.transitions[id(event)] = (
                state.position,
                successor,
                (successor.contribution - state.contribution) % modulus,
                event,
                kind,
                message,
            )
        return move

    def _local_steps(self, state: State) -> tuple:
        """``state``'s local step events, asked of the step table once."""
        steps = state.steps
        if steps is None:
            steps = state.steps = self.protocol.step_table.steps(
                self.ordered[state.position], state.history
            )
        return steps

    def _compile(self, state: State) -> None:
        """Compile ``state``'s local moves, in the step table's order."""
        transition = self.transition
        state.moves = tuple(
            [transition(state, event) for event in self._local_steps(state)]
        )

    def _enumeration(self):
        """Build :attr:`enabled`, ``entry -> list of enabled moves``.

        A closure over the protocol's tables, so the per-parent call
        reads cells instead of attributes.  Order: each process's local
        moves in ``ordered_processes`` order, then the receives in
        ``receive_events_for`` order (or the selective order); the
        protocol's enabling filter applies last, and a custom
        ``enabled_events`` override is authoritative.  Only the
        unfiltered enumeration compiles whole move tuples; the other two
        resolve each enabled event's transition on its own.
        """
        protocol = self.protocol
        ordered = self.ordered
        index_of = self.index_of
        transition = self.transition
        if protocol.has_custom_enabling:
            intern = protocol.step_table.intern
            custom_enabled = protocol.enabled_events

            def custom(entry: tuple) -> list:
                row = entry[0]
                return [
                    transition(row[index_of[event.process]], intern(event))
                    for event in custom_enabled(_transient(ordered, entry))
                ]

            return custom
        selective = protocol.is_selective
        receive_sets = protocol.receive_events_for
        selective_receives = protocol.selective_receive_events

        def receives(entry: tuple):
            """The entry's canonical receive events, in enumeration order."""
            in_flight = entry[3]
            if not in_flight:
                return ()
            if not selective:
                return receive_sets(in_flight)
            history_of = {
                process: state.history for process, state in zip(ordered, entry[0])
            }.get
            return selective_receives(history_of, in_flight)

        if protocol.has_enabling_filter:
            enabling_filter = protocol.filter_enabled_events
            local_steps = self._local_steps

            def filtered(entry: tuple) -> list:
                row = entry[0]
                events = list(chain.from_iterable(map(local_steps, row)))
                events += receives(entry)
                moves = []
                cursor = 0
                # The filter keeps an order-preserving subsequence, so one
                # pass finds each kept event's canonical original.
                try:
                    for event in enabling_filter(_transient(ordered, entry), events):
                        while not (
                            events[cursor] is event or events[cursor] == event
                        ):
                            cursor += 1
                        event = events[cursor]
                        cursor += 1
                        moves.append(transition(row[index_of[event.process]], event))
                except IndexError:
                    raise ProtocolError(
                        "filter_enabled_events must return an order-preserving "
                        "subsequence of the events it is given"
                    ) from None
                return moves

            return filtered
        concatenated = chain.from_iterable
        moves_of = attrgetter("moves")
        compile_moves = self._compile

        def all_moves(entry: tuple) -> list:
            """Compile the row's uncompiled states, then enumerate."""
            row = entry[0]
            for state in row:
                if state.moves is None:
                    compile_moves(state)
            moves = list(concatenated(map(moves_of, row)))
            moves += [
                transition(row[index_of[event.process]], event)
                for event in receives(entry)
            ]
            return moves

        if selective:
            return all_moves
        # Per in-flight set: the receivers' row positions, the memo keys
        # and the canonical receive events, which keep the keys' objects
        # alive.
        plans: dict[frozenset, tuple] = {}
        transitions_of = attrgetter("transitions")
        memoised = dict.__getitem__

        def planned(entry: tuple) -> list:
            """:func:`enabled` when a state has not compiled its moves, an
            in-flight set has no plan, or a receive is not memoised yet."""
            in_flight = entry[3]
            if in_flight and len(plans) < _RECEIVE_SET_CACHE_MAX_ENTRIES:
                events = receive_sets(in_flight)
                plans[in_flight] = (
                    tuple([index_of[event.process] for event in events]),
                    tuple(map(id, events)),
                    events,
                )
            return all_moves(entry)

        def enabled(entry: tuple) -> list:
            row, _, _, in_flight = entry
            try:
                moves = list(concatenated(map(moves_of, row)))
                if in_flight:
                    positions, keys, _ = plans[in_flight]
                    moves += map(
                        memoised,
                        map(transitions_of, map(row.__getitem__, positions)),
                        keys,
                    )
                return moves
            except (TypeError, KeyError):
                return planned(entry)

        return enabled

    def transient(self, entry: tuple) -> Configuration:
        """A throwaway ``Configuration`` for the slow-path hooks."""
        return _transient(self.ordered, entry)

    # -- window maintenance ----------------------------------------------
    def new_layer(self) -> None:
        """Start a BFS layer: the frozenset intern table starts empty, so
        it holds only the current layers' message sets."""
        self.interned = {}

    def canonicaliser(self):
        """A fresh ``event -> canonical event`` map for events another
        interpreter built (a shard worker's batch, the coordinator's
        merged stream, a checkpoint's vocabulary).  Each distinct object
        goes through :meth:`CompiledStepTable.intern
        <repro.universe.protocol.CompiledStepTable.intern>` once, so the
        rows, transitions and arena vocabulary built from it hit
        identity.  The memo is keyed by object id and keeps each object
        it has seen alive, so no key can be reused while it lives."""
        memo: dict[int, tuple] = {}
        memo_get = memo.get
        intern = self.protocol.step_table.intern

        def canonical(event):
            found = memo_get(id(event))
            if found is None:
                found = memo[id(event)] = (event, intern(event))
            return found[1]

        return canonical

    def load(self, arena, start: int, end: int) -> None:
        """Rebuild the window over ids ``[start, end)`` from ``arena``
        after a checkpoint resume, without a ``Configuration``.

        The arena's vocabulary is first swapped for this interpreter's
        canonical events.  Then one pass over the parent and event
        columns grows each id's row of states and message sets from its
        parent's through :meth:`transition`, the way :meth:`child` does,
        keeping two BFS layers live (parent ids are non-decreasing, as
        in :func:`stream_hashes`); each window entry takes its content
        hash from the hash column.  ``start`` is at least 1: a
        checkpoint commits no layer before the root's."""
        arena.intern_events(self.canonicaliser())
        window = self.window
        window.clear()
        self.floor = start
        self.count = end
        if start == end:
            return  # a complete run: nothing is left to expand
        index_of = self.index_of
        transition = self.transition
        intern = self.interned.setdefault
        # Per event index: (row position, event).
        effects = [(index_of[event.process], event) for event in arena.vocabulary]
        empty: frozenset = frozenset()
        live = {0: (tuple(table[()] for table in self.states), empty, empty)}
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
                position, event = effects[event_index]
                position, successor, _, _, kind, message = transition(
                    row[position], event
                )
                cells = list(row)
                cells[position] = successor
                row = tuple(cells)
                if kind == 1:
                    if message.isdisjoint(received):
                        in_flight = in_flight | message
                elif kind == 2:
                    received = received | message
                    in_flight = in_flight - message
                live[index] = (row, received, in_flight)
                if index >= start:
                    window[index] = (
                        row,
                        content_hash(index),
                        intern(received, received),
                        intern(in_flight, in_flight),
                    )

    # -- one edge ----------------------------------------------------------
    def step(self, row: tuple, parent_hash: int, event):
        """The edge ``row --event-->`` for a canonical ``event``, as
        ``(move, child_row, child_hash)``: the child's content hash is
        the parent's plus the move's delta, and ``child_row`` is ``row``
        with the event's process moved to the successor state."""
        state = row[self.index_of[event.process]]
        move = state.transitions.get(id(event))
        if move is None:
            move = self.transition(state, event)
        cells = list(row)
        cells[move[0]] = move[1]
        return move, tuple(cells), (parent_hash + move[2]) % _HASH_MODULUS

    def child(
        self, entry: tuple, move: tuple, child_row: tuple, child_hash: int
    ) -> tuple:
        """The window entry of a first-discovered child of ``entry`` by
        ``move``: its message sets derive from the parent's interned
        ones, exactly the lazy ``Configuration`` definitions, including
        the degenerate re-send of an already-received message."""
        _, _, received, in_flight = entry
        kind = move[4]
        if kind == 1:
            message = move[5]
            if message.isdisjoint(received):
                in_flight = in_flight | message
                in_flight = self.interned.setdefault(in_flight, in_flight)
        elif kind == 2:
            message = move[5]
            intern = self.interned.setdefault
            received = received | message
            received = intern(received, received)
            in_flight = in_flight - message
            in_flight = intern(in_flight, in_flight)
        return child_row, child_hash, received, in_flight

    def row_matches(self, candidate_id: int, child_row: tuple) -> bool:
        """Whether configuration ``candidate_id`` has the row ``child_row``.

        Same-depth duplicates always live in the window, where rows are
        equal iff they hold the same states: one tuple compare in C.  A
        candidate outside it is a rare cross-layer content-hash
        collision, read by chain-walking the arena's packed columns and
        compared by history.
        """
        entry = self.window.get(candidate_id)
        if entry is not None:
            return entry[0] == child_row
        history_of = self.arena[candidate_id]._histories.get
        return all(
            history_of(process, ()) == state.history
            for process, state in zip(self.ordered, child_row)
        )

    # -- engines' bulk operations -------------------------------------------
    def apply(self, records, progress=None, progress_every: int = 0) -> None:
        """Replay a merged discovery stream ``[(parent_id, event), ...]``
        into window entries.

        Parent ids are non-decreasing in any discovery stream, so entries
        strictly below the current parent are dropped as the replay
        advances — the window floor — and a full-stream replay after a
        respawn still peaks at one layer of rows.  Starts a new layer of
        message-set interning first, and again wherever the stream
        crosses a BFS layer (a parent this call itself created).
        """
        window = self.window
        step = self.step
        child = self.child
        floor = self.floor
        count = self.count
        since_progress = 0
        canonical = self.canonicaliser()
        self.new_layer()
        boundary = count
        for parent_id, event in records:
            if parent_id >= boundary:
                boundary = count
                self.new_layer()
            while floor < parent_id:
                window.pop(floor, None)
                floor += 1
            entry = window[parent_id]
            window[count] = child(
                entry, *step(entry[0], entry[1], canonical(event))
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
        modulus = _HASH_MODULUS
        # Every BFS edge appends one event, so the layer depth is any
        # frontier member's total event count.
        capped = (
            max_events is not None
            and layer_start < layer_end
            and sum(len(state.history) for state in window[layer_start][0])
            >= max_events
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
            for position, successor, delta, event, _, _ in enabled(entry):
                child_hash = (parent_hash + delta) % modulus
                cells = list(row)
                cells[position] = successor
                child_row = tuple(cells)
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

__all__ = ["PackedFrontier", "State"]

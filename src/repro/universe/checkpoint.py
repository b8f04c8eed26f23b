"""Durable checkpoint/resume for universe exploration.

Long explorations (star n=8 is ~20 s, n=9 is ~11 min and ~26 GB) are
lost in their entirety when the process dies — OOM kill, ^C, a worker
crash that exhausts recovery.  This module makes exploration *resumable*
at BFS layer boundaries, for both the in-process kernel and the sharded
engine, with one on-disk format shared by both — and makes the
checkpoint itself survive the failure modes long runs actually hit:
whole-process SIGKILL mid-save, torn writes, and bit-flipped files.

Design: the checkpoint does **not** store configurations or hashes.  It
stores the *merged discovery stream* — each first discovery in global
BFS order as its parent's dense id plus one event, the arena's own
``(parent id, event index)`` columns — plus the CSR successor arrays
(dense ids only) and the completeness flag.  Replaying the stream into
the arena (:meth:`repro.universe.arena.ArenaStore.replay`)
rebuilds the packed configuration columns and the content-hash id table
(including collision-bucket layout) *exactly*, so exploration continues
from the first unexpanded layer as if it had never stopped; the finished universe
is bit-identical to an uninterrupted run (asserted in
``tests/test_universe_checkpoint.py`` and, across whole-process SIGKILLs,
in ``tests/test_universe_chaos.py``).

Because hashes are recomputed at load time, a checkpoint is **portable
across interpreter hash seeds** — unlike the live sharded exchange,
which ships raw content hashes and needs ``hash_domain_token`` to match.
The compatibility token therefore covers what replay genuinely depends
on: the format version, the protocol identity (class and process set)
and the ``max_events`` bound.

On-disk format (manifest version 2, segment payload version 3)
--------------------------------------------------------------

Checkpoints have one writer.  The format is a **manifest plus
append-only per-layer delta segments**, so a save writes O(new layers),
not O(stream):

* ``PATH`` is the *manifest*: magic ``REPRO-CKPT2\\n``, a CRC-32, and a
  compressed pickle of ``{token, layers, frontier_start, count,
  complete, generation, segments: [...]}`` — small (metadata only),
  always written atomically (tmp + fsync + ``os.replace``);
* each committed save appends one *segment* file
  (``PATH.g<generation>-<index>.seg``): segment magic, a CRC-guarded
  header (layer range, frontier, cumulative count/completeness), and a
  CRC-guarded compressed payload holding that save's **delta**, the
  configurations and CSR slice appended since the previous save.  The
  header's ``version`` names the payload layout.  Version 3, the one
  this build writes, is a slice of the arena's columns: ``parents`` (an
  ``array('q')`` as bytes), ``events`` (an ``array('i')`` as bytes,
  indexing the segment's own ``vocabulary``), ``vocabulary`` (the
  distinct events the segment uses, in first-use order, pickled from
  value-canonical copies, :func:`_canonical_vocabulary`) and the CSR
  slices ``succ_ids``/``succ_offsets``, so a segment's bytes are a
  function of its decoded content, whichever engine or interpreter
  wrote it.  Every segment verifies on its own: its column lengths must
  equal each other and the header's ``records``, and every event index
  must fall inside its vocabulary;
* version-2 segments (one pickled ``(parent_id, event)`` record per
  configuration) still read: one adapter turns their records into the
  same per-segment columns, and a checkpoint resumed from version-2
  segments carries on in version 3 (a mixed file, which compaction
  folds into one version-3 segment);
* resume concatenates the segment deltas (CSR arrays and the parent
  column by concatenation, event indices through a vocabulary merged by
  value in first-appearance order), verifies every CRC on the way, and
  replays the columns into the arena in bulk;
* when the segment count exceeds :data:`DEFAULT_COMPACT_SEGMENTS` the
  session *compacts*: folds all committed segments into one under a new
  generation, commits the manifest, then deletes the old files — so the
  file count is bounded and the fold cost is amortised over the
  compaction interval.  ``repro checkpoint compact PATH``
  (:func:`compact_checkpoint`) runs the same fold offline.

A file with the version-1 magic ``REPRO-CKPT\\n`` (the retired
single-blob format) is recognised and rejected with a
:class:`CheckpointError` naming its version; nothing in this package
writes or reads it any more.

**Crash anatomy.**  The manifest is the commit point.  A crash after the
segment append but before the manifest replace leaves an *orphan*
segment the manifest never references — discarded (and logged) on
resume.  A crash mid-manifest-write is impossible to observe thanks to
``os.replace``.  A bit flip or truncation inside a committed segment is
caught by its CRC: resume **salvages** the longest valid prefix,
truncating to the last intact layer boundary, records the event on the
universe's ``recovery_log``, and re-explores the lost tail —
``strict=True`` (``repro explore --strict``) turns salvage into a loud
:class:`CheckpointError` instead, and ``repro checkpoint verify PATH``
reports per-segment integrity with a non-zero exit on any damage.

**The writer thread.**  Every save runs on a dedicated writer thread:
``save`` snapshots the delta synchronously (the new configurations'
column slices are copied off the arena and the CSR slices with
``tobytes()``) and returns, so the exploration thread never waits on
compression or ``fsync``.  Crash safety rests on *ordering*: jobs drain
FIFO through one writer, each job appends its segment (write + fsync)
before the manifest replace, and the manifest replace remains the only
commit point.  A crash at any moment therefore leaves either the previous
manifest (plus discardable orphan segments) or the new one — exactly
the two states the resume path already heals.  ``flush()`` blocks until
the queue drains; the final save flushes implicitly, so a completed
exploration always returns with its checkpoint committed, and
compaction only runs against a drained queue.  A writer-thread failure
is sticky: the stored exception re-raises on the next ``save``/
``flush`` on the exploration thread.  The ``stall_write`` fault kind
makes the writer sleep *inside* the append→commit window, giving the
chaos harness a deterministic target for SIGKILL-mid-background-write.

The module also hosts the RSS watchdog used by ``--rss-budget``: rather
than being OOM-killed mid-layer (losing the run *and* the checkpoint
window), exploration that crosses the budget degrades to the
``on_limit="truncate"`` behaviour at the next layer boundary — the
partial universe is flagged incomplete, the checkpoint survives, and a
resume on a bigger machine finishes the job.  On hosts without a
readable ``/proc`` the watchdog deactivates with a one-time warning
(surfaced as :attr:`RssWatchdog.active`) instead of silently arming a
check that can never fire.
"""

from __future__ import annotations

import os
import pickle
import re
import threading
import time
import warnings
import zlib
from array import array
from collections import deque
from operator import is_
from pathlib import Path

from repro.core.errors import UniverseError
from repro.core.events import Event, Message
from repro.universe.arena import (
    _event_indices,
    compress_batch,
    decompress_batch,
    record_columns,
)
from repro.universe.fileops import DEFAULT_FILEOPS
from repro.universe.recovery import RecoveryLog
from repro.universe.retry import (
    DEFAULT_RETRY_POLICY,
    classify_storage_error,
    retry_io,
)

MANIFEST_MAGIC = b"REPRO-CKPT2\n"
"""Version-2 (segmented) manifest magic."""

SEGMENT_MAGIC = b"RSEG"
"""Leading magic of every segment file."""

CHECKPOINT_VERSION = 2
"""The manifest format version this build writes and reads."""

SEGMENT_VERSION = 3
"""The segment payload layout this build writes (column slices); a
segment header's ``version`` names its layout, and version-2 segments
(one pickled record per configuration) still read."""

DEFAULT_COMPACT_SEGMENTS = 64
"""Compaction threshold: when a manifest references more committed
segments than this, the session folds them into a single segment under a
new generation.  The fold costs O(stream) but runs once per threshold
saves, so steady-state save cost stays O(delta) amortised."""


class CheckpointError(UniverseError):
    """A checkpoint file is unreadable, corrupt, or incompatible with
    the exploration it was asked to resume.

    ``format_version`` is the version named by the file's magic line
    when the file was read that far, else ``None``."""

    def __init__(self, message: str, format_version: int | None = None):
        super().__init__(message)
        self.format_version = format_version


def compatibility_token(protocol, max_events) -> tuple:
    """What a checkpoint's replay actually depends on.

    The discovery stream is replayed through the protocol's step tables,
    so the protocol identity (class and ordered process set) and the
    ``max_events`` bound must match; content hashes are *recomputed* at
    load time, so the interpreter hash seed need not.
    """
    return (
        CHECKPOINT_VERSION,
        type(protocol).__qualname__,
        tuple(protocol.ordered_processes),
        max_events,
    )


def _parse_version(raw: bytes) -> int:
    """The format version encoded in the magic line, or raise.

    ``REPRO-CKPT\\n`` is version 1; ``REPRO-CKPT<digits>\\n`` is that
    version.  Anything else is not a repro checkpoint.
    """
    prefix = b"REPRO-CKPT"
    if not raw.startswith(prefix):
        raise CheckpointError("not a repro checkpoint file (bad magic header)")
    newline = raw.find(b"\n", len(prefix), len(prefix) + 8)
    if newline < 0:
        raise CheckpointError("not a repro checkpoint file (bad magic header)")
    digits = raw[len(prefix):newline]
    if digits == b"":
        return 1
    if digits.isdigit():
        return int(digits)
    raise CheckpointError("not a repro checkpoint file (bad magic header)")


def _read_manifest(
    path: Path,
    fileops=DEFAULT_FILEOPS,
    policy=DEFAULT_RETRY_POLICY,
    on_retry=None,
) -> dict:
    """Read, version-check, CRC-verify and decode the manifest at
    ``path``.

    A missing file raises ``FileNotFoundError``, which each caller reads
    its own way (a fresh run, a usage error, a report row); anything
    else that keeps the file from being a readable version-2 manifest
    raises :class:`CheckpointError`, with ``format_version`` set once
    the magic line has been parsed."""
    try:
        raw = retry_io(
            "manifest read",
            lambda: fileops.read_bytes(path),
            policy=policy,
            on_retry=on_retry,
        )
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    version = _parse_version(raw)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})",
            version,
        )
    base = len(MANIFEST_MAGIC)
    if len(raw) < base + 4:
        raise CheckpointError(
            "checkpoint manifest is corrupt or truncated", version
        )
    blob = raw[base + 4 :]
    if zlib.crc32(blob) != int.from_bytes(raw[base : base + 4], "little"):
        raise CheckpointError(
            "checkpoint manifest is corrupt or truncated (CRC mismatch)",
            version,
        )
    try:
        manifest = pickle.loads(zlib.decompress(blob))
    except Exception as error:
        raise CheckpointError(
            f"checkpoint manifest is corrupt or truncated: {error}", version
        ) from error
    if not isinstance(manifest, dict) or "token" not in manifest:
        raise CheckpointError("checkpoint payload is malformed", version)
    return manifest


class ResumedExploration:
    """What :meth:`CheckpointSession.try_resume` hands back to an engine."""

    __slots__ = ("frontier_start", "layers")

    def __init__(self, frontier_start, layers) -> None:
        self.frontier_start = frontier_start
        self.layers = layers


class _SegmentInvalid(Exception):
    """Internal: one segment failed verification (reason in ``args``)."""


# ---------------------------------------------------------------------
# Segment encode / decode
# ---------------------------------------------------------------------
def _encode_segment(header: dict, payload: bytes) -> bytes:
    header_blob = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        SEGMENT_MAGIC
        + len(header_blob).to_bytes(4, "little")
        + zlib.crc32(header_blob).to_bytes(4, "little")
        + header_blob
        + payload
    )


def _decode_segment(raw: bytes) -> tuple[dict, bytes]:
    """``(header, payload_bytes)`` of one segment file, or raise
    :class:`_SegmentInvalid` with the reason."""
    if not raw.startswith(SEGMENT_MAGIC):
        raise _SegmentInvalid("bad segment magic")
    base = len(SEGMENT_MAGIC)
    if len(raw) < base + 8:
        raise _SegmentInvalid("segment header truncated")
    header_len = int.from_bytes(raw[base : base + 4], "little")
    header_crc = int.from_bytes(raw[base + 4 : base + 8], "little")
    header_blob = raw[base + 8 : base + 8 + header_len]
    if len(header_blob) != header_len:
        raise _SegmentInvalid("segment header truncated")
    if zlib.crc32(header_blob) != header_crc:
        raise _SegmentInvalid("segment header CRC mismatch")
    try:
        header = pickle.loads(header_blob)
    except Exception as error:
        raise _SegmentInvalid(f"segment header unreadable: {error}") from error
    payload = raw[base + 8 + header_len :]
    if len(payload) != header.get("payload_len"):
        raise _SegmentInvalid(
            f"segment payload truncated: {len(payload)} bytes, header "
            f"records {header.get('payload_len')}"
        )
    if zlib.crc32(payload) != header.get("payload_crc"):
        raise _SegmentInvalid("segment payload CRC mismatch")
    return header, payload


def _load_segment(
    path: Path, entry: dict, fileops=DEFAULT_FILEOPS, on_retry=None
) -> tuple[dict, dict]:
    """Read and fully verify one committed segment against its manifest
    entry.  Returns ``(header, payload_dict)``; raises
    :class:`_SegmentInvalid` on any damage.

    The read goes through the file-ops shim and the typed retry policy:
    a transient ``EIO`` is re-read with backoff and the result is CRC
    re-verified below — exactly the contract that makes ``EIO``-on-read
    safe to retry at all."""
    seg_path = path.with_name(entry["name"])
    try:
        raw = retry_io(
            "segment read",
            lambda: fileops.read_bytes(seg_path),
            on_retry=on_retry,
        )
    except FileNotFoundError:
        raise _SegmentInvalid("segment file missing") from None
    except OSError as error:
        raise _SegmentInvalid(f"segment file unreadable: {error}") from error
    if len(raw) != entry["size"]:
        raise _SegmentInvalid(
            f"segment size {len(raw)} differs from the manifest's "
            f"{entry['size']}"
        )
    header, payload = _decode_segment(raw)
    if header["payload_crc"] != entry["payload_crc"]:
        raise _SegmentInvalid("segment CRC differs from the manifest's")
    for field in ("layer_from", "layer_to", "frontier_start", "count"):
        if header[field] != entry[field]:
            raise _SegmentInvalid(
                f"segment {field} {header[field]} differs from the "
                f"manifest's {entry[field]}"
            )
    version = header.get("version")
    if version not in (2, SEGMENT_VERSION):
        raise _SegmentInvalid(f"segment payload version {version} is unknown")
    try:
        decoded = decompress_batch(payload)
        if version == 2:
            parents, events, vocabulary = record_columns(decoded["records"])
        else:
            parents = array("q")
            parents.frombytes(decoded["parents"])
            events = array("i")
            events.frombytes(decoded["events"])
            vocabulary = list(decoded["vocabulary"])
        columns = {
            "parents": parents,
            "events": events,
            "vocabulary": vocabulary,
            "succ_ids": decoded["succ_ids"],
            "succ_offsets": decoded["succ_offsets"],
        }
    except Exception as error:
        raise _SegmentInvalid(
            f"segment payload undecodable: {error}"
        ) from error
    if not len(parents) == len(events) == header["records"]:
        raise _SegmentInvalid(
            f"segment columns disagree: {len(parents)} parents and "
            f"{len(events)} events, header records {header['records']}"
        )
    if events and not 0 <= min(events) <= max(events) < len(vocabulary):
        raise _SegmentInvalid(
            f"segment event index outside its {len(vocabulary)}-event "
            f"vocabulary"
        )
    return header, columns


_ENTRY_FIELDS = (
    "payload_crc",
    "layer_from",
    "layer_to",
    "frontier_start",
    "count",
    "complete",
    "records",
)
"""Header fields a manifest entry repeats, so resume can cross-check
each segment against the manifest that committed it."""


def _part_key(part) -> object:
    """Dedup key of one part of a canonical copy: its id for the kinds
    :func:`_canonical_vocabulary` makes unique per value, else its value."""
    if type(part) in (str, bytes, tuple) or isinstance(part, (Event, Message)):
        return id(part)
    return type(part), part


def _canonical_vocabulary(events) -> list:
    """``events`` with each swapped for an equal object in which equal
    strings, tuples, messages and events are one object.

    Pickle memoises by object identity, so pickling the live events would
    make a segment's bytes depend on which equal objects the writer held.
    The sharded coordinator holds events unpickled from its workers'
    frames, and which worker expands a parent is ``content_hash %
    workers``, where content hashes mix in address-derived hashes
    (``hash(None)`` before CPython 3.12): two runs under one
    ``PYTHONHASHSEED`` shared different strings and messages (a send and
    its receive hold one) and wrote different bytes.  After this pass the
    bytes are a function of the decoded events.  The first object seen
    for a value is kept when its parts already are the kept ones, so a
    kernel's events usually come back as they are.  Ints, floats, bools
    and ``None`` are never memoised, so they pass through, as do other
    payload types.
    """
    kept: dict[int, object] = {}  # id of an original -> the object kept
    by_key: dict[tuple, object] = {}

    def canonical(value):
        found = kept.get(id(value))
        if found is not None:
            return found
        kind = type(value)
        if kind is str or kind is bytes:
            found, key = value, (kind, value)
        elif kind is tuple:
            parts = tuple(map(canonical, value))
            found = value if all(map(is_, parts, value)) else parts
            key = (kind, *map(_part_key, parts))
        elif isinstance(value, (Event, Message)):
            state = value.__getstate__()
            parts = {name: canonical(part) for name, part in state.items()}
            if all(map(is_, parts.values(), state.values())):
                found = value
            else:
                found = object.__new__(kind)
                found.__dict__.update(parts)
            key = (kind, *((name, _part_key(part)) for name, part in parts.items()))
        else:
            return value
        found = kept[id(value)] = by_key.setdefault(key, found)
        return found

    return list(map(canonical, events))


def _segment_columns(events: array, vocabulary) -> tuple[array, list]:
    """``events`` (indices into ``vocabulary``) re-indexed into the
    segment's own vocabulary, and that vocabulary: the events the
    segment uses, in first-use order.  A stream that takes its events in
    vocabulary order (a first segment, a fold) keeps its indices."""
    used = list(dict.fromkeys(events))
    if used == list(range(len(used))):
        return events, list(vocabulary[: len(used)])
    local = [0] * len(vocabulary)
    for position, index in enumerate(used):
        local[index] = position
    return (
        array("i", map(local.__getitem__, events)),
        [vocabulary[index] for index in used],
    )


def _write_segment(
    path: Path,
    segment: dict,
    *,
    operation: str,
    fileops=DEFAULT_FILEOPS,
    policy=DEFAULT_RETRY_POLICY,
    on_retry=None,
) -> dict:
    """Compress, encode and durably write one segment of checkpoint
    ``path``; return its manifest entry.

    ``segment`` holds the delta (the ``parents`` and ``events`` columns,
    ``events`` indexing ``vocabulary``, and the CSR slices ``succ_ids``
    and ``succ_offsets``), where it goes (``generation``, ``index``) and
    the totals it covers (``layer_from``, ``layer_to``,
    ``frontier_start``, ``count``, ``complete``); other keys are
    ignored."""
    events, vocabulary = _segment_columns(
        segment["events"], segment["vocabulary"]
    )
    payload = compress_batch(
        {
            "parents": segment["parents"].tobytes(),
            "events": events.tobytes(),
            "vocabulary": _canonical_vocabulary(vocabulary),
            "succ_ids": segment["succ_ids"],
            "succ_offsets": segment["succ_offsets"],
        }
    )
    header = {
        "version": SEGMENT_VERSION,
        "generation": segment["generation"],
        "index": segment["index"],
        "layer_from": segment["layer_from"],
        "layer_to": segment["layer_to"],
        "frontier_start": segment["frontier_start"],
        "count": segment["count"],
        "complete": segment["complete"],
        "records": len(segment["parents"]),
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload),
    }
    blob = _encode_segment(header, payload)
    name = f"{path.name}.g{header['generation']}-{header['index']:06d}.seg"
    retry_io(
        operation,
        lambda: fileops.write_durable(path.with_name(name), blob),
        policy=policy,
        on_retry=on_retry,
    )
    entry = {"name": name, "size": len(blob)}
    for field in _ENTRY_FIELDS:
        entry[field] = header[field]
    return entry


def _read_deltas(
    path: Path, entries: list[dict], fileops=DEFAULT_FILEOPS, on_retry=None
) -> tuple[dict, int, str | None]:
    """Verify ``entries`` in order and concatenate the deltas of their
    longest intact prefix.

    Returns ``(delta, intact, damage)``: ``delta`` holds the prefix's
    ``parents`` and ``events`` columns, the ``vocabulary`` those events
    index (each segment's own, merged by value in first-appearance
    order), and the CSR slices ``succ_ids`` and ``succ_offsets``;
    ``intact`` is the prefix length, and ``damage`` is why
    ``entries[intact]`` failed verification (``None`` when every entry
    is intact)."""
    parents = array("q")
    events = array("i")
    vocabulary: list = []
    event_index: dict = {}
    succ_ids_parts: list[bytes] = []
    offsets_parts: list[bytes] = []
    damage = None
    for entry in entries:
        try:
            _, decoded = _load_segment(path, entry, fileops, on_retry)
        except _SegmentInvalid as error:
            damage = str(error)
            break
        indices = list(
            _event_indices(decoded["vocabulary"], vocabulary, event_index)
        )
        parents.extend(decoded["parents"])
        if indices == list(range(len(indices))):
            events.extend(decoded["events"])
        else:
            events.extend(map(indices.__getitem__, decoded["events"]))
        succ_ids_parts.append(decoded["succ_ids"])
        offsets_parts.append(decoded["succ_offsets"])
    delta = {
        "parents": parents,
        "events": events,
        "vocabulary": vocabulary,
        "succ_ids": b"".join(succ_ids_parts),
        "succ_offsets": b"".join(offsets_parts),
    }
    return delta, len(offsets_parts), damage


def _fold_segments(
    path: Path,
    manifest: dict,
    *,
    fileops=DEFAULT_FILEOPS,
    policy=DEFAULT_RETRY_POLICY,
    on_retry=None,
) -> dict:
    """Fold every segment ``manifest`` commits into one, index 0 of the
    next generation, and return the manifest now committed at ``path``.

    Crash-safe by construction: the fold is written under a name the
    current manifest does not reference, the manifest replace is the
    commit point, and only then are the old files removed (a crash in
    between leaves orphans, discarded on the next resume).  Every input
    is fully verified first (the same read resume uses): a damaged one
    raises :class:`_SegmentInvalid` before anything is written, and
    each caller applies its own policy to that."""
    entries = manifest["segments"]
    delta, intact, damage = _read_deltas(path, entries, fileops, on_retry)
    if damage is not None:
        raise _SegmentInvalid(
            f"segment {entries[intact]['name']} is damaged ({damage})"
        )
    generation = manifest["generation"] + 1
    # The last entry carries the cumulative totals the fold covers.
    folded = _write_segment(
        path,
        dict(entries[-1], generation=generation, index=0, layer_from=0, **delta),
        operation="compaction fold write",
        fileops=fileops,
        policy=policy,
        on_retry=on_retry,
    )
    manifest = dict(manifest, generation=generation, segments=[folded])
    _commit_manifest(
        path, manifest, fileops=fileops, policy=policy, on_retry=on_retry
    )
    _unlink_segments(path, [entry["name"] for entry in entries], fileops)
    return manifest


def _unlink_segments(path: Path, names, fileops=DEFAULT_FILEOPS) -> None:
    """Best-effort removal of segment files no manifest references (a
    leftover is an orphan the next resume discards)."""
    for name in names:
        try:
            fileops.unlink(path.with_name(name))
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def _list_orphans(path: Path, referenced: set[str]) -> list[str]:
    """Names of checkpoint ``path``'s segment files that ``referenced``
    does not hold, sorted.

    Names are matched literally, so a checkpoint name holding glob
    metacharacters (``run[1].ckpt``, ``a*.ckpt``) never claims another
    checkpoint's segments."""
    pattern = re.compile(re.escape(path.name) + r"\.g\d+-\d{6,}\.seg")
    return sorted(
        name
        for name in os.listdir(path.parent)
        if pattern.fullmatch(name) and name not in referenced
    )


class CheckpointSession:
    """One exploration's checkpoint lifecycle: resume, commit, save.

    Created by :class:`~repro.universe.explorer.Universe` when a
    ``checkpoint`` path is given and threaded through whichever engine
    runs the exploration.  ``every`` saves once per ``every`` completed
    layers (the final state is always saved).  Every save appends one
    delta segment from the background writer thread and then replaces
    the (version-2) manifest; resuming any other manifest version raises
    :class:`CheckpointError`.

    ``strict`` turns corrupt-tail salvage into a hard
    :class:`CheckpointError`.  ``fault_actions`` is the checkpoint slice
    of a :class:`~repro.universe.faults.FaultPlan` — ``(kind, layer,
    seconds)`` wire tuples, each fired at most once, for the
    chaos/recovery test matrix; empty in production use.

    ``fileops`` is the file-operations shim every filesystem call routes
    through (fault-injecting under chaos, passthrough otherwise);
    ``recovery_log`` is the shared :class:`RecoveryLog` structured
    events land on (the universe's own, when the session belongs to
    one).  Storage failures follow the typed retry policy: transient
    errors are retried with bounded backoff (logged as ``storage_retry``
    events); a *permanent* error (``ENOSPC``/``EROFS``) or an exhausted
    retry **degrades** the session instead of killing the exploration —
    checkpointing is disabled with a single loud warning and a
    ``checkpoint_degraded`` event, later ``save``/``flush`` calls no-op,
    and the last committed manifest remains valid on disk
    (:attr:`degraded` is surfaced as ``Universe.checkpoint_degraded``).
    Unclassified writer errors stay **sticky** and re-raise verbatim on
    the exploration thread, exactly as before.
    """

    def __init__(
        self,
        path,
        protocol,
        max_events,
        every: int = 1,
        *,
        strict: bool = False,
        compact_at: int | None = None,
        fault_actions=(),
        fileops=None,
        recovery_log: RecoveryLog | None = None,
        retry_policy=None,
    ) -> None:
        if every < 1:
            raise UniverseError(
                f"checkpoint interval must be >= 1 layer, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.strict = strict
        self.compact_at = (
            DEFAULT_COMPACT_SEGMENTS if compact_at is None else compact_at
        )
        if self.compact_at < 2:
            raise UniverseError(
                f"checkpoint compaction threshold must be >= 2, got "
                f"{self.compact_at}"
            )
        self.token = compatibility_token(protocol, max_events)
        self._segments: list[dict] = []
        self._generation = 0
        self._saved_count = 1  # the root is in no segment
        self._saved_frontier = 0
        self._saved_edges = 0
        self._saved_layers = 0
        self.layers = 0
        self.resumed_from: int | None = None
        self.salvaged = False
        self.saves = 0
        self._segment_index = 0
        self._writer_thread: threading.Thread | None = None
        self._writer_cv = threading.Condition()
        self._writer_queue: deque = deque()
        self._writer_inflight = 0
        self._writer_error: BaseException | None = None
        self._fileops = fileops if fileops is not None else DEFAULT_FILEOPS
        self.recovery_log = (
            recovery_log if recovery_log is not None else RecoveryLog()
        )
        self._retry = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.degraded = False
        self.degraded_reason: str | None = None
        self._faults: dict[int, list[tuple[str, float]]] = {}
        for action in fault_actions:
            kind, layer = action[0], action[1]
            seconds = action[2] if len(action) > 2 else 0.0
            self._faults.setdefault(layer, []).append((kind, seconds))

    # -- fault hooks ---------------------------------------------------
    def _take_fault_actions(self) -> list[tuple[str, float]]:
        """``(kind, seconds)`` pairs armed for any layer covered by this
        save (each fired at most once)."""
        due = [layer for layer in self._faults if layer < self.layers]
        actions: list[tuple[str, float]] = []
        for layer in sorted(due):
            actions.extend(self._faults.pop(layer))
        return actions

    @staticmethod
    def _hard_exit() -> None:  # pragma: no cover - exercised in chaos runs
        """The ``torn_save`` fault: die the way SIGKILL/OOM would —
        no cleanup, no manifest commit.  Monkeypatchable in-process."""
        os._exit(23)

    # -- storage degradation ladder ------------------------------------
    def _log_retry(self, operation, attempt, error, delay) -> None:
        """The typed-retry logging hook: every absorbed transient
        failure leaves a ``storage_retry`` event."""
        self.recovery_log.record(
            "storage_retry",
            "retry",
            layer=self.layers,
            detail=(
                f"{operation}: {error} (attempt {attempt}, backing off "
                f"{delay:.3f}s)"
            ),
        )

    def _degrade(self, error: BaseException) -> None:
        """Persistent checkpoint-write failure: disable checkpointing
        loudly and let the exploration continue.

        One warning, one ``checkpoint_degraded`` recovery event; every
        later ``save``/``flush`` no-ops.  The last committed manifest is
        untouched (the manifest replace is atomic and a failed segment
        write is never referenced by it), so ``repro checkpoint verify``
        still passes on whatever was durable before the storage went
        hostile."""
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = str(error)
        self.recovery_log.record(
            "checkpoint_degraded",
            "disable-checkpointing",
            layer=self.layers,
            detail=str(error),
        )
        warnings.warn(
            f"checkpointing disabled after a persistent storage failure "
            f"({error}); exploration continues WITHOUT further "
            f"checkpoints — the last committed manifest at {self.path} "
            f"is still valid",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- resume --------------------------------------------------------
    def try_resume(self, universe) -> ResumedExploration | None:
        """Load ``self.path`` if it exists and rebuild ``universe``'s
        stores from it.

        Returns the engine-facing resume state, or ``None`` when there
        is no checkpoint file (a fresh run) or salvage discarded
        everything.  Raises :class:`CheckpointError` on an incompatible
        file always, and on a corrupt one when ``strict`` — resuming
        from the wrong protocol must fail loudly, never mis-merge.
        """
        try:
            manifest = _read_manifest(
                self.path, self._fileops, self._retry, self._log_retry
            )
        except FileNotFoundError:
            return None
        self._check_token(manifest["token"])
        entries = manifest["segments"]
        self._generation = manifest["generation"]
        delta, intact, damage = _read_deltas(
            self.path, entries, self._fileops, self._log_retry
        )
        kept = entries[:intact]
        if damage is not None:
            name = entries[intact]["name"]
            if self.strict:
                raise CheckpointError(
                    f"checkpoint {self.path} segment {name} is corrupt "
                    f"({damage}); {intact} of {len(entries)} segments are "
                    f"intact — resume without --strict to salvage that "
                    f"prefix"
                )
            self.salvaged = True
            self.recovery_log.record(
                "corrupt_segment",
                "salvage-truncate" if kept else "restart",
                layer=entries[intact]["layer_from"],
                detail=f"{name}: {damage}",
            )
        self._discard_orphans({entry["name"] for entry in entries})
        self._segments = kept
        self._segment_index = len(kept)
        if not kept:
            # Nothing salvageable: a fresh run (the first save overwrites
            # the damaged segment names and recommits the manifest).
            return None
        last = kept[-1]
        if damage is None and (
            manifest["layers"] != last["layer_to"]
            or manifest["count"] != last["count"]
            or manifest["frontier_start"] != last["frontier_start"]
        ):
            raise CheckpointError(
                f"checkpoint {self.path} manifest totals disagree with "
                f"its own segments — the file is corrupt"
            )
        complete = manifest["complete"] if damage is None else last["complete"]
        return self._install(universe, delta, last, complete)

    def _check_token(self, theirs: tuple) -> None:
        """Field-by-field compatibility check with actionable messages."""
        ours = self.token
        if theirs[1] != ours[1]:
            raise CheckpointError(
                f"checkpoint {self.path} is incompatible: it records "
                f"protocol {theirs[1]!r}, this exploration runs "
                f"{ours[1]!r} — point --checkpoint at a fresh path or "
                f"rebuild the matching protocol"
            )
        if tuple(theirs[2]) != ours[2]:
            raise CheckpointError(
                f"checkpoint {self.path} is incompatible: it records "
                f"process set {list(theirs[2])}, this exploration has "
                f"{list(ours[2])} — the protocol size/processes differ"
            )
        if theirs[3] != ours[3]:
            raise CheckpointError(
                f"checkpoint {self.path} is incompatible: it records "
                f"max_events={theirs[3]}, this exploration uses "
                f"max_events={ours[3]} — resume with the original bound"
            )

    def _discard_orphans(self, referenced: set[str]) -> None:
        """Remove (and log) segment files the manifest never committed —
        the torn tail of a crash between segment append and manifest
        replace."""
        orphans = _list_orphans(self.path, referenced)
        for name in orphans:
            self.recovery_log.record(
                "torn_save", "discard-orphan", layer=self.layers, detail=name
            )
        _unlink_segments(self.path, orphans, self._fileops)

    def _install(
        self, universe, delta: dict, last: dict, complete: bool
    ) -> ResumedExploration:
        """Rebuild ``universe``'s stores from a verified ``delta`` (the
        concatenated stream columns + CSR) whose totals ``last`` records.

        The replay copies the columns straight into the arena
        (:meth:`~repro.universe.arena.ArenaStore.replay`) and builds no
        configuration: content hashes are recomputed under this
        interpreter's hash seed from rolling entry hashes, so the rebuilt
        state is bit-identical and the file stays portable across seeds.
        """
        frontier_start = last["frontier_start"]
        offsets = array("q", (0,))
        offsets.frombytes(delta["succ_offsets"])
        if len(offsets) != frontier_start + 1:
            raise CheckpointError(
                f"checkpoint {self.path} CSR desync: {len(offsets)} "
                f"offsets for a frontier at {frontier_start}"
            )
        arena = universe._configurations
        try:
            ids_by_hash = arena.replay(
                delta["parents"],
                delta["events"],
                delta["vocabulary"],
                universe.protocol.ordered_processes,
            )
        except ValueError as error:
            raise CheckpointError(
                f"checkpoint {self.path} replay desync: {error}"
            ) from None
        if len(arena) != last["count"]:
            raise CheckpointError(
                f"checkpoint {self.path} replay desync: rebuilt "
                f"{len(arena)} configurations, file records {last['count']}"
            )
        universe._ids_by_hash = ids_by_hash
        del universe._succ_ids[:]
        universe._succ_ids.frombytes(delta["succ_ids"])
        del universe._succ_offsets[:]
        universe._succ_offsets.extend(offsets)
        universe._complete = complete
        self.layers = self._saved_layers = last["layer_to"]
        self._saved_count = len(arena)
        self._saved_frontier = frontier_start
        self._saved_edges = len(universe._succ_ids)
        self.resumed_from = frontier_start
        return ResumedExploration(frontier_start, self.layers)

    # -- commit --------------------------------------------------------
    def commit_layer(
        self, frontier_start, universe, final: bool = False
    ) -> None:
        """Count one completed layer and save if the interval (or
        ``final``) says so.

        A degraded session keeps counting layers: they are the clock
        other recovery events are stamped with."""
        self.layers += 1
        if final or self.layers % self.every == 0:
            self.save(frontier_start, universe, final=final)

    def save(self, frontier_start: int, universe, final: bool = False) -> None:
        """Persist the state up to ``frontier_start``.

        The delta is handed to the background writer and ``save``
        returns; the ``final`` save additionally :meth:`flush`\\ es so a
        finished exploration never returns with uncommitted state.

        A degraded session no-ops; a storage-classified failure on the
        synchronous path (compaction) degrades the session here (the
        background writer degrades inside its own loop).  Unclassified
        errors — including a sticky writer error — re-raise verbatim.
        """
        if self.degraded:
            return
        try:
            self._save_delta(frontier_start, universe)
            if final:
                self.flush()
        except Exception as error:
            if classify_storage_error(error) is None:
                raise
            self._degrade(error)
            return
        self.saves += 1

    # -- writer ---------------------------------------------------------
    def _save_delta(self, frontier_start: int, universe) -> None:
        """Snapshot this save's delta and hand it to the writer.

        Everything the writer needs is copied here, on the exploration
        thread: the new configurations' parent and event columns come
        off the arena as fresh arrays
        (:meth:`~repro.universe.arena.ArenaStore.columns`) with a
        snapshot of the vocabulary their events index, the CSR slices
        are materialised with ``tobytes()``, and the header counters are
        plain values — the universe is free to mutate the moment this
        returns.  Watermarks advance immediately so the
        *next* delta starts where this one ended, regardless of when the
        write lands on disk.
        """
        arena = universe._configurations
        count = len(arena)
        succ_ids = universe._succ_ids
        offsets = universe._succ_offsets
        parents, events = arena.columns(self._saved_count, count)
        job = {
            "parents": parents,
            "events": events,
            "vocabulary": arena.vocabulary,
            "succ_ids": succ_ids[self._saved_edges :].tobytes(),
            "succ_offsets": offsets[
                self._saved_frontier + 1 : frontier_start + 1
            ].tobytes(),
            "generation": self._generation,
            "index": self._segment_index,
            "layer_from": self._saved_layers,
            "layer_to": self.layers,
            "frontier_start": frontier_start,
            "count": count,
            "complete": universe._complete,
            "actions": self._take_fault_actions(),
        }
        self._segment_index += 1
        self._saved_count = count
        self._saved_frontier = frontier_start
        self._saved_edges = len(succ_ids)
        self._saved_layers = self.layers
        self._enqueue(job)
        if self._segment_index > self.compact_at:
            self.flush()
            self._compact()
            self._segment_index = len(self._segments)

    def arm_storage_faults(self, actions) -> bool:
        """Queue write-fault arming *behind* every save already handed
        to the background writer, so an armed fault can only land on
        this layer boundary's own (or a later) filesystem operation —
        never retroactively on a still-queued earlier save, whose
        manifest must stay committable.  Returns ``False`` when the
        session cannot order the arming (degraded, or an idle drained
        writer — both of which make the caller's direct arming already
        ordered)."""
        if self.degraded:
            return False
        with self._writer_cv:
            if self._writer_thread is None and not self._writer_queue:
                return False
            self._writer_queue.append({"arm": list(actions)})
            self._writer_inflight += 1
            self._writer_cv.notify_all()
        return True

    def _enqueue(self, job: dict) -> None:
        self._raise_writer_error()
        with self._writer_cv:
            self._writer_queue.append(job)
            self._writer_inflight += 1
            if self._writer_thread is None:
                # Daemonic on purpose: an exploration that dies mid-queue
                # behaves like any other crash — orphan segments, previous
                # manifest — which resume already heals.  Graceful runs
                # always end in a flushing final save.
                self._writer_thread = threading.Thread(
                    target=self._writer_loop,
                    name="repro-checkpoint-writer",
                    daemon=True,
                )
                self._writer_thread.start()
            self._writer_cv.notify_all()

    def _writer_loop(self) -> None:
        while True:
            with self._writer_cv:
                if not self._writer_queue:
                    # Idle: retire rather than park — _enqueue respawns
                    # under this same lock, so no job can slip between
                    # this check and the thread's exit.
                    self._writer_thread = None
                    return
                job = self._writer_queue.popleft()
            try:
                self._write_segment_job(job)
            except BaseException as error:  # noqa: BLE001 - re-raised later
                storage = classify_storage_error(error) is not None
                if storage:
                    # Hostile storage, not a bug: take the degradation
                    # ladder (checkpointing off, exploration continues)
                    # instead of poisoning the session with a sticky
                    # error the exploration thread would die on.
                    self._degrade(error)
                with self._writer_cv:
                    if not storage:
                        self._writer_error = error
                    self._writer_queue.clear()
                    self._writer_inflight = 0
                    self._writer_thread = None
                    self._writer_cv.notify_all()
                return
            with self._writer_cv:
                self._writer_inflight -= 1
                self._writer_cv.notify_all()

    def flush(self) -> None:
        """Block until every queued segment write has committed (or
        re-raise the writer's stored failure).

        Never deadlocks after a failure: a degrading or sticky writer
        zeroes the in-flight count and notifies before retiring, and a
        degraded session returns immediately."""
        with self._writer_cv:
            while (
                self._writer_inflight
                and self._writer_error is None
                and not self.degraded
            ):
                self._writer_cv.wait()
        self._raise_writer_error()

    def _raise_writer_error(self) -> None:
        error = self._writer_error
        if error is not None:
            # Sticky: the session is dead once its writer failed — every
            # later save/flush re-raises rather than committing a
            # manifest past a hole in the segment sequence.
            raise error

    def _write_segment_job(self, job: dict) -> None:
        """Append and commit one segment (on the writer thread)."""
        arm = job.get("arm")
        if arm is not None:
            # Queue-ordered fault arming marker, not a segment: every
            # save enqueued before it has committed by now.
            for kind, seconds in arm:
                self._fileops.arm(kind, seconds)
            return
        actions = job["actions"]
        entry = _write_segment(
            self.path,
            job,
            operation="segment append",
            fileops=self._fileops,
            policy=self._retry,
            on_retry=self._log_retry,
        )
        for kind, seconds in actions:
            if kind == "stall_write":
                # Chaos hook: hold the append→commit window open so an
                # external SIGKILL lands mid-background-write.
                time.sleep(seconds)
        if any(kind == "torn_save" for kind, _ in actions):
            # Chaos hook: die between segment append and manifest commit
            # — the archetypal torn save the orphan-discard path heals.
            self._hard_exit()
        self._segments.append(entry)
        _commit_manifest(
            self.path,
            self._manifest(),
            fileops=self._fileops,
            policy=self._retry,
            on_retry=self._log_retry,
        )
        if any(kind == "corrupt_segment" for kind, _ in actions):
            # Chaos hook: flip one committed payload byte *after* the
            # CRC was recorded — the next resume must detect + salvage.
            seg_path = self.path.with_name(entry["name"])
            damaged = bytearray(seg_path.read_bytes())
            damaged[-1] ^= 0xFF
            seg_path.write_bytes(bytes(damaged))

    def _manifest(self) -> dict:
        """The manifest describing the committed segments.

        Totals come from the last *committed* segment, not the live
        watermarks: with queued background saves the watermarks run
        ahead of the disk state, and the manifest must describe exactly
        what its segment list can rebuild."""
        last = self._segments[-1]
        return {
            "token": self.token,
            "layers": last["layer_to"],
            "frontier_start": last["frontier_start"],
            "count": last["count"],
            "complete": last["complete"],
            "generation": self._generation,
            "segments": self._segments,
            "recovery": [event.as_dict() for event in self.recovery_log],
        }

    def _compact(self) -> None:
        """Fold every committed segment into one under a new generation
        (:func:`_fold_segments`, the fold ``repro checkpoint compact``
        runs too)."""
        try:
            manifest = _fold_segments(
                self.path,
                self._manifest(),
                fileops=self._fileops,
                policy=self._retry,
                on_retry=self._log_retry,
            )
        except _SegmentInvalid as error:  # pragma: no cover - defensive
            # A just-committed segment went bad under us: skip the fold,
            # keep the (still consistent) multi-segment layout.
            warnings.warn(
                f"checkpoint compaction skipped: {error}",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self._segments = manifest["segments"]
        self._generation = manifest["generation"]


def _commit_manifest(
    path: Path,
    manifest: dict,
    fileops=DEFAULT_FILEOPS,
    policy=DEFAULT_RETRY_POLICY,
    on_retry=None,
) -> None:
    """Atomically write a version-2 manifest (tmp + fsync + replace).

    The whole tmp-write-replace sequence is one retry unit: it restarts
    from the in-memory blob, and ``os.replace`` stays the sole commit
    point, so a transient failure anywhere re-runs cleanly and a
    permanent one leaves the previous manifest untouched."""
    blob = compress_batch(manifest)
    raw = MANIFEST_MAGIC + zlib.crc32(blob).to_bytes(4, "little") + blob
    temp = path.with_name(path.name + ".tmp")

    def commit() -> None:
        fileops.write_durable(temp, raw)
        fileops.replace(temp, path)

    retry_io("manifest commit", commit, policy=policy, on_retry=on_retry)


def compact_checkpoint(path) -> dict:
    """Fold every committed segment of a checkpoint into one — the
    ``repro checkpoint compact PATH`` operator verb.

    Works offline on the files alone (no protocol object needed) and
    runs the session's own fold (:func:`_fold_segments`), so a kill at
    any point leaves either the old layout or the new one plus
    discardable orphans.  A damaged segment aborts with
    :class:`CheckpointError` before any file changes (run ``repro
    checkpoint verify`` / a non-strict resume to salvage first).
    Returns a report dict (segment and byte counts before and after,
    the new generation).
    """
    path = Path(path)
    try:
        manifest = _read_manifest(path)
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    entries = manifest["segments"]
    report = {
        "path": str(path),
        "compacted": len(entries) > 1,
        "segments_before": len(entries),
        "bytes_before": sum(entry["size"] for entry in entries),
    }
    if not report["compacted"]:
        report["reason"] = "already a single segment"
    else:
        try:
            manifest = _fold_segments(path, manifest)
        except _SegmentInvalid as error:
            raise CheckpointError(
                f"cannot compact {path}: {error} — verify/salvage before "
                f"compacting"
            ) from error
    report.update(
        segments_after=len(manifest["segments"]),
        bytes_after=sum(entry["size"] for entry in manifest["segments"]),
        generation=manifest["generation"],
        layers=manifest["layers"],
        count=manifest["count"],
    )
    return report


# ---------------------------------------------------------------------
# Inspection (``repro checkpoint verify|inspect``)
# ---------------------------------------------------------------------
def inspect_checkpoint(path, verify_segments: bool = True) -> dict:
    """Integrity/metadata report of a checkpoint — never raises.

    Returns a dict with ``exists``, ``format_version`` (the manifest's),
    the decoded compatibility ``token`` (as a readable mapping),
    ``layers``/``count``/``complete``/``frontier_start``, a per-segment
    status list (``ok`` / ``missing`` / ``corrupt: <reason>`` /
    ``unverified``),
    the unreferenced ``orphans``, ``salvageable_layers`` (the valid
    prefix), and ``valid`` — True iff every byte needed for a full
    resume checks out.  ``verify_segments=False`` skips reading segment
    payloads (a cheap progress probe).
    """
    path = Path(path)
    report: dict = {
        "path": str(path),
        "exists": True,
        "format_version": None,
        "error": None,
        "token": None,
        "layers": None,
        "count": None,
        "complete": None,
        "frontier_start": None,
        "generation": None,
        "segments": [],
        "orphans": [],
        "recovery": [],
        "salvageable_layers": 0,
        "valid": False,
    }
    try:
        manifest = _read_manifest(path)
    except FileNotFoundError:
        report["exists"] = False
        report["error"] = "no such file"
        return report
    except CheckpointError as error:
        report["format_version"] = error.format_version
        report["error"] = str(error)
        return report
    report["format_version"] = CHECKPOINT_VERSION
    token = manifest["token"]
    report["token"] = {
        "format_version": token[0],
        "protocol": token[1],
        "processes": list(token[2]),
        "max_events": token[3],
    }
    for field in ("layers", "count", "complete", "frontier_start", "generation"):
        report[field] = manifest[field]
    # Recovery/degradation events recorded up to the committing save
    # (structured RecoveryEvent dicts persisted with the manifest).
    report["recovery"] = list(manifest.get("recovery", []))
    prefix_intact = True
    for entry in manifest["segments"]:
        row = {
            "name": entry["name"],
            "layer_from": entry["layer_from"],
            "layer_to": entry["layer_to"],
            "records": entry["records"],
            "size": entry["size"],
            "status": "unverified",
        }
        if verify_segments:
            try:
                _load_segment(path, entry)
            except _SegmentInvalid as error:
                row["status"] = (
                    "missing"
                    if str(error) == "segment file missing"
                    else f"corrupt: {error}"
                )
                prefix_intact = False
            else:
                row["status"] = "ok"
                if prefix_intact:
                    report["salvageable_layers"] = entry["layer_to"]
        report["segments"].append(row)
    report["orphans"] = _list_orphans(
        path, {entry["name"] for entry in manifest["segments"]}
    )
    if verify_segments:
        report["valid"] = prefix_intact and all(
            row["status"] == "ok" for row in report["segments"]
        )
    else:
        report["salvageable_layers"] = manifest["layers"]
        report["valid"] = True  # manifest-level only
    return report


# ---------------------------------------------------------------------
# RSS watchdog (``--rss-budget``)
# ---------------------------------------------------------------------
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def process_rss_mb(pid: int | None = None) -> float | None:
    """Resident set size of one process in MiB, or ``None`` if unknown.

    Reads ``/proc/<pid>/statm`` (Linux); falls back to ``ru_maxrss``
    (peak, self only) elsewhere.  The watchdog only ever compares
    against a budget, so peak-vs-current imprecision errs on the safe
    (earlier-truncation) side.
    """
    try:
        with open(f"/proc/{pid or 'self'}/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * _PAGE_SIZE / (1 << 20)
    except (OSError, ValueError, IndexError):
        pass
    if pid is not None:
        return None
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return peak / (1 << 10) if peak < (1 << 40) else peak / (1 << 20)
    except Exception:  # pragma: no cover - exotic platforms only
        return None


class RssWatchdog:
    """Checks total exploration RSS against a budget at layer boundaries.

    ``worker_pids`` (a zero-argument callable) lets the sharded engine
    include its live workers — each holds a full replica, so coordinator
    RSS alone understates the footprint (K+1)×.

    On hosts where RSS cannot be measured at all (no readable ``/proc``
    and no ``resource`` fallback) the watchdog *deactivates* with a
    one-time :class:`RuntimeWarning` instead of silently never firing;
    callers can observe the degradation via :attr:`active`.
    """

    def __init__(self, budget_mb: float, worker_pids=None) -> None:
        if budget_mb <= 0:
            raise UniverseError(
                f"rss budget must be positive, got {budget_mb}"
            )
        self.budget_mb = float(budget_mb)
        self.worker_pids = worker_pids
        self.last_mb: float | None = None
        self.active = True

    def exceeded(self) -> bool:
        total = process_rss_mb()
        if total is None:
            if self.active:
                self.active = False
                warnings.warn(
                    "RSS watchdog disabled: this host exposes no way to "
                    "measure resident memory (no readable /proc, no "
                    "resource.getrusage) — --rss-budget will not truncate",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False
        if self.worker_pids is not None:
            for pid in self.worker_pids():
                worker = process_rss_mb(pid)
                if worker is not None:
                    total += worker
        self.last_mb = total
        return total > self.budget_mb


__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_COMPACT_SEGMENTS",
    "MANIFEST_MAGIC",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "CheckpointError",
    "CheckpointSession",
    "ResumedExploration",
    "RssWatchdog",
    "compact_checkpoint",
    "compatibility_token",
    "inspect_checkpoint",
    "process_rss_mb",
]

"""Durable checkpoint/resume for universe exploration.

Long explorations (star n=8 is ~20 s, n=9 is ~11 min and ~26 GB) are
lost in their entirety when the process dies — OOM kill, ^C, a worker
crash that exhausts recovery.  This module makes exploration *resumable*
at BFS layer boundaries, for both the in-process kernel and the sharded
engine, with one on-disk format shared by both — and makes the
checkpoint itself survive the failure modes long runs actually hit:
whole-process SIGKILL mid-save, torn writes, and bit-flipped files.

Design: the checkpoint does **not** store configurations or hashes.  It
stores the *merged discovery stream* — the sequence ``[(parent_id,
event), ...]`` of first discoveries in global BFS order — plus the CSR
successor arrays (dense ids only) and the completeness flag.  Replaying
the stream into the arena (:meth:`repro.universe.arena.ArenaStore.replay`)
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

Segmented incremental format (version 2)
----------------------------------------

The PR 6 format was a single monolithic blob rewritten in full on every
save — O(stream) per layer, which dominates checkpointing cost at large
n.  Version 2 replaces it with a **manifest plus append-only per-layer
delta segments**:

* ``PATH`` is the *manifest*: magic ``REPRO-CKPT2\\n``, a CRC-32, and a
  compressed pickle of ``{token, layers, frontier_start, count,
  complete, generation, segments: [...]}`` — small (metadata only),
  always written atomically (tmp + fsync + ``os.replace``);
* each committed save appends one *segment* file
  (``PATH.g<generation>-<index>.seg``): segment magic, a CRC-guarded
  header (layer range, frontier, cumulative count/completeness), and a
  CRC-guarded compressed payload holding that save's **delta** — the new
  discovery records plus the CSR slice appended since the previous save.
  ``commit_layer`` therefore writes O(new layers), not O(stream);
* resume concatenates the segment deltas (CSR arrays are rebuilt by
  concatenation, configurations by replaying the concatenated stream)
  and verifies every CRC on the way;
* when the segment count exceeds :data:`DEFAULT_COMPACT_SEGMENTS` the
  session *compacts*: folds all committed segments into one under a new
  generation, commits the manifest, then deletes the old files — so the
  file count is bounded and the fold cost is amortised over the
  compaction interval.

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

**Background writes.**  Segmented saves run on a dedicated writer
thread: ``save`` snapshots the delta synchronously (the pending records
list is handed off wholesale and the CSR slices are copied with
``tobytes()``) and returns, so the exploration thread never waits on
compression or ``fsync``.  The crash-safety argument is unchanged
because the *ordering* is unchanged: jobs drain FIFO through one
writer, each job appends its segment (write + fsync) before the
manifest replace, and the manifest replace remains the only commit
point.  A crash at any moment therefore leaves either the previous
manifest (plus discardable orphan segments) or the new one — exactly
the two states the resume path already heals.  ``flush()`` blocks until
the queue drains; the final save flushes implicitly, so a completed
exploration always returns with its checkpoint committed, and
compaction only runs against a drained queue.  A writer-thread failure
is sticky: the stored exception re-raises on the next ``save``/
``flush`` on the exploration thread.  The ``stall_write`` fault kind
makes the writer sleep *inside* the append→commit window, giving the
chaos harness a deterministic target for SIGKILL-mid-background-write.

Version 1 monolithic checkpoints are still **readable**: resuming one
migrates it in place to the segmented format (one folded segment).
Writing v1 is retained behind ``format="monolithic"`` for the
controlled incremental-vs-full benchmark pair
(``repro bench --suite fault-recovery``).

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
import threading
import time
import warnings
import zlib
from array import array
from collections import deque
from pathlib import Path

from repro.core.errors import UniverseError
from repro.universe.arena import compress_batch, decompress_batch
from repro.universe.fileops import DEFAULT_FILEOPS
from repro.universe.recovery import RecoveryLog
from repro.universe.retry import (
    DEFAULT_RETRY_POLICY,
    classify_storage_error,
    retry_io,
)

CHECKPOINT_MAGIC = b"REPRO-CKPT\n"
"""Version-1 (monolithic) magic — still readable, migrated on resume."""

MANIFEST_MAGIC = b"REPRO-CKPT2\n"
"""Version-2 (segmented) manifest magic."""

SEGMENT_MAGIC = b"RSEG"
"""Leading magic of every segment file."""

CHECKPOINT_VERSION = 2
MIN_READABLE_VERSION = 1

DEFAULT_COMPACT_SEGMENTS = 64
"""Compaction threshold: when a manifest references more committed
segments than this, the session folds them into a single segment under a
new generation.  The fold costs O(stream) but runs once per threshold
saves, so steady-state save cost stays O(delta) amortised."""


class CheckpointError(UniverseError):
    """A checkpoint file is unreadable, corrupt, or incompatible with
    the exploration it was asked to resume."""


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


class ResumedExploration:
    """What :meth:`CheckpointSession.try_resume` hands back to an engine."""

    __slots__ = ("frontier_start", "stream", "layers")

    def __init__(self, frontier_start, stream, layers) -> None:
        self.frontier_start = frontier_start
        self.stream = stream
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
    try:
        decoded = decompress_batch(payload)
    except Exception as error:
        raise _SegmentInvalid(
            f"segment payload undecodable: {error}"
        ) from error
    if len(decoded.get("records", ())) != header["records"]:
        raise _SegmentInvalid("segment record count differs from its header")
    return header, decoded


class CheckpointSession:
    """One exploration's checkpoint lifecycle: resume, commit, save.

    Created by :class:`~repro.universe.explorer.Universe` when a
    ``checkpoint`` path is given and threaded through whichever engine
    runs the exploration.  ``every`` saves once per ``every`` completed
    layers (the final state is always saved).

    ``format`` selects the on-disk writer: ``"segmented"`` (default,
    version 2 — O(delta) incremental saves) or ``"monolithic"`` (the
    retained PR 6 full-rewrite format, kept for the controlled
    incremental-vs-full benchmark pair).  Both resume either format;
    resuming a v1 file with a segmented session migrates it in place.

    ``strict`` turns corrupt-tail salvage into a hard
    :class:`CheckpointError`.  ``fault_actions`` is the checkpoint slice
    of a :class:`~repro.universe.faults.FaultPlan` — ``(kind, layer,
    seconds)`` wire tuples, each fired at most once, for the
    chaos/recovery test matrix; empty in production use.

    ``background`` (default on) runs segmented saves on the writer
    thread; ``background=False`` keeps them on the calling thread — the
    knob exists for the synchronous-cost benchmark pair and for tests
    that need deterministic interleaving.

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
        format: str = "segmented",
        compact_at: int | None = None,
        fault_actions=(),
        background: bool = True,
        fileops=None,
        recovery_log: RecoveryLog | None = None,
        retry_policy=None,
    ) -> None:
        if every < 1:
            raise UniverseError(
                f"checkpoint interval must be >= 1 layer, got {every}"
            )
        if format not in ("segmented", "monolithic"):
            raise UniverseError(
                f"checkpoint format must be 'segmented' or 'monolithic', "
                f"got {format!r}"
            )
        self.path = Path(path)
        self.protocol = protocol
        self.max_events = max_events
        self.every = every
        self.strict = strict
        self.format = format
        self.compact_at = (
            DEFAULT_COMPACT_SEGMENTS if compact_at is None else compact_at
        )
        if self.compact_at < 2:
            raise UniverseError(
                f"checkpoint compaction threshold must be >= 2, got "
                f"{self.compact_at}"
            )
        self.token = compatibility_token(protocol, max_events)
        # Monolithic mode retains the cumulative stream (it rewrites the
        # whole thing per save); segmented mode only buffers the delta.
        self.stream: list = []
        self._pending_records: list = []
        self._segments: list[dict] = []
        self._generation = 0
        self._saved_frontier = 0
        self._saved_edges = 0
        self._saved_count = 1
        self._saved_layers = 0
        self._complete_at_save = True
        self.layers = 0
        self.resumed_from: int | None = None
        self.salvaged = False
        self.saves = 0
        self.save_seconds: list[float] = []
        self.writer_seconds: list[float] = []
        self.background = background
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
            raw = retry_io(
                "manifest read",
                lambda: self._fileops.read_bytes(self.path),
                policy=self._retry,
                on_retry=self._log_retry,
            )
        except FileNotFoundError:
            return None
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        version = _parse_version(raw)
        if version == 1:
            return self._resume_monolithic(universe, raw)
        if version == CHECKPOINT_VERSION:
            return self._resume_segmented(universe, raw)
        raise CheckpointError(
            f"checkpoint format version {version} is not supported (this "
            f"build reads versions {MIN_READABLE_VERSION}"
            f"..{CHECKPOINT_VERSION})"
        )

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

    def _resume_monolithic(self, universe, raw: bytes):
        """Read a version-1 blob; migrate it to the segmented layout
        when this session writes segmented."""
        payload = self._decode_v1(raw)
        self._check_token(payload["token"])
        stream = payload["stream"]
        offsets = array("q")
        offsets.frombytes(payload["succ_offsets"])
        resumed = self._install(
            universe,
            stream,
            payload["succ_ids"],
            offsets,
            payload["count"],
            payload["frontier_start"],
            payload["complete"],
            payload["layers"],
        )
        if self.format == "monolithic":
            self.stream = list(stream)
        else:
            # Migrate in place: one folded segment + manifest covering
            # the restored state, so subsequent saves append deltas.
            # ``_install`` marked everything as already saved; rewind the
            # watermarks so the fold captures the full stream and CSR.
            self._pending_records = list(stream)
            self._saved_frontier = 0
            self._saved_edges = 0
            self._saved_layers = 0
            self._save_segmented(payload["frontier_start"], universe)
            # Migration must be durable before the resumed exploration
            # starts appending deltas on top of it.
            self.flush()
        return resumed

    def _resume_segmented(self, universe, raw: bytes):
        manifest = self._decode_manifest(raw)
        self._check_token(manifest["token"])
        entries = manifest["segments"]
        self._generation = manifest["generation"]
        stream: list = []
        succ_ids = array("q")
        offsets = array("q", (0,))
        kept: list[dict] = []
        damage: tuple[int, str] | None = None
        for index, entry in enumerate(entries):
            try:
                _, decoded = _load_segment(
                    self.path, entry, self._fileops, self._log_retry
                )
            except _SegmentInvalid as error:
                damage = (index, str(error))
                break
            stream.extend(decoded["records"])
            succ_ids.frombytes(decoded["succ_ids"])
            offsets.frombytes(decoded["succ_offsets"])
            kept.append(entry)
        if damage is not None:
            index, reason = damage
            name = entries[index]["name"]
            if self.strict:
                raise CheckpointError(
                    f"checkpoint {self.path} segment {name} is corrupt "
                    f"({reason}); {index} of {len(entries)} segments are "
                    f"intact — resume without --strict to salvage that "
                    f"prefix"
                )
            self.salvaged = True
            self.recovery_log.record(
                "corrupt_segment",
                "salvage-truncate" if kept else "restart",
                layer=entries[index]["layer_from"],
                detail=f"{name}: {reason}",
            )
        self._discard_orphans(
            universe, {entry["name"] for entry in entries}
        )
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
        return self._install(
            universe,
            stream,
            succ_ids.tobytes(),
            offsets,
            last["count"],
            last["frontier_start"],
            last["complete"] if damage is not None else manifest["complete"],
            last["layer_to"],
        )

    def _discard_orphans(self, universe, referenced: set[str]) -> None:
        """Remove (and log) segment files the manifest never committed —
        the torn tail of a crash between segment append and manifest
        replace."""
        pattern = f"{self.path.name}.g*-*.seg"
        for stray in sorted(self.path.parent.glob(pattern)):
            if stray.name in referenced:
                continue
            self.recovery_log.record(
                "torn_save",
                "discard-orphan",
                layer=self.layers,
                detail=stray.name,
            )
            try:
                self._fileops.unlink(stray)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _install(
        self,
        universe,
        stream,
        succ_ids_bytes,
        offsets,
        count,
        frontier_start,
        complete,
        layers,
    ) -> ResumedExploration:
        """Rebuild ``universe``'s stores from a verified stream + CSR.

        The replay goes straight into the packed columns
        (:meth:`~repro.universe.arena.ArenaStore.replay`), so the rebuilt
        state is bit-identical; the hot window advances with the stream,
        so resume memory stays O(two layers).
        """
        if len(offsets) != frontier_start + 1:
            raise CheckpointError(
                f"checkpoint {self.path} CSR desync: {len(offsets)} "
                f"offsets for a frontier at {frontier_start}"
            )
        arena = universe._configurations
        ids_by_hash = arena.replay(stream)
        if len(arena) != count:
            raise CheckpointError(
                f"checkpoint {self.path} replay desync: rebuilt "
                f"{len(arena)} configurations, file records {count}"
            )
        universe._ids_by_hash.clear()
        universe._ids_by_hash.update(ids_by_hash)
        del universe._succ_ids[:]
        universe._succ_ids.frombytes(succ_ids_bytes)
        del universe._succ_offsets[:]
        universe._succ_offsets.extend(offsets)
        universe._complete = complete
        self.layers = layers
        self._saved_layers = layers
        self._saved_frontier = frontier_start
        self._saved_edges = len(universe._succ_ids)
        self._saved_count = count
        self._complete_at_save = complete
        self.resumed_from = frontier_start
        return ResumedExploration(frontier_start, stream, layers)

    # -- commit --------------------------------------------------------
    def commit_layer(
        self, records, frontier_start, universe, final: bool = False
    ) -> None:
        """Fold one completed layer's discovery records into the pending
        delta and save if the interval (or ``final``) says so.

        A degraded session keeps counting layers (the clock other
        recovery events are stamped with) but buffers nothing — the
        delta could never be written, so holding it would just leak the
        memory the run may already be short on."""
        self.layers += 1
        if self.degraded:
            self._pending_records = []
            return
        if records:
            self._pending_records.extend(records)
        if final or self.layers % self.every == 0:
            self.save(frontier_start, universe, final=final)

    def save(self, frontier_start: int, universe, final: bool = False) -> None:
        """Persist the state up to ``frontier_start`` (format-dispatch).

        Segmented saves hand the delta to the background writer and
        return; the ``final`` save additionally :meth:`flush`\\ es so a
        finished exploration never returns with uncommitted state.

        A degraded session no-ops; a storage-classified failure on the
        synchronous paths degrades the session here (the background
        writer degrades inside its own loop).  Unclassified errors —
        including a sticky writer error — re-raise verbatim.
        """
        if self.degraded:
            return
        start = time.perf_counter()
        try:
            if self.format == "monolithic":
                self._save_monolithic(frontier_start, universe)
            else:
                self._save_segmented(frontier_start, universe)
                if final:
                    self.flush()
        except Exception as error:
            if classify_storage_error(error) is None:
                raise
            self._degrade(error)
            return
        self.saves += 1
        self.save_seconds.append(time.perf_counter() - start)

    # -- segmented writer ----------------------------------------------
    def _segment_name(self, generation: int, index: int) -> str:
        return f"{self.path.name}.g{generation}-{index:06d}.seg"

    def _save_segmented(self, frontier_start: int, universe) -> None:
        """Snapshot this save's delta and hand it to the writer.

        Everything the writer needs is copied (or ownership-transferred)
        here, on the exploration thread: the pending-records list is
        handed off wholesale, the CSR slices are materialised with
        ``tobytes()``, and the header counters are plain values — the
        universe is free to mutate the moment this returns.  Watermarks
        advance immediately so the *next* delta starts where this one
        ended, regardless of when the write lands on disk.
        """
        succ_ids = universe._succ_ids
        offsets = universe._succ_offsets
        records = self._pending_records
        job = {
            "records": records,
            "succ_ids": succ_ids[self._saved_edges :].tobytes(),
            "succ_offsets": offsets[
                self._saved_frontier + 1 : frontier_start + 1
            ].tobytes(),
            "generation": self._generation,
            "index": self._segment_index,
            "layer_from": self._saved_layers,
            "layer_to": self.layers,
            "frontier_start": frontier_start,
            "count": len(universe._configurations),
            "complete": universe._complete,
            "actions": self._take_fault_actions(),
        }
        self._segment_index += 1
        self._saved_frontier = frontier_start
        self._saved_edges = len(succ_ids)
        self._saved_count = job["count"]
        self._saved_layers = self.layers
        self._complete_at_save = job["complete"]
        self._pending_records = []
        if self.background:
            self._enqueue(job)
        else:
            self._write_segment_job(job)
        if self._segment_index > self.compact_at:
            self.flush()
            self._compact(universe)
            self._segment_index = len(self._segments)

    def arm_storage_faults(self, actions) -> bool:
        """Queue write-fault arming *behind* every save already handed
        to the background writer, so an armed fault can only land on
        this layer boundary's own (or a later) filesystem operation —
        never retroactively on a still-queued earlier save, whose
        manifest must stay committable.  Returns ``False`` when the
        session cannot order the arming (foreground writes, monolithic
        format, degraded, or an idle drained writer — all of which make
        the caller's direct arming already ordered)."""
        if self.degraded or self.format != "segmented" or not self.background:
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
        """Compress, append, and commit one segment (writer thread, or
        the calling thread when ``background=False``)."""
        arm = job.get("arm")
        if arm is not None:
            # Queue-ordered fault arming marker, not a segment: every
            # save enqueued before it has committed by now.
            for kind, seconds in arm:
                self._fileops.arm(kind, seconds)
            return
        start = time.perf_counter()
        actions = job["actions"]
        payload = compress_batch(
            {
                "records": job["records"],
                "succ_ids": job["succ_ids"],
                "succ_offsets": job["succ_offsets"],
            }
        )
        header = {
            "version": CHECKPOINT_VERSION,
            "generation": job["generation"],
            "index": job["index"],
            "layer_from": job["layer_from"],
            "layer_to": job["layer_to"],
            "frontier_start": job["frontier_start"],
            "count": job["count"],
            "complete": job["complete"],
            "records": len(job["records"]),
            "payload_len": len(payload),
            "payload_crc": zlib.crc32(payload),
        }
        blob = _encode_segment(header, payload)
        name = self._segment_name(job["generation"], job["index"])
        seg_path = self.path.with_name(name)
        retry_io(
            "segment append",
            lambda: self._fileops.write_durable(seg_path, blob),
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
        entry = {
            "name": name,
            "size": len(blob),
            "payload_crc": header["payload_crc"],
            "layer_from": header["layer_from"],
            "layer_to": header["layer_to"],
            "frontier_start": header["frontier_start"],
            "count": header["count"],
            "complete": header["complete"],
            "records": header["records"],
        }
        self._segments.append(entry)
        self._write_manifest()
        if any(kind == "corrupt_segment" for kind, _ in actions):
            # Chaos hook: flip one committed payload byte *after* the
            # CRC was recorded — the next resume must detect + salvage.
            damaged = bytearray(seg_path.read_bytes())
            damaged[-1] ^= 0xFF
            seg_path.write_bytes(bytes(damaged))
        self.writer_seconds.append(time.perf_counter() - start)

    def _write_manifest(self) -> None:
        # Totals come from the last *committed* segment, not the live
        # watermarks: with queued background saves the watermarks run
        # ahead of the disk state, and the manifest must describe
        # exactly what its segment list can rebuild.
        last = self._segments[-1] if self._segments else None
        _commit_manifest(
            self.path,
            {
                "token": self.token,
                "layers": last["layer_to"] if last else self._saved_layers,
                "frontier_start": (
                    last["frontier_start"] if last else self._saved_frontier
                ),
                "count": last["count"] if last else self._saved_count,
                "complete": (
                    last["complete"] if last else self._complete_at_save
                ),
                "generation": self._generation,
                "segments": self._segments,
                "recovery": [
                    event.as_dict() for event in self.recovery_log
                ],
            },
            fileops=self._fileops,
            policy=self._retry,
            on_retry=self._log_retry,
        )

    def _compact(self, universe) -> None:
        """Fold every committed segment into one under a new generation.

        Crash-safe by construction: the fold is written under names the
        current manifest does not reference, the manifest replace is the
        commit point, and only then are the old generation's files
        removed (a crash in between leaves orphans, discarded on the
        next resume).
        """
        records: list = []
        succ_ids_parts: list[bytes] = []
        offsets_parts: list[bytes] = []
        for entry in self._segments:
            try:
                _, decoded = _load_segment(
                    self.path, entry, self._fileops, self._log_retry
                )
            except _SegmentInvalid as error:  # pragma: no cover - defensive
                # A just-committed segment went bad under us: skip the
                # fold, keep the (still consistent) multi-segment layout.
                warnings.warn(
                    f"checkpoint compaction skipped: {entry['name']} "
                    f"failed verification ({error})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
            records.extend(decoded["records"])
            succ_ids_parts.append(decoded["succ_ids"])
            offsets_parts.append(decoded["succ_offsets"])
        last = self._segments[-1]
        payload = compress_batch(
            {
                "records": records,
                "succ_ids": b"".join(succ_ids_parts),
                "succ_offsets": b"".join(offsets_parts),
            }
        )
        generation = self._generation + 1
        header = {
            "version": CHECKPOINT_VERSION,
            "generation": generation,
            "index": 0,
            "layer_from": 0,
            "layer_to": last["layer_to"],
            "frontier_start": last["frontier_start"],
            "count": last["count"],
            "complete": last["complete"],
            "records": len(records),
            "payload_len": len(payload),
            "payload_crc": zlib.crc32(payload),
        }
        blob = _encode_segment(header, payload)
        name = self._segment_name(generation, 0)
        retry_io(
            "compaction fold write",
            lambda: self._fileops.write_durable(self.path.with_name(name), blob),
            policy=self._retry,
            on_retry=self._log_retry,
        )
        stale = [entry["name"] for entry in self._segments]
        self._segments = [
            {
                "name": name,
                "size": len(blob),
                "payload_crc": header["payload_crc"],
                "layer_from": 0,
                "layer_to": last["layer_to"],
                "frontier_start": last["frontier_start"],
                "count": last["count"],
                "complete": last["complete"],
                "records": len(records),
            }
        ]
        self._generation = generation
        self._write_manifest()
        for old in stale:
            try:
                self._fileops.unlink(self.path.with_name(old))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # -- monolithic (v1) writer ----------------------------------------
    def _save_monolithic(self, frontier_start: int, universe) -> None:
        """The retained PR 6 full-rewrite save: one blob, O(stream)."""
        self.stream.extend(self._pending_records)
        self._pending_records = []
        payload = {
            "token": (1,) + self.token[1:],
            "stream": self.stream,
            "count": len(universe._configurations),
            "frontier_start": frontier_start,
            "succ_ids": universe._succ_ids.tobytes(),
            "succ_offsets": universe._succ_offsets.tobytes(),
            "complete": universe._complete,
            "layers": self.layers,
        }
        blob = CHECKPOINT_MAGIC + compress_batch(payload)
        temp = self.path.with_name(self.path.name + ".tmp")

        def commit() -> None:
            self._fileops.write_durable(temp, blob)
            self._fileops.replace(temp, self.path)

        retry_io(
            "monolithic save",
            commit,
            policy=self._retry,
            on_retry=self._log_retry,
        )

    # -- decoding ------------------------------------------------------
    @staticmethod
    def _decode_v1(raw: bytes) -> dict:
        try:
            payload = decompress_batch(raw[len(CHECKPOINT_MAGIC):])
        except Exception as error:
            raise CheckpointError(
                f"checkpoint is corrupt or truncated: {error}"
            ) from error
        if not isinstance(payload, dict) or "token" not in payload:
            raise CheckpointError("checkpoint payload is malformed")
        return payload

    def _decode_manifest(self, raw: bytes) -> dict:
        return decode_manifest(raw)


def decode_manifest(raw: bytes) -> dict:
    """Decode + CRC-verify a version-2 manifest blob, or raise
    :class:`CheckpointError`."""
    base = len(MANIFEST_MAGIC)
    if len(raw) < base + 4:
        raise CheckpointError("checkpoint manifest is corrupt or truncated")
    crc = int.from_bytes(raw[base : base + 4], "little")
    blob = raw[base + 4 :]
    if zlib.crc32(blob) != crc:
        raise CheckpointError(
            "checkpoint manifest is corrupt or truncated (CRC mismatch)"
        )
    try:
        manifest = pickle.loads(zlib.decompress(blob))
    except Exception as error:
        raise CheckpointError(
            f"checkpoint manifest is corrupt or truncated: {error}"
        ) from error
    if not isinstance(manifest, dict) or "token" not in manifest:
        raise CheckpointError("checkpoint payload is malformed")
    return manifest


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

    Works offline on the files alone (no protocol object needed): every
    segment is read and fully CRC-verified, their deltas are
    concatenated into a single folded segment written under a **bumped
    generation**, the manifest replace is the commit point, and only
    then are the old generation's files unlinked — the same crash-safe
    dance the in-session auto-compaction performs, so a kill at any
    point leaves either the old layout or the new one plus discardable
    orphans.  A damaged segment aborts with :class:`CheckpointError`
    (run ``repro checkpoint verify`` / a non-strict resume to salvage
    first).  Returns a report dict (segment and byte counts before and
    after, the new generation).
    """
    path = Path(path)
    fileops = DEFAULT_FILEOPS
    try:
        raw = retry_io("manifest read", lambda: fileops.read_bytes(path))
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    version = _parse_version(raw)
    if version == 1:
        return {
            "path": str(path),
            "compacted": False,
            "reason": "version-1 checkpoints are a single blob already",
            "segments_before": 1,
            "segments_after": 1,
        }
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is not supported (this "
            f"build reads versions {MIN_READABLE_VERSION}"
            f"..{CHECKPOINT_VERSION})"
        )
    manifest = decode_manifest(raw)
    entries = manifest["segments"]
    bytes_before = sum(entry["size"] for entry in entries)
    if len(entries) <= 1:
        return {
            "path": str(path),
            "compacted": False,
            "reason": "already a single segment",
            "segments_before": len(entries),
            "segments_after": len(entries),
            "bytes_before": bytes_before,
            "bytes_after": bytes_before,
            "generation": manifest["generation"],
        }
    records: list = []
    succ_ids_parts: list[bytes] = []
    offsets_parts: list[bytes] = []
    for entry in entries:
        try:
            _, decoded = _load_segment(path, entry)
        except _SegmentInvalid as error:
            raise CheckpointError(
                f"cannot compact {path}: segment {entry['name']} is "
                f"damaged ({error}) — verify/salvage before compacting"
            ) from error
        records.extend(decoded["records"])
        succ_ids_parts.append(decoded["succ_ids"])
        offsets_parts.append(decoded["succ_offsets"])
    last = entries[-1]
    payload = compress_batch(
        {
            "records": records,
            "succ_ids": b"".join(succ_ids_parts),
            "succ_offsets": b"".join(offsets_parts),
        }
    )
    generation = manifest["generation"] + 1
    header = {
        "version": CHECKPOINT_VERSION,
        "generation": generation,
        "index": 0,
        "layer_from": 0,
        "layer_to": last["layer_to"],
        "frontier_start": last["frontier_start"],
        "count": last["count"],
        "complete": last["complete"],
        "records": len(records),
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload),
    }
    blob = _encode_segment(header, payload)
    name = f"{path.name}.g{generation}-{0:06d}.seg"
    retry_io(
        "compaction fold write",
        lambda: fileops.write_durable(path.with_name(name), blob),
    )
    folded = {
        "name": name,
        "size": len(blob),
        "payload_crc": header["payload_crc"],
        "layer_from": 0,
        "layer_to": last["layer_to"],
        "frontier_start": last["frontier_start"],
        "count": last["count"],
        "complete": last["complete"],
        "records": len(records),
    }
    _commit_manifest(
        path,
        {
            "token": manifest["token"],
            "layers": manifest["layers"],
            "frontier_start": manifest["frontier_start"],
            "count": manifest["count"],
            "complete": manifest["complete"],
            "generation": generation,
            "segments": [folded],
            "recovery": manifest.get("recovery", []),
        },
        fileops=fileops,
    )
    for entry in entries:
        try:
            fileops.unlink(path.with_name(entry["name"]))
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    return {
        "path": str(path),
        "compacted": True,
        "segments_before": len(entries),
        "segments_after": 1,
        "bytes_before": bytes_before,
        "bytes_after": len(blob),
        "generation": generation,
        "layers": manifest["layers"],
        "count": manifest["count"],
    }


# ---------------------------------------------------------------------
# Inspection (``repro checkpoint verify|inspect``)
# ---------------------------------------------------------------------
def inspect_checkpoint(path, verify_segments: bool = True) -> dict:
    """Integrity/metadata report of a checkpoint — never raises.

    Returns a dict with ``exists``, ``format_version``, the decoded
    compatibility ``token`` (as a readable mapping), ``layers``/
    ``count``/``complete``/``frontier_start``, a per-segment status list
    (``ok`` / ``missing`` / ``corrupt: <reason>`` / ``unverified``),
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
        raw = retry_io(
            "manifest read", lambda: DEFAULT_FILEOPS.read_bytes(path)
        )
    except FileNotFoundError:
        report["exists"] = False
        report["error"] = "no such file"
        return report
    except OSError as error:
        report["exists"] = False
        report["error"] = str(error)
        return report
    try:
        version = _parse_version(raw)
    except CheckpointError as error:
        report["error"] = str(error)
        return report
    report["format_version"] = version

    def token_view(token) -> dict:
        return {
            "format_version": token[0],
            "protocol": token[1],
            "processes": list(token[2]),
            "max_events": token[3],
        }

    if version == 1:
        try:
            payload = CheckpointSession._decode_v1(raw)
        except CheckpointError as error:
            report["error"] = str(error)
            return report
        report["token"] = token_view(payload["token"])
        report["layers"] = payload["layers"]
        report["count"] = payload["count"]
        report["complete"] = payload["complete"]
        report["frontier_start"] = payload["frontier_start"]
        report["salvageable_layers"] = payload["layers"]
        report["valid"] = True
        return report
    if version != CHECKPOINT_VERSION:
        report["error"] = (
            f"format version {version} is not supported (this build reads "
            f"versions {MIN_READABLE_VERSION}..{CHECKPOINT_VERSION})"
        )
        return report
    try:
        manifest = decode_manifest(raw)
    except CheckpointError as error:
        report["error"] = str(error)
        return report
    report["token"] = token_view(manifest["token"])
    report["layers"] = manifest["layers"]
    report["count"] = manifest["count"]
    report["complete"] = manifest["complete"]
    report["frontier_start"] = manifest["frontier_start"]
    report["generation"] = manifest["generation"]
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
    referenced = {entry["name"] for entry in manifest["segments"]}
    report["orphans"] = sorted(
        stray.name
        for stray in path.parent.glob(f"{path.name}.g*-*.seg")
        if stray.name not in referenced
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
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "DEFAULT_COMPACT_SEGMENTS",
    "MANIFEST_MAGIC",
    "SEGMENT_MAGIC",
    "CheckpointError",
    "CheckpointSession",
    "ResumedExploration",
    "RssWatchdog",
    "compact_checkpoint",
    "compatibility_token",
    "decode_manifest",
    "inspect_checkpoint",
    "process_rss_mb",
]

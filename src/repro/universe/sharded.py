"""Multiprocess sharded frontier exploration (``Sharding(workers=K)``).

The layer loop is the universe's: :meth:`repro.universe.explorer.Universe._explore`
is the one BFS driver of both engines (seeding or checkpoint resume, the
RSS watchdog, the layer-boundary epilogue, truncation).  This module
supplies only the sharded *layer body* — one broadcast/expand/gather/merge
round per layer — plus worker spawn, supervision and teardown around the
driver.

The driver walks the frontier one BFS layer at a time.  Because every
edge extends a configuration by exactly one event, each layer holds
configurations of one uniform event count — so duplicate discoveries can
only collide *within* the layer being expanded, never against earlier
layers.  That invariant is what makes the frontier partitionable:

* the frontier of layer ``L`` is split into ``K`` shards by the parent's
  *content hash* (``hash % K`` — shard-stable because the rolling content
  hash is a pure function of the configuration, see
  :mod:`repro.core.configuration`);
* worker ``w`` expands the parents of its shard: compiled-table enabled
  events, rolling child hashes, and *local* duplicate resolution by
  row comparison (hash collisions are detected exactly, not
  probabilistically);
* workers ship per-parent **edge batches** — a duplicate edge is one
  ``int`` (the index of the worker-local candidate it collapsed into), a
  candidate-new edge is ``(event, child_hash)``; the batch is packed with
  the shared batch codec (:func:`repro.universe.arena.compress_batch`)
  in the worker and framed with a CRC-32 so a corrupted payload is
  rejected before it is ever inflated or unpickled;
* the coordinator merges the batches *in global BFS order* (ascending
  parent id, original enabled-event order within a parent), resolving
  cross-worker duplicates against its authoritative id table with the
  kernel's own dedup logic (and its one collision helper,
  ``_resolve_collision``) and appending each first-discovered child as
  packed arena columns, plus the CSR successor rows;
* the merged discovery stream ``[(parent_id, event), ...]`` is broadcast
  back (batch-compressed once, sent ``K`` times) and every worker replays
  it to keep its frontier bit-identical to the coordinator's.

**One packed frontier.**  The kernel, every worker and the coordinator
hold their frontier in the same
:class:`~repro.universe.frontier.PackedFrontier`: a window of packed
state rows (fixed-width tuples of interned per-process states in
``ordered_processes`` order) plus per-layer-interned received/in-flight
message frozensets, with no ``Configuration`` objects and, on the
workers, no id table.  States never cross a process boundary: each
interpreter interns its own.  Events arrive unpickled (a worker's batch
at the coordinator, the merged stream at a worker), so each distinct
object is swapped for the receiving interpreter's canonical one once
(:meth:`~repro.universe.frontier.PackedFrontier.canonicaliser`), and
the transitions, rows and arena vocabulary built from them hit
identity as the kernel's do.  Shard
expansion only ever reads the *current* layer — batch dedup is
layer-local by the uniform-event-count argument above, and cross-layer
collisions are resolved coordinator-side — and replaying the stream
advances the window floor parent-by-parent, so a *full*-stream replay
after a respawn still peaks at one layer of rows.  The coordinator's
frontier holds exactly the rows the workers hold, so folding a dead
worker's shard is a call to that frontier's ``expand``: no second
expander, and no replay at fold time.

Determinism: under the same driver, the coordinator merge *is* the
kernel's layer body fed by a pre-computed enabled-event stream, so the
resulting universe — dense ids, CSR successor arrays, hash table
(including collision buckets), completeness flag, truncation point under
``on_limit="truncate"`` — is bit-identical to single-process
exploration.  The test suite asserts this
against :func:`repro.universe.reference.reference_bfs` on star/tree/ring
broadcast, token bus, ping-pong, selective-receive, enabling-filter and
custom-enabling protocols, with and without folded shards.

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
  stream as its first replay (the replacement rebuilds its frontier and
  re-expands the failed layer shard — bit-identical by construction), or
* once the respawn budget (``SupervisionPolicy.max_respawns``) is spent,
  **folds** the dead worker's shard into itself: the coordinator expands
  that shard from its own packed frontier for the rest of the run.  The
  shard *assignment* (``hash % K``) never changes — only who executes a
  shard — which is exactly why recovery cannot perturb the result.

Worker-side exceptions are shipped as structured error frames (type,
message, original traceback) and re-raised by the coordinator as
:class:`WorkerError` — deterministic application errors are *not*
retried, because a replacement would fail identically.

Deterministic fault injection (:mod:`repro.universe.faults`) threads
through ``_worker_main`` so every one of these recovery paths is
exercised by tests (``tests/test_universe_faults.py``).
Layer-boundary checkpointing, storage-fault arming and the RSS watchdog
(:mod:`repro.universe.checkpoint`; the watchdog also sums the live
workers' RSS through :meth:`ShardedExplorer.worker_pids`) run in the
universe's driver, identically for both engines.

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
from functools import partial
from multiprocessing.connection import wait as _connection_wait

from repro.core.configuration import hash_domain_token
from repro.core.errors import UniverseError
from repro.universe.arena import compress_batch, decompress_batch
from repro.universe.explorer import _resolve_collision
from repro.universe.frontier import PackedFrontier
from repro.universe.retry import is_storage_error, transient_spawn_error

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
        frontier = PackedFrontier(protocol, max_events)
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "stop":
                # Farewell frame: this worker's peak RSS, so the
                # coordinator can attribute sharded memory per process
                # (perfbench's `sharded.worker_rss_mb`).
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
            frontier.apply(
                decompress_batch(blob),
                progress=heartbeat,
                progress_every=heartbeat_records,
            )
            if frontier.count != layer_end:
                _send_error(
                    connection,
                    None,
                    f"frontier desync: {frontier.count} "
                    f"configurations, expected {layer_end}",
                )
                return
            batch, incomplete = frontier.expand(
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
        self._frontier: PackedFrontier | None = None
        self._replay: list = []
        self._stream_blob: tuple[int, bytes] | None = None
        self._context = None
        self._token = None
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
                        not transient_spawn_error(error)
                        or attempt == self._policy.spawn_attempts
                    ):
                        raise
                    self.recovery_log.record(
                        "spawn",
                        "retry",
                        shard=shard,
                        detail=(
                            f"attempt {attempt}/"
                            f"{self._policy.spawn_attempts}: {error}"
                        ),
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

    def worker_pids(self) -> list[int]:
        """Pids of the live workers, for the RSS watchdog."""
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
                self.recovery_log.record(
                    failure.kind,
                    "respawn-failed",
                    layer=layer,
                    shard=shard,
                    detail=f"spawn: {error}",
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
                self.recovery_log.record(
                    failure.kind,
                    "respawn-failed",
                    layer=layer,
                    shard=shard,
                    detail=str(error),
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
            self.recovery_log.record(
                failure.kind,
                "respawn",
                layer=layer,
                shard=shard,
                detail=failure.detail,
            )
            return
        state.pending.discard(shard)
        records, incomplete = self._frontier.expand(
            layer_start, layer_end, shard, self._workers
        )
        state.batches[shard] = records
        state.incomplete |= incomplete
        self.recovery_log.record(
            failure.kind,
            "fold",
            layer=layer,
            shard=shard,
            detail=failure.detail,
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
                records, incomplete = self._frontier.expand(
                    layer_start, layer_end, shard, self._workers
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
    def explore_into(self, universe) -> None:
        """Build ``universe`` with this engine: spawn every worker, run
        the universe's one BFS layer driver
        (:meth:`~repro.universe.explorer.Universe._explore`) with the
        sharded layer body, collect the workers' farewell frames, and
        tear every process down on every exit path."""
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX only
            raise UniverseError(
                "sharded exploration requires the 'fork' multiprocessing "
                "start method (content hashes depend on the interpreter's "
                "hash seed, which fork inherits)"
            ) from error
        self._token = hash_domain_token()
        # Share the universe's structured log so worker-failover rungs,
        # checkpoint salvage events and storage degradations interleave
        # on one monotonic sequence.
        self.recovery_log = universe._recovery_log
        try:
            for shard in range(self._workers):
                self._spawn(shard)
            universe._explore(self)
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
        attribution for perfbench's sharded layer.  Best-effort: a worker that
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

    def layer_body(self, universe, frontier, limit):
        """The driver's hook: bind the coordinator to ``universe``, its
        ``frontier`` and the configuration ``limit``, and return the
        sharded layer body.  Fresh workers rebuild from the root, so
        their first replay is every discovery the arena already holds:
        the restored stream on resume, nothing on a fresh run."""
        self._frontier = frontier
        arena = universe._configurations
        self._replay = arena.records(1, len(arena))
        return partial(self._expand_layer, universe, limit)

    def _expand_layer(self, universe, limit, layer_start, layer_end, layer):
        """The sharded layer body: broadcast, gather, merge.

        The workers replay the previous layer's discovery stream and
        expand their shards of ``[layer_start, layer_end)``; the merge
        walks the layer in global BFS order, reading parent rows and
        hashes from the coordinator's frontier — the same structure the
        workers replay into — and resolving cross-worker duplicates with
        its :meth:`~repro.universe.frontier.PackedFrontier.row_matches`.
        Each first-discovered child becomes one window entry and one row
        of three per-layer columns, never a ``Configuration``; the
        columns go to the arena in one
        :meth:`~repro.universe.arena.ArenaStore.extend_children` when the
        merge ends or the bound stops it, and are zipped into the
        discovery records the workers replay next layer.  Returns whether
        the ``max_configurations`` bound stopped the merge.
        """
        workers = self._workers
        arena = universe._configurations
        ids_by_hash = universe._ids_by_hash
        succ_ids = universe._succ_ids
        succ_offsets = universe._succ_offsets
        frontier = self._frontier
        window = frontier.window
        step = frontier.step
        child_entry = frontier.child
        row_matches = frontier.row_matches
        canonical = frontier.canonicaliser()
        state = self._exchange_layer(
            universe, self._replay, layer_start, layer_end, layer
        )
        if state.incomplete:
            universe._complete = False
        batches = state.batches
        count = len(arena)
        edges = len(succ_ids)
        # The layer's first discoveries, as the arena's three columns.
        parents: list[int] = []
        events: list = []
        hashes: list[int] = []
        bound_hit = False
        cursors = [0] * workers
        # Per worker, candidate index -> resolved global id, filled in
        # batch order as the merge walks the layer.
        candidate_ids: list[list[int]] = [[] for _ in range(workers)]
        for parent_id in range(layer_start, layer_end):
            entry = window.pop(parent_id)
            row, parent_hash = entry[0], entry[1]
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
            for edge in edge_list:
                if type(edge) is int:
                    succ_ids.append(resolved[edge])
                    edges += 1
                    continue
                event, child_hash = edge
                move, child_row, _ = step(row, parent_hash, canonical(event))
                existing = ids_by_hash.get(child_hash)
                if existing is None:
                    if count >= limit:
                        bound_hit = True
                        break
                elif type(existing) is int and row_matches(existing, child_row):
                    resolved.append(existing)
                    succ_ids.append(existing)
                    edges += 1
                    continue
                else:
                    child_id = _resolve_collision(
                        ids_by_hash, child_hash, existing, row_matches,
                        child_row, count, limit,
                    )
                    if child_id is None:
                        bound_hit = True
                        break
                    if child_id != count:
                        resolved.append(child_id)
                        succ_ids.append(child_id)
                        edges += 1
                        continue
                # First discovery.
                child_id = count
                if existing is None:
                    ids_by_hash[child_hash] = child_id
                count += 1
                window[child_id] = child_entry(entry, move, child_row, child_hash)
                parents.append(parent_id)
                events.append(move[3])
                hashes.append(child_hash)
                resolved.append(child_id)
                succ_ids.append(child_id)
                edges += 1
            succ_offsets.append(edges)
            if bound_hit:
                break
        arena.extend_children(parents, events, hashes)
        self._replay = list(zip(parents, events))
        if not bound_hit:
            # Every parent of the layer is popped: a folded shard's
            # expand starts at the next layer.
            frontier.floor = layer_end
        return bound_hit


__all__ = [
    "ShardedExplorer",
    "SupervisionPolicy",
    "WorkerError",
    "WorkerFailure",
    "resolve_workers",
]

"""Deterministic fault injection for the sharded exploration engine.

The paper studies what processes can know in a system whose peers and
messages fail; the sharded engine (:mod:`repro.universe.sharded`) *is*
such a system — K worker processes exchanging batches over pipes.  This
module gives its failure modes a deterministic, testable shape: a
:class:`FaultPlan` is an explicit (or seeded) list of :class:`Fault`
actions, each firing **at most once** at a specific (worker shard, BFS
layer), threaded through ``Sharding(workers=K, fault_plan=plan)``.

Supported fault kinds, and the recovery path each exercises:

``kill``
    The worker hard-exits (``os._exit``) on receiving the layer's expand
    request — the coordinator sees ``EOFError`` on the pipe and runs the
    crash-failover path (respawn from the replayed discovery stream, or
    fold the shard into the coordinator once the respawn budget is
    spent).
``drop_batch``
    The worker expands the layer but never sends its batch — silence.
    The coordinator's heartbeat timeout fires and the worker is treated
    as hung: terminated and replaced.
``delay_batch``
    The worker sleeps ``seconds`` before sending.  A delay shorter than
    the heartbeat timeout is absorbed (measures pure wait overhead); a
    longer one is indistinguishable from a hang and triggers the same
    timeout failover.
``corrupt_batch``
    The worker flips a byte in its pickled batch *after* computing the
    frame checksum.  The coordinator's CRC verification rejects the
    frame and the worker is replaced — the payload is never unpickled.

Two further kinds target the **checkpoint** layer rather than a worker
(their ``shard`` is the sentinel ``-1``; they work on the kernel engine
too, where there are no workers at all):

``torn_save``
    The saving process hard-exits between the segment append and the
    manifest replace — the archetypal torn write.  The orphan segment is
    discarded (and logged) on the next resume.
``corrupt_segment``
    One byte of the just-committed segment is flipped *after* its CRC
    was recorded.  The next resume detects the mismatch and salvages the
    valid prefix (or raises under ``strict``).
``stall_write``
    The background checkpoint writer sleeps ``seconds`` between the
    segment append and the manifest replace — a deterministic window in
    the exact spot a torn save happens, so the chaos harness can SIGKILL
    the whole process mid-background-write and assert the orphan-discard
    recovery path.

Six **storage fault kinds** (PR 10) target the filesystem underneath
checkpoints and the arena spill tier rather than a worker or the save
protocol.  Like checkpoint kinds they are shard-free (``shard`` is the
``-1`` sentinel; a shard qualifier in the CLI grammar is rejected) and
layer-keyed; they are delivered through the fault-injecting file-ops
shim (:class:`repro.universe.fileops.FaultInjectingFileOps`) that every
checkpoint and spill filesystem call routes through:

``enospc``
    The next write-class operation raises ``OSError(ENOSPC)`` — a
    *permanent* error under the typed retry policy
    (:mod:`repro.universe.retry`), escalating straight to the
    degradation ladder (checkpointing disabled loudly, exploration
    continues).
``eio_write`` / ``eio_read``
    The next write/read operation raises ``OSError(EIO)`` — *transient*:
    the whole durable-write unit re-runs from its buffer, or the read
    is retried and CRC re-verified.
``fsync_fail``
    The next ``fsync`` raises ``OSError(EIO)``; the durable-write unit
    restarts from scratch (never a bare fsync retry, which could
    silently drop dirty pages).
``slow_io``
    The next write-class operation sleeps ``seconds`` first — latency,
    not failure.
``fd_exhaust``
    The next open-class operation raises ``OSError(EMFILE)`` —
    transient descriptor pressure, absorbed by the retry.

Write-targeting storage faults arm at the BFS layer boundary covering
``layer`` (same clock as checkpoint faults); ``eio_read`` arms at
engine start so it can land on the resume read path.

Faults are delivered to a worker at spawn time as plain tuples (no
module state crosses the fork), so a plan is reproducible regardless of
scheduling.  Because shard expansion is a pure function of the merged
discovery stream, every recovery path re-derives bit-identical batches;
the fault-injection matrix in ``tests/test_universe_faults.py`` asserts
the recovered universe equals the fault-free one, id for id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import UniverseError

WORKER_FAULT_KINDS = ("kill", "drop_batch", "delay_batch", "corrupt_batch")
CHECKPOINT_FAULT_KINDS = ("torn_save", "corrupt_segment", "stall_write")
STORAGE_FAULT_KINDS = (
    "enospc",
    "eio_read",
    "eio_write",
    "fsync_fail",
    "slow_io",
    "fd_exhaust",
)
FAULT_KINDS = WORKER_FAULT_KINDS + CHECKPOINT_FAULT_KINDS + STORAGE_FAULT_KINDS


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``kind`` fires on worker ``shard`` when it
    handles the expand request for BFS layer ``layer`` (0-based index of
    the coordinator's layer exchanges).  ``seconds`` is only meaningful
    for ``delay_batch`` and ``stall_write``."""

    kind: str
    shard: int
    layer: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise UniverseError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.is_checkpoint or self.is_storage:
            # Checkpoint and storage faults target the saving process /
            # the filesystem, not a worker; normalise the shard to the
            # -1 sentinel.
            object.__setattr__(self, "shard", -1)
        elif self.shard < 0:
            raise UniverseError(f"fault shard must be >= 0, got {self.shard}")
        if self.layer < 0:
            raise UniverseError(f"fault layer must be >= 0, got {self.layer}")
        if self.seconds < 0:
            raise UniverseError(
                f"fault delay must be >= 0, got {self.seconds}"
            )

    @property
    def is_checkpoint(self) -> bool:
        """True for faults that fire in the checkpoint writer rather
        than in a worker."""
        return self.kind in CHECKPOINT_FAULT_KINDS

    @property
    def is_storage(self) -> bool:
        """True for faults delivered through the file-ops shim (they
        fire on the next matching filesystem operation)."""
        return self.kind in STORAGE_FAULT_KINDS

    def as_wire(self) -> tuple:
        """The fault as a plain tuple for the worker spawn arguments."""
        return (self.kind, self.layer, self.seconds)

    def spec(self) -> str:
        """The canonical CLI spelling, ``kind[:shard]@layer[~seconds]``
        — the exact inverse of :meth:`FaultPlan.parse` (round-tripped by
        the hypothesis grammar test)."""
        head = self.kind if self.shard < 0 else f"{self.kind}:{self.shard}"
        text = f"{head}@{self.layer}"
        if self.seconds:
            text += f"~{self.seconds!r}"
        return text


class FaultPlan:
    """An explicit, reproducible schedule of injected faults.

    The plan is owned by the coordinator: each fault is handed to the
    matching shard's worker exactly once, at the first spawn whose shard
    index matches — replacement workers do **not** re-arm faults already
    delivered (a killed worker's unfired faults die with it), so every
    fault fires at most once per exploration.
    """

    def __init__(self, faults: tuple[Fault, ...] | list[Fault] = ()) -> None:
        self._faults = tuple(faults)
        for fault in self._faults:
            if not isinstance(fault, Fault):
                raise UniverseError(
                    f"FaultPlan entries must be Fault instances, got "
                    f"{fault!r}"
                )
        self._delivered: set[int] = set()

    # -- construction helpers ------------------------------------------
    @classmethod
    def kill(cls, shard: int, layer: int) -> "FaultPlan":
        """Kill worker ``shard`` when it receives layer ``layer``."""
        return cls((Fault("kill", shard, layer),))

    @classmethod
    def drop_batch(cls, shard: int, layer: int) -> "FaultPlan":
        """Worker ``shard`` silently drops its layer-``layer`` batch."""
        return cls((Fault("drop_batch", shard, layer),))

    @classmethod
    def delay_batch(
        cls, shard: int, layer: int, seconds: float
    ) -> "FaultPlan":
        """Worker ``shard`` delays its layer-``layer`` batch."""
        return cls((Fault("delay_batch", shard, layer, seconds),))

    @classmethod
    def corrupt_batch(cls, shard: int, layer: int) -> "FaultPlan":
        """Worker ``shard`` corrupts its layer-``layer`` batch frame."""
        return cls((Fault("corrupt_batch", shard, layer),))

    @classmethod
    def torn_save(cls, layer: int) -> "FaultPlan":
        """Hard-exit the saving process between segment append and
        manifest replace at the save covering ``layer``."""
        return cls((Fault("torn_save", -1, layer),))

    @classmethod
    def corrupt_segment(cls, layer: int) -> "FaultPlan":
        """Flip a byte of the segment committed at ``layer`` after its
        CRC was recorded."""
        return cls((Fault("corrupt_segment", -1, layer),))

    @classmethod
    def stall_write(cls, layer: int, seconds: float) -> "FaultPlan":
        """Stall the background checkpoint writer for ``seconds``
        between segment append and manifest replace at the save covering
        ``layer`` — the chaos harness's SIGKILL window."""
        return cls((Fault("stall_write", -1, layer, seconds),))

    @classmethod
    def storage(cls, kind: str, layer: int, seconds: float = 0.0) -> "FaultPlan":
        """One storage fault (``enospc``/``eio_read``/``eio_write``/
        ``fsync_fail``/``slow_io``/``fd_exhaust``) armed at the layer
        boundary covering ``layer`` and delivered through the file-ops
        shim."""
        if kind not in STORAGE_FAULT_KINDS:
            raise UniverseError(
                f"unknown storage fault kind {kind!r}; expected one of "
                f"{', '.join(STORAGE_FAULT_KINDS)}"
            )
        return cls((Fault(kind, -1, layer, seconds=seconds),))

    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int,
        max_layer: int,
        faults: int = 1,
        kinds: tuple[str, ...] = ("kill",),
    ) -> "FaultPlan":
        """A reproducible random plan: ``faults`` draws of (kind, shard,
        layer) from a :class:`random.Random` seeded with ``seed``.

        ``kinds`` may mix worker and checkpoint kinds; a checkpoint draw
        ignores the shard draw (the rng is still advanced, so the layer
        sequence is stable across kind mixes).
        """
        if workers < 1:
            raise UniverseError(f"workers must be >= 1, got {workers}")
        if max_layer < 0:
            raise UniverseError(f"max_layer must be >= 0, got {max_layer}")
        rng = random.Random(seed)
        drawn = []
        for _ in range(faults):
            kind = rng.choice(kinds)
            shard = rng.randrange(workers)
            layer = rng.randint(0, max_layer)
            seconds = rng.uniform(0.05, 0.2)
            if kind in CHECKPOINT_FAULT_KINDS or kind in STORAGE_FAULT_KINDS:
                shard = -1
            drawn.append(Fault(kind, shard, layer, seconds=seconds))
        return cls(tuple(drawn))

    @classmethod
    def parse(cls, specs) -> "FaultPlan":
        """Build a plan from CLI specs: ``kind[:shard]@layer[~seconds]``.

        Worker kinds require the shard (``kill:0@3``); checkpoint kinds
        forbid it (``torn_save@5``).  ``~seconds`` is the
        ``delay_batch`` delay (``delay_batch:1@2~0.5``).
        """
        faults = []
        for spec in specs:
            text = spec.strip()
            seconds = 0.0
            if "~" in text:
                text, _, tail = text.partition("~")
                try:
                    seconds = float(tail)
                except ValueError:
                    raise UniverseError(
                        f"bad fault spec {spec!r}: delay {tail!r} is not "
                        f"a number"
                    ) from None
            head, sep, layer_text = text.partition("@")
            if not sep or not layer_text.isdigit():
                raise UniverseError(
                    f"bad fault spec {spec!r}: expected "
                    f"kind[:shard]@layer[~seconds]"
                )
            layer = int(layer_text)
            kind, sep, shard_text = head.partition(":")
            if kind in CHECKPOINT_FAULT_KINDS or kind in STORAGE_FAULT_KINDS:
                if sep:
                    category = (
                        "checkpoint"
                        if kind in CHECKPOINT_FAULT_KINDS
                        else "storage"
                    )
                    raise UniverseError(
                        f"bad fault spec {spec!r}: {kind} is a {category} "
                        f"fault and takes no shard"
                    )
                faults.append(Fault(kind, -1, layer, seconds=seconds))
                continue
            if not sep or not shard_text.isdigit():
                raise UniverseError(
                    f"bad fault spec {spec!r}: worker fault {kind!r} "
                    f"needs a shard, e.g. {kind}:0@{layer}"
                )
            faults.append(Fault(kind, int(shard_text), layer, seconds=seconds))
        return cls(tuple(faults))

    # -- coordinator-side delivery -------------------------------------
    @property
    def faults(self) -> tuple[Fault, ...]:
        return self._faults

    @property
    def has_worker_faults(self) -> bool:
        """True if any fault targets a worker (needs the sharded engine)."""
        return any(
            not fault.is_checkpoint and not fault.is_storage
            for fault in self._faults
        )

    @property
    def has_checkpoint_faults(self) -> bool:
        """True if any fault targets the checkpoint writer (needs a
        ``checkpoint`` path)."""
        return any(fault.is_checkpoint for fault in self._faults)

    @property
    def has_storage_faults(self) -> bool:
        """True if any fault is delivered through the file-ops shim
        (needs a ``checkpoint`` path or a ``spill_dir`` to have any
        filesystem calls to land on)."""
        return any(fault.is_storage for fault in self._faults)

    def take_for_shard(self, shard: int) -> list[tuple]:
        """Wire tuples of the not-yet-delivered worker faults for
        ``shard``, marking them delivered.  Called once per worker
        spawn."""
        taken: list[tuple] = []
        for index, fault in enumerate(self._faults):
            if fault.is_checkpoint or fault.is_storage:
                continue
            if fault.shard == shard and index not in self._delivered:
                self._delivered.add(index)
                taken.append(fault.as_wire())
        return taken

    def take_checkpoint_faults(self) -> list[tuple]:
        """``(kind, layer, seconds)`` tuples of the not-yet-delivered
        checkpoint faults, marking them delivered.  Called once per
        checkpoint session (each fires at most once, like worker
        faults)."""
        taken: list[tuple] = []
        for index, fault in enumerate(self._faults):
            if fault.is_checkpoint and index not in self._delivered:
                self._delivered.add(index)
                taken.append((fault.kind, fault.layer, fault.seconds))
        return taken

    def take_storage_faults(self) -> list[tuple]:
        """``(kind, layer, seconds)`` tuples of the not-yet-delivered
        storage faults, marking them delivered.  Called once per
        exploration; the universe arms each on its file-ops shim at the
        matching layer boundary (``eio_read`` at engine start)."""
        taken: list[tuple] = []
        for index, fault in enumerate(self._faults):
            if fault.is_storage and index not in self._delivered:
                self._delivered.add(index)
                taken.append((fault.kind, fault.layer, fault.seconds))
        return taken

    def validate(self, workers: int) -> None:
        """Reject plans naming shards the exploration does not have.
        Checkpoint faults carry no shard and always pass."""
        for fault in self._faults:
            if fault.is_checkpoint or fault.is_storage:
                continue
            if fault.shard >= workers:
                raise UniverseError(
                    f"fault targets shard {fault.shard} but the "
                    f"exploration has only {workers} workers"
                )

    def __len__(self) -> int:
        return len(self._faults)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{fault.kind}(@L{fault.layer})"
            if fault.shard < 0
            else f"{fault.kind}(w{fault.shard}@L{fault.layer})"
            for fault in self._faults
        )
        return f"FaultPlan({inner})"


__all__ = [
    "CHECKPOINT_FAULT_KINDS",
    "FAULT_KINDS",
    "STORAGE_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "Fault",
    "FaultPlan",
]

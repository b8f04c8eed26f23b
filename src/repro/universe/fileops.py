"""File-operations shim: one seam between the engine and the filesystem.

Everything durable in this codebase — checkpoint segment appends,
manifest commits, compaction, segment/manifest reads,
and the arena's spill tier — routes its filesystem calls through a
:class:`FileOps` instance instead of calling ``open``/``os.fsync``/
``os.replace`` directly.  In production that instance is the
passthrough :data:`DEFAULT_FILEOPS`; under test and chaos it is a
:class:`FaultInjectingFileOps`, which delivers the **storage fault
kinds** of :mod:`repro.universe.faults` deterministically:

=============  ===========  ==============================================
fault kind     fires on     observable error
=============  ===========  ==============================================
``enospc``     write ops    ``OSError(ENOSPC)`` — permanent, escalates to
                            the degradation ladder
``eio_write``  write ops    ``OSError(EIO)`` — transient, absorbed by the
                            typed retry (the whole durable-write unit
                            re-runs from its in-memory buffer)
``eio_read``   read ops     ``OSError(EIO)`` — transient, the retried
                            read is CRC re-verified downstream
``fsync_fail`` ``fsync``    ``OSError(EIO)`` — the durable-write unit
                            restarts from scratch (a retried *bare*
                            fsync after failure could silently drop
                            dirty pages; re-writing the buffer cannot)
``slow_io``    write ops    no error — the op sleeps ``seconds`` first
                            (latency injection for stall tolerance)
``fd_exhaust`` open ops     ``OSError(EMFILE)`` — transient descriptor
                            pressure
=============  ===========  ==============================================

Each armed fault fires **at most ``times`` times** (default once) and at
most one error-raising fault fires per operation, so a plan's effect is
a pure function of the operation sequence — the same determinism
contract the worker fault kinds have had since PR 6.
"""

from __future__ import annotations

import errno
import mmap
import os
import tempfile
import threading
import time

STORAGE_OP_KINDS = {
    "open": ("fd_exhaust",),
    "write": ("slow_io", "enospc", "eio_write"),
    "fsync": ("fsync_fail",),
    "read": ("eio_read",),
}
"""Which storage fault kinds can fire on which operation class."""


class FileOps:
    """Passthrough file operations — the production implementation.

    Kept to primitives (open/write/fsync/replace/read/...) plus one
    composite, :meth:`write_durable`, which is the *retry unit* for
    every durable write in the system: because it restarts from an
    in-memory buffer, re-running it wholesale after a transient failure
    (including a failed fsync) can only repeat work, never half-apply
    it.
    """

    # -- open-class ----------------------------------------------------
    def open(self, path, mode: str):
        return open(path, mode)

    def mkstemp(self, *, prefix: str, suffix: str, dir) -> tuple[int, str]:
        return tempfile.mkstemp(prefix=prefix, suffix=suffix, dir=dir)

    def fdopen(self, fd: int, mode: str):
        return os.fdopen(fd, mode)

    # -- write-class ---------------------------------------------------
    def write(self, handle, data) -> int:
        return handle.write(data)

    def replace(self, source, destination) -> None:
        os.replace(source, destination)

    # -- fsync ---------------------------------------------------------
    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    # -- read-class ----------------------------------------------------
    def read_bytes(self, path) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def mmap_slice(self, mapping, offset: int, length: int) -> bytes:
        return mapping[offset : offset + length]

    # -- unfaulted plumbing --------------------------------------------
    def flush(self, handle) -> None:
        handle.flush()

    def seek(self, handle, position: int) -> None:
        handle.seek(position)

    def truncate(self, handle, size: int) -> None:
        handle.truncate(size)

    def makedirs(self, path) -> None:
        os.makedirs(path, exist_ok=True)

    def unlink(self, path) -> None:
        os.unlink(path)

    def mmap_read(self, handle):
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    # -- composites ----------------------------------------------------
    def write_durable(self, path, blob: bytes) -> None:
        """open → write → flush → fsync → close, as one retryable unit."""
        with self.open(path, "wb") as handle:
            self.write(handle, blob)
            self.flush(handle)
            self.fsync(handle)


class FaultInjectingFileOps(FileOps):
    """A :class:`FileOps` that delivers armed storage faults.

    ``arm(kind, seconds, times)`` schedules a fault; every subsequent
    operation of the matching class consumes (at most) the first armed
    match and raises the mapped ``OSError`` (or sleeps, for
    ``slow_io``).  Thread-safe: the exploration thread arms at layer
    boundaries while the background checkpoint writer performs the I/O.
    ``fired`` records ``(kind, operation)`` in firing order for
    assertions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: list[list] = []  # [kind, seconds, times-remaining]
        self.fired: list[tuple[str, str]] = []

    def arm(self, kind: str, seconds: float = 0.0, times: int = 1) -> None:
        if kind not in {k for kinds in STORAGE_OP_KINDS.values() for k in kinds}:
            raise ValueError(f"unknown storage fault kind {kind!r}")
        if times < 1:
            raise ValueError(f"fault times must be >= 1, got {times}")
        with self._lock:
            self._armed.append([kind, seconds, times])

    @property
    def armed(self) -> tuple[tuple[str, float, int], ...]:
        with self._lock:
            return tuple((k, s, t) for k, s, t in self._armed)

    def _take(self, operation: str):
        kinds = STORAGE_OP_KINDS[operation]
        with self._lock:
            for entry in self._armed:
                if entry[0] in kinds:
                    entry[2] -= 1
                    if entry[2] == 0:
                        self._armed.remove(entry)
                    self.fired.append((entry[0], operation))
                    return entry[0], entry[1]
        return None

    def _inject(self, operation: str) -> None:
        taken = self._take(operation)
        if taken is None:
            return
        kind, seconds = taken
        if kind == "slow_io":
            time.sleep(seconds)
            return
        if kind == "enospc":
            raise OSError(
                errno.ENOSPC, "No space left on device (injected enospc)"
            )
        if kind == "fd_exhaust":
            raise OSError(
                errno.EMFILE, "Too many open files (injected fd_exhaust)"
            )
        raise OSError(errno.EIO, f"Input/output error (injected {kind})")

    # -- faulted overrides ---------------------------------------------
    def open(self, path, mode: str):
        if "w" in mode or "a" in mode or "+" in mode:
            self._inject("open")
        return super().open(path, mode)

    def mkstemp(self, *, prefix: str, suffix: str, dir) -> tuple[int, str]:
        self._inject("open")
        return super().mkstemp(prefix=prefix, suffix=suffix, dir=dir)

    def write(self, handle, data) -> int:
        self._inject("write")
        return super().write(handle, data)

    def replace(self, source, destination) -> None:
        self._inject("write")
        super().replace(source, destination)

    def fsync(self, handle) -> None:
        self._inject("fsync")
        super().fsync(handle)

    def read_bytes(self, path) -> bytes:
        self._inject("read")
        return super().read_bytes(path)

    def mmap_slice(self, mapping, offset: int, length: int) -> bytes:
        self._inject("read")
        return super().mmap_slice(mapping, offset, length)


DEFAULT_FILEOPS = FileOps()
"""The shared passthrough instance (stateless, safe to share)."""


__all__ = [
    "DEFAULT_FILEOPS",
    "STORAGE_OP_KINDS",
    "FaultInjectingFileOps",
    "FileOps",
]

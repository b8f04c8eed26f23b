"""Typed retry/backoff policy for hostile environments.

PR 7 taught the worker-spawn path to retry ``EAGAIN`` with exponential
backoff; this module generalises that into one shared vocabulary for
*every* operation that touches the OS — storage I/O (checkpoint segment
appends, manifest commits and reads) and process
spawning — so each call site stops inventing its own errno folklore.

The policy is **typed**: an :class:`OSError` is classified as

``transient``
    Worth retrying in place with bounded exponential backoff —
    scheduler pressure (``EAGAIN``/``EWOULDBLOCK``), interrupted
    syscalls (``EINTR``), descriptor-table pressure
    (``EMFILE``/``ENFILE``), transient memory pressure (``ENOMEM``),
    and ``EIO``.  ``EIO`` earns transient status only because every
    retried read in this codebase re-verifies a CRC afterwards
    (checkpoint segments and manifests are CRC-guarded end to end) and
    every retried write restarts the *whole* durable-write unit from
    the in-memory buffer — a half-applied retry can't corrupt state.
``permanent``
    Retry cannot help: the disk is full (``ENOSPC``), the quota is
    exhausted (``EDQUOT``), or the filesystem went read-only
    (``EROFS``).  These escalate immediately to the caller, which
    decides the degradation rung (see ``checkpoint.py``'s
    disable-checkpointing ladder).
``None`` (unclassified)
    Anything else — programming errors, ``EBADF``, permission walls.
    Never retried, never absorbed by a degradation ladder; these
    re-raise verbatim (the background writer keeps them *sticky*).

:func:`retry_io` is the single retry loop: it retries transient
failures up to ``policy.attempts`` total tries, sleeping
``backoff * factor**n`` (capped) between them, logging each retry
through the caller's hook, and re-raises the final error otherwise.
"""

from __future__ import annotations

import errno
import time
from dataclasses import dataclass

TRANSIENT = "transient"
PERMANENT = "permanent"

TRANSIENT_ERRNOS = frozenset(
    {
        errno.EAGAIN,
        errno.EWOULDBLOCK,
        errno.EINTR,
        errno.EMFILE,
        errno.ENFILE,
        errno.ENOMEM,
        errno.EIO,
    }
)

PERMANENT_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT, errno.EROFS})


def classify_storage_error(error: BaseException) -> str | None:
    """``"transient"``, ``"permanent"``, or ``None`` for an exception.

    Only :class:`OSError` with a recognised ``errno`` is classified;
    everything else returns ``None`` (escalate verbatim, no retry, no
    degradation ladder).
    """
    if not isinstance(error, OSError) or error.errno is None:
        return None
    if error.errno in PERMANENT_ERRNOS:
        return PERMANENT
    if error.errno in TRANSIENT_ERRNOS:
        return TRANSIENT
    return None


def is_storage_error(error: BaseException) -> bool:
    """True when ``error`` is an environmental storage/resource failure
    (either retryable or permanent) rather than a deterministic bug —
    the sharded engine uses this to route a worker's failure into the
    failover path instead of re-raising it as the exploration's own."""
    return classify_storage_error(error) is not None


# Spawn-side transients (generalised from PR 7's worker-spawn backoff):
# fork/posix_spawn under load fails with EAGAIN/ENOMEM, and some libcs
# surface only the message text.
TRANSIENT_SPAWN_ERRNOS = frozenset(
    {errno.EAGAIN, errno.EWOULDBLOCK, errno.ENOMEM}
)


def transient_spawn_error(error: BaseException) -> bool:
    """True when a process-spawn failure is worth retrying."""
    if isinstance(error, OSError) and error.errno in TRANSIENT_SPAWN_ERRNOS:
        return True
    return "temporarily unavailable" in str(error).lower()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``attempts`` total tries, sleeping
    ``backoff * factor**n`` (capped at ``max_backoff``) between them."""

    attempts: int = 4
    backoff: float = 0.02
    factor: float = 2.0
    max_backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"retry attempts must be >= 1, got {self.attempts}")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("retry backoff must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"retry factor must be >= 1, got {self.factor}")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(self.backoff * self.factor ** (attempt - 1), self.max_backoff)


DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_io(
    operation: str,
    fn,
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    classify=classify_storage_error,
    on_retry=None,
    sleep=time.sleep,
):
    """Run ``fn()``; retry transient failures, escalate the rest.

    ``fn`` must be safe to re-run wholesale — in this codebase every
    retry unit is a complete durable-write sequence (open → write →
    fsync from an in-memory buffer) or a complete read that is
    CRC-verified downstream, so a retry can only repeat work, never
    half-apply it.

    ``on_retry(operation, attempt, error, delay)`` is called before
    each backoff sleep (the logging hook); ``classify`` maps an
    exception to ``"transient"``/``"permanent"``/``None``.  Permanent
    and unclassified errors re-raise immediately; a transient error on
    the final attempt re-raises as-is (the caller re-classifies to pick
    a degradation rung).
    """
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except Exception as error:
            if classify(error) != TRANSIENT or attempt == policy.attempts:
                raise
            delay = policy.delay(attempt)
            if on_retry is not None:
                on_retry(operation, attempt, error, delay)
            if delay:
                sleep(delay)


__all__ = [
    "DEFAULT_RETRY_POLICY",
    "PERMANENT",
    "PERMANENT_ERRNOS",
    "TRANSIENT",
    "TRANSIENT_ERRNOS",
    "TRANSIENT_SPAWN_ERRNOS",
    "RetryPolicy",
    "classify_storage_error",
    "is_storage_error",
    "retry_io",
    "transient_spawn_error",
]

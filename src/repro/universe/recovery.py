"""Structured recovery events: what the engine did when something broke.

Every degradation or failover path in the exploration stack — worker
respawns, shard folds, RSS-budget truncations, corrupt-tail salvage,
checkpoint degradation — records what it did on
the universe's ``recovery_log``.  Until PR 10 those entries were loose
dicts and every consumer (bench, chaos, the CLI summary) string-matched
its way through them; this module promotes the entry to a frozen
:class:`RecoveryEvent` dataclass with a **monotonic sequence number**,
and the log itself to :class:`RecoveryLog`, a thread-safe append-only
container (the background checkpoint writer and the exploration thread
both record).

``RecoveryEvent`` stays **dict-compatible**: ``event["kind"]``,
``event.get("shard")`` and the historical ``event["action"]`` spelling
(an alias of ``rung``) all keep working, so existing assertions and
operator scripts survive the promotion — but new code should use the
attributes.

Vocabulary (see RELIABILITY.md for the full catalogue):

``kind``
    What failed or crossed a threshold — e.g. ``spawn``, ``worker``,
    ``rss_budget``, ``corrupt_segment``, ``torn_save``,
    ``checkpoint_degraded``, ``storage_retry``.
``rung``
    The ladder rung taken in response — e.g. ``retry``, ``respawn``,
    ``fold``, ``truncate``, ``salvage-truncate``, ``discard-orphan``,
    ``disable-checkpointing``, ``unlink``.
``layer`` / ``shard``
    Where, when known (``None`` otherwise; checkpoint-side events have
    no shard).
``seq``
    Position in this exploration's log — strictly increasing, so
    "every rung taken, in order" is a list comparison, not a grep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

_ALIASES = {"action": "rung"}


@dataclass(frozen=True)
class RecoveryEvent:
    """One structured entry on an exploration's ``recovery_log``."""

    kind: str
    rung: str
    layer: int | None = None
    shard: int | None = None
    detail: str = ""
    seq: int = 0

    @property
    def action(self) -> str:
        """Historical spelling of :attr:`rung` (pre-PR 10 dict key)."""
        return self.rung

    # -- dict compatibility -------------------------------------------
    def __getitem__(self, key: str):
        name = _ALIASES.get(key, key)
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(key) from None

    def get(self, key: str, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def keys(self):
        return [f.name for f in fields(self)] + list(_ALIASES)

    def as_dict(self) -> dict:
        """A plain-dict view (for ``--json`` output and logging)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RecoveryLog:
    """Thread-safe, append-only sequence of :class:`RecoveryEvent`.

    The exploration thread, the background checkpoint writer, and the
    sharded coordinator all record onto the same log; the lock makes the
    sequence numbers genuinely monotonic across them.
    """

    _events: list[RecoveryEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(
        self,
        kind: str,
        rung: str,
        *,
        layer: int | None = None,
        shard: int | None = None,
        detail: str = "",
    ) -> RecoveryEvent:
        with self._lock:
            event = RecoveryEvent(
                kind=kind,
                rung=rung,
                layer=layer,
                shard=shard,
                detail=detail,
                seq=len(self._events),
            )
            self._events.append(event)
            return event

    def snapshot(self) -> tuple[RecoveryEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def __iter__(self):
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __getitem__(self, index):
        with self._lock:
            return self._events[index]

    def __bool__(self) -> bool:
        return len(self) > 0


__all__ = ["RecoveryEvent", "RecoveryLog"]

"""Events and messages of the Chandy–Misra model (paper, section 2).

An event on a process is a *send*, a *receive* or an *internal* event.
Events and messages are value objects: two computations that schedule the
"same" local step contain *equal* event objects, which is what makes
projection equality — and hence isomorphism ``x [P] y`` — meaningful
across different system computations.

The paper requires all events and all messages to be distinguished
("multiple occurrences of the same message are distinguished by affixing
sequence numbers to them"); the ``seq`` fields below implement exactly
that convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

from repro.core.process import ProcessId


class EventKind(enum.Enum):
    """The three event types of the model."""

    SEND = "send"
    RECEIVE = "receive"
    INTERNAL = "internal"


_NONE_HASH = 0x6E6F6E65
"""What a ``None`` field contributes to a value object's hash.

``hash(None)`` is derived from the object's address before CPython 3.12,
so it differs between interpreters even under one ``PYTHONHASHSEED``;
this constant keeps content hashes, and what depends on them, equal
across runs.
"""


def _cached_value_hash(self) -> int:
    """Shared ``__hash__`` for event/message value objects.

    Events and messages are hashed constantly on the exploration hot path
    (as members of history tuples and set elements); the generated
    dataclass hash re-hashes every field on every call.  Computing it once
    and stashing it on the instance makes repeated hashing O(1).  A
    ``None`` field hashes as :data:`_NONE_HASH`.
    """
    try:
        return self._hash_cache
    except AttributeError:
        fields = [getattr(self, name) for name in self.__match_args__]
        value = hash(tuple(_NONE_HASH if item is None else item for item in fields))
        object.__setattr__(self, "_hash_cache", value)
        return value


def _value_object_getstate(self) -> dict:
    """Pickle events/messages WITHOUT their caches.

    ``hash()`` values are process-local (string hashing is salted per
    interpreter, and some singleton hashes are address-derived), so a
    cached hash shipped inside a pickle silently poisons the receiving
    process: replayed objects would hash under the *writer's* salt while
    freshly built ones hash under the reader's, and content-hash dedup
    falls apart.  Stripping the cache forces every process to recompute
    under its own salt — this is what makes checkpoints genuinely
    portable across interpreter hash seeds.

    A message's ``_receive_event`` (cached by :func:`receive`) goes too:
    ``receive`` rebuilds it on demand, and shipping it would make a
    message's bytes depend on whether its receive was built yet.
    """
    state = dict(self.__dict__)
    state.pop("_hash_cache", None)
    state.pop("_receive_event", None)
    return state


@dataclass(frozen=True, order=True)
class Message:
    """A distinguished message from ``sender`` to ``receiver``.

    ``tag`` is the protocol-level label (e.g. ``"token"``); ``seq``
    distinguishes repeated occurrences of the same logical message, per the
    paper's convention.  ``payload`` carries optional protocol data and must
    be hashable so that events remain usable as dictionary keys.
    """

    sender: ProcessId
    receiver: ProcessId
    tag: str
    seq: int = 0
    payload: Hashable = None

    __hash__ = _cached_value_hash
    __getstate__ = _value_object_getstate

    def __str__(self) -> str:
        return f"{self.tag}#{self.seq}({self.sender}->{self.receiver})"


@dataclass(frozen=True, order=True)
class Event:
    """Base class for events; use the three concrete subclasses.

    Events compare and hash structurally.  ``process`` is the process the
    event is *on* (the sender for sends, the receiver for receives).
    """

    process: ProcessId

    __hash__ = _cached_value_hash
    __getstate__ = _value_object_getstate

    @property
    def kind(self) -> EventKind:
        raise NotImplementedError

    @property
    def is_send(self) -> bool:
        return self.kind is EventKind.SEND

    @property
    def is_receive(self) -> bool:
        return self.kind is EventKind.RECEIVE

    @property
    def is_internal(self) -> bool:
        return self.kind is EventKind.INTERNAL


@dataclass(frozen=True, order=True)
class SendEvent(Event):
    """Sending of ``message`` by ``message.sender`` (== ``process``)."""

    message: Message = field(default=None)  # type: ignore[assignment]

    __hash__ = _cached_value_hash

    def __post_init__(self) -> None:
        if self.message is None:
            raise ValueError("SendEvent requires a message")
        if self.message.sender != self.process:
            raise ValueError(
                f"send event on {self.process!r} but message sender is "
                f"{self.message.sender!r}"
            )

    @property
    def kind(self) -> EventKind:
        return EventKind.SEND

    def __str__(self) -> str:
        return f"snd[{self.message}]"


@dataclass(frozen=True, order=True)
class ReceiveEvent(Event):
    """Reception of ``message`` by ``message.receiver`` (== ``process``)."""

    message: Message = field(default=None)  # type: ignore[assignment]

    __hash__ = _cached_value_hash

    def __post_init__(self) -> None:
        if self.message is None:
            raise ValueError("ReceiveEvent requires a message")
        if self.message.receiver != self.process:
            raise ValueError(
                f"receive event on {self.process!r} but message receiver is "
                f"{self.message.receiver!r}"
            )

    @property
    def kind(self) -> EventKind:
        return EventKind.RECEIVE

    def __str__(self) -> str:
        return f"rcv[{self.message}]"


@dataclass(frozen=True, order=True)
class InternalEvent(Event):
    """An internal step of ``process`` with no external communication.

    ``tag`` names the step; ``seq`` distinguishes repeated occurrences of
    the same logical step, mirroring the message convention.
    """

    tag: str = "step"
    seq: int = 0
    payload: Hashable = None

    __hash__ = _cached_value_hash

    @property
    def kind(self) -> EventKind:
        return EventKind.INTERNAL

    def __str__(self) -> str:
        return f"int[{self.process}:{self.tag}#{self.seq}]"


def send(message: Message) -> SendEvent:
    """Build the send event of ``message`` (on the message's sender)."""
    return SendEvent(process=message.sender, message=message)


def receive(message: Message) -> ReceiveEvent:
    """Build the receive event of ``message`` (on the message's receiver).

    The event is cached on the message: exploration re-offers the same
    in-flight message at every configuration along an interleaving, and
    events are value objects, so returning the same instance is sound.
    """
    try:
        return message._receive_event
    except AttributeError:
        event = ReceiveEvent(process=message.receiver, message=message)
        object.__setattr__(message, "_receive_event", event)
        return event


def internal(
    process: ProcessId, tag: str = "step", seq: int = 0, payload: Hashable = None
) -> InternalEvent:
    """Build an internal event on ``process``."""
    return InternalEvent(process=process, tag=tag, seq=seq, payload=payload)


def message_pair(
    sender: ProcessId,
    receiver: ProcessId,
    tag: str,
    seq: int = 0,
    payload: Hashable = None,
) -> tuple[SendEvent, ReceiveEvent]:
    """Build the (send, receive) event pair of one message.

    Convenience for hand-built computations::

        >>> s, r = message_pair("p", "q", "hello")
        >>> s.message is r.message
        True
    """
    msg = Message(sender=sender, receiver=receiver, tag=tag, seq=seq, payload=payload)
    return send(msg), receive(msg)


def corresponds(send_event: Event, receive_event: Event) -> bool:
    """True iff ``send_event`` is the send corresponding to ``receive_event``.

    Correspondence is by message identity: the model distinguishes all
    messages, so each receive has exactly one corresponding send.
    """
    return (
        isinstance(send_event, SendEvent)
        and isinstance(receive_event, ReceiveEvent)
        and send_event.message == receive_event.message
    )

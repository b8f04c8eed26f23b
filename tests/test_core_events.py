"""Unit tests for events and messages (§2 conventions)."""

import pytest

from repro.core.events import (
    EventKind,
    Message,
    ReceiveEvent,
    SendEvent,
    corresponds,
    internal,
    message_pair,
    receive,
    send,
)


class TestMessage:
    def test_messages_are_value_objects(self):
        first = Message("p", "q", "ping", 0)
        second = Message("p", "q", "ping", 0)
        assert first == second
        assert hash(first) == hash(second)

    def test_sequence_numbers_distinguish_occurrences(self):
        first = Message("p", "q", "ping", 0)
        second = Message("p", "q", "ping", 1)
        assert first != second

    def test_payload_participates_in_identity(self):
        assert Message("p", "q", "t", 0, payload=1) != Message(
            "p", "q", "t", 0, payload=2
        )

    def test_str_rendering(self):
        assert str(Message("p", "q", "ping", 3)) == "ping#3(p->q)"


class TestEvents:
    def test_send_is_on_the_sender(self):
        event = send(Message("p", "q", "ping"))
        assert event.process == "p"
        assert event.kind is EventKind.SEND
        assert event.is_send and not event.is_receive and not event.is_internal

    def test_receive_is_on_the_receiver(self):
        event = receive(Message("p", "q", "ping"))
        assert event.process == "q"
        assert event.kind is EventKind.RECEIVE

    def test_internal_event_kind(self):
        event = internal("p", tag="step", seq=2)
        assert event.kind is EventKind.INTERNAL
        assert event.is_internal

    def test_send_event_rejects_wrong_process(self):
        with pytest.raises(ValueError):
            SendEvent(process="q", message=Message("p", "q", "ping"))

    def test_receive_event_rejects_wrong_process(self):
        with pytest.raises(ValueError):
            ReceiveEvent(process="p", message=Message("p", "q", "ping"))

    def test_send_event_requires_message(self):
        with pytest.raises(ValueError):
            SendEvent(process="p")

    def test_receive_event_requires_message(self):
        with pytest.raises(ValueError):
            ReceiveEvent(process="q")

    def test_events_are_hashable_value_objects(self):
        first = internal("p", tag="a", seq=0)
        second = internal("p", tag="a", seq=0)
        assert first == second
        assert len({first, second}) == 1

    def test_distinct_internal_events_by_seq(self):
        assert internal("p", tag="a", seq=0) != internal("p", tag="a", seq=1)


class TestCorrespondence:
    def test_message_pair_shares_the_message(self):
        snd, rcv = message_pair("p", "q", "hello")
        assert snd.message is rcv.message
        assert corresponds(snd, rcv)

    def test_correspondence_requires_same_message(self):
        snd, _ = message_pair("p", "q", "hello", seq=0)
        _, other_rcv = message_pair("p", "q", "hello", seq=1)
        assert not corresponds(snd, other_rcv)

    def test_correspondence_requires_send_then_receive(self):
        snd, rcv = message_pair("p", "q", "hello")
        assert not corresponds(rcv, snd)
        assert not corresponds(snd, snd)

    def test_internal_never_corresponds(self):
        snd, rcv = message_pair("p", "q", "hello")
        assert not corresponds(internal("p"), rcv)
        assert not corresponds(snd, internal("q"))


class TestPicklePortability:
    """Cached hashes must never travel inside a pickle.

    ``hash()`` is process-local (per-interpreter string salt, and some
    singleton hashes are address-derived), so a pickled ``_hash_cache``
    would make a replayed event hash under the *writer's* salt while
    fresh events hash under the reader's — silently breaking dedup on
    checkpoint resume in another process.
    """

    def test_pickled_events_drop_the_hash_cache(self):
        import pickle

        snd, rcv = message_pair("p", "q", "hello", seq=2, payload=None)
        evt = internal("p", tag="learn", seq=1)
        for obj in (snd, rcv, evt, snd.message):
            hash(obj)  # warm the cache
            assert "_hash_cache" in obj.__dict__
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj
            assert "_hash_cache" not in back.__dict__
            # Hashing the copy recomputes locally and matches.
            assert hash(back) == hash(obj)

    def test_nested_message_cache_is_dropped_too(self):
        import pickle

        snd, _ = message_pair("p", "q", "hello")
        hash(snd.message)
        back = pickle.loads(pickle.dumps(snd))
        assert "_hash_cache" not in back.message.__dict__

    def test_pickled_message_drops_its_cached_receive(self):
        """``receive`` caches its event on the message; the cache must not
        travel, or a message's bytes would depend on whether its receive
        was built before it was pickled."""
        import pickle

        message = Message("p", "q", "hello", seq=3)
        event = send(message)
        before = pickle.dumps(message), pickle.dumps(event)
        received = receive(message)
        assert "_receive_event" in message.__dict__
        assert (pickle.dumps(message), pickle.dumps(event)) == before
        back = pickle.loads(pickle.dumps(message))
        assert "_receive_event" not in back.__dict__
        assert receive(back) == received


class TestHashAcrossInterpreters:
    def test_none_field_hashes_alike_in_two_fresh_interpreters(self):
        """``hash(None)`` is address-derived before CPython 3.12; a value
        object's hash must not be, or content hashes differ between two
        runs under one ``PYTHONHASHSEED``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.core.events import InternalEvent, Message, send\n"
            "message = Message('p', 'q', 'ping')\n"
            "assert message.payload is None\n"
            "print(hash(InternalEvent('p')), hash(message), hash(send(message)))"
        )
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] and outputs[0] == outputs[1]

"""Unit tests for the protocol abstraction (process-computation sets)."""

import pytest

from repro.core.configuration import EMPTY_CONFIGURATION, Configuration
from repro.core.errors import ProtocolError
from repro.core.events import Message, internal, receive
from repro.protocols.pingpong import PingPongProtocol
from repro.universe import protocol as protocol_module
from repro.universe.explorer import Universe
from repro.universe.protocol import Protocol


class BadReceiveProtocol(Protocol):
    """Yields a receive from local_steps — must be rejected."""

    def __init__(self):
        super().__init__(("p", "q"))

    def local_steps(self, process, history):
        if process == "p":
            from repro.core.events import Message

            yield receive(Message("q", "p", "oops"))


class TestProtocolBasics:
    def test_needs_processes(self):
        class Empty(Protocol):
            def local_steps(self, process, history):
                return ()

        with pytest.raises(ProtocolError):
            Empty(())

    def test_complement(self):
        protocol = PingPongProtocol()
        assert protocol.complement({"p"}) == {"q"}
        assert protocol.complement(set()) == {"p", "q"}
        with pytest.raises(ProtocolError):
            protocol.complement({"zebra"})

    def test_local_steps_must_not_yield_receives(self):
        protocol = BadReceiveProtocol()
        with pytest.raises(ProtocolError):
            protocol.enabled_events(EMPTY_CONFIGURATION)

    def test_enabled_events_order_is_deterministic(self):
        protocol = PingPongProtocol()
        first = protocol.enabled_events(EMPTY_CONFIGURATION)
        second = protocol.enabled_events(EMPTY_CONFIGURATION)
        assert first == second


class TestEnabling:
    def test_initially_only_ping_send(self):
        protocol = PingPongProtocol(rounds=1)
        events = protocol.enabled_events(EMPTY_CONFIGURATION)
        assert len(events) == 1
        assert events[0].is_send

    def test_receive_enabled_when_in_flight(self):
        protocol = PingPongProtocol(rounds=1)
        (send_event,) = protocol.enabled_events(EMPTY_CONFIGURATION)
        configuration = EMPTY_CONFIGURATION.extend(send_event)
        events = protocol.enabled_events(configuration)
        receives = [event for event in events if event.is_receive]
        assert len(receives) == 1
        assert receives[0].message == send_event.message

    def test_quiescence_after_rounds(self):
        protocol = PingPongProtocol(rounds=0)
        assert list(protocol.enabled_events(EMPTY_CONFIGURATION)) == []

    def test_equal_configurations_enable_equal_events(self):
        """Nothing is memoised per configuration object: a publicly
        rebuilt copy of every reachable configuration enables the same
        events, in the same order, as the explored member."""
        protocol = PingPongProtocol(rounds=2)
        universe = Universe(protocol)
        for configuration in universe:
            rebuilt = Configuration(dict(configuration.histories))
            assert protocol.enabled_events(rebuilt) == protocol.enabled_events(
                configuration
            )
            assert protocol.enabled_events(rebuilt) == (
                protocol.compiled_enabled_events(configuration)
            )


class TestReceiveSetCache:
    def test_sets_past_the_cap_are_answered_but_not_memoised(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "_RECEIVE_SET_CACHE_MAX_ENTRIES", 1)
        protocol = PingPongProtocol(rounds=2)
        first = frozenset({Message("p", "q", "ping"), Message("q", "p", "pong")})
        second = frozenset({Message("p", "q", "ping")})
        expected_first = tuple(receive(message) for message in sorted(first))
        assert protocol.receive_events_for(first) == expected_first
        assert protocol.receive_events_for(second) == (
            receive(Message("p", "q", "ping")),
        )
        assert list(protocol._receive_set_cache) == [first]
        assert protocol.receive_events_for(second) == (
            receive(Message("p", "q", "ping")),
        )
        assert protocol.receive_events_for(first) is protocol._receive_set_cache[first]


class TestMembership:
    def test_reachable_history_is_process_computation(self, pingpong_universe):
        protocol = pingpong_universe.protocol
        for configuration in pingpong_universe:
            for process in configuration.processes:
                assert protocol.is_process_computation(
                    process, configuration.history(process)
                )

    def test_foreign_history_rejected(self):
        protocol = PingPongProtocol()
        alien = (internal("p", tag="alien"),)
        assert not protocol.is_process_computation("p", alien)

    def test_misfiled_history_rejected(self):
        protocol = PingPongProtocol()
        alien = (internal("q", tag="alien"),)
        assert not protocol.is_process_computation("p", alien)


class TestEventHelpers:
    def test_next_message_sequences_by_tag_and_receiver(self):
        first = Protocol.next_message((), "p", "q", "ping")
        assert first.seq == 0
        from repro.core.events import send

        history = (send(first),)
        second = Protocol.next_message(history, "p", "q", "ping")
        assert second.seq == 1
        other_tag = Protocol.next_message(history, "p", "q", "other")
        assert other_tag.seq == 0

    def test_next_internal_sequences_by_tag(self):
        first = Protocol.next_internal((), "p", "step")
        assert first.seq == 0
        second = Protocol.next_internal((first,), "p", "step")
        assert second.seq == 1

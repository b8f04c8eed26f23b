"""Unit tests for the simulator, schedulers, traces, failures, FIFO."""

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.validation import is_system_computation
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.leader_election import ChangRobertsProtocol
from repro.simulation.failures import CrashableProtocol, crashed_atom, has_crashed
from repro.simulation.network import FifoProtocol, fifo_frontier
from repro.simulation.scheduler import (
    BiasedScheduler,
    EagerReceiveScheduler,
    FifoScheduler,
    LazyReceiveScheduler,
    RandomScheduler,
)
from repro.simulation.simulator import Simulator, simulate
from repro.universe.explorer import Universe


class TestSimulator:
    def test_runs_to_quiescence(self):
        trace = simulate(PingPongProtocol(rounds=3), RandomScheduler(1))
        assert trace.summary()["undelivered"] == 0
        assert trace.count_messages("ping") == 3
        assert trace.count_messages("pong") == 3

    def test_traces_are_valid_system_computations(self):
        for seed in range(5):
            trace = simulate(PingPongProtocol(rounds=2), RandomScheduler(seed))
            assert is_system_computation(trace.computation)

    def test_reproducible(self):
        first = simulate(PingPongProtocol(rounds=3), RandomScheduler(42))
        second = simulate(PingPongProtocol(rounds=3), RandomScheduler(42))
        assert first.computation == second.computation

    def test_different_seeds_may_differ(self):
        ring = tuple(f"n{i}" for i in range(5))
        runs = {
            simulate(ChangRobertsProtocol(ring), RandomScheduler(seed)).computation
            for seed in range(8)
        }
        assert len(runs) > 1

    def test_step_bound_raises(self):
        with pytest.raises(SimulationError):
            simulate(PingPongProtocol(rounds=100), RandomScheduler(0), max_steps=5)

    def test_until_predicate_stops_early(self):
        protocol = PingPongProtocol(rounds=5)
        trace = simulate(
            protocol,
            RandomScheduler(0),
            until=lambda configuration: len(configuration) >= 3,
        )
        assert len(trace.computation) == 3

    def test_step_api(self):
        simulator = Simulator(PingPongProtocol(rounds=1))
        events = []
        while True:
            event = simulator.step()
            if event is None:
                break
            events.append(event)
        assert len(events) == 4
        simulator.reset()
        assert len(simulator.configuration) == 0

    def test_trace_runs_through_universe_members(self, pingpong_universe):
        """Every simulated prefix is a reachable configuration."""
        trace = simulate(PingPongProtocol(rounds=2), RandomScheduler(9))
        for configuration in trace.configurations():
            assert configuration in pingpong_universe


class TestSchedulers:
    def test_fifo_scheduler_deterministic(self):
        first = simulate(PingPongProtocol(rounds=2), FifoScheduler())
        second = simulate(PingPongProtocol(rounds=2), FifoScheduler())
        assert first.computation == second.computation

    def test_eager_prefers_receives(self):
        trace = simulate(PingPongProtocol(rounds=2), EagerReceiveScheduler())
        events = list(trace.computation)
        # Immediately after every send, the matching receive fires.
        for index, event in enumerate(events[:-1]):
            if event.is_send:
                assert events[index + 1].is_receive

    def test_lazy_defers_receives(self):
        ring = tuple(f"n{i}" for i in range(4))
        trace = simulate(ChangRobertsProtocol(ring), LazyReceiveScheduler())
        events = list(trace.computation)
        first_receive = next(i for i, e in enumerate(events) if e.is_receive)
        sends_before = sum(1 for e in events[:first_receive] if e.is_send)
        assert sends_before == len(ring)  # everyone injected first

    def test_biased_scheduler_validates_bias(self):
        with pytest.raises(ValueError):
            BiasedScheduler(lambda event: True, bias=2.0)

    def test_biased_scheduler_prefers_predicate(self):
        trace = simulate(
            PingPongProtocol(rounds=2),
            BiasedScheduler(lambda event: event.is_receive, bias=1.0, seed=3),
        )
        assert trace.summary()["undelivered"] == 0


class TestCrashFailures:
    def test_crash_stops_a_process(self):
        protocol = CrashableProtocol(PingPongProtocol(rounds=3), crashable={"q"})
        universe = Universe(protocol)
        for configuration in universe:
            history = configuration.history("q")
            if has_crashed(history):
                # No event after the crash.
                crash_positions = [
                    index
                    for index, event in enumerate(history)
                    if getattr(event, "tag", None) == "crash"
                ]
                assert crash_positions[-1] == len(history) - 1

    def test_crashed_atom(self):
        protocol = CrashableProtocol(PingPongProtocol(rounds=1), crashable={"q"})
        universe = Universe(protocol)
        atom = crashed_atom("q")
        crashed_configs = [c for c in universe if atom.fn(c)]
        assert crashed_configs

    def test_crashable_must_be_members(self):
        with pytest.raises(ValueError):
            CrashableProtocol(PingPongProtocol(), crashable={"zebra"})


class TestFifo:
    def test_frontier_is_oldest_per_channel(self):
        from repro.core.events import message_pair

        s0, r0 = message_pair("p", "q", "m", seq=0)
        s1, r1 = message_pair("p", "q", "m", seq=1)
        configuration = Configuration({"p": (s0, s1)})
        assert fifo_frontier(configuration) == {s0.message}

    def test_fifo_protocol_restricts_receives(self):
        from repro.core.events import message_pair
        from repro.core.configuration import EMPTY_CONFIGURATION

        class TwoSends(PingPongProtocol):
            pass

        base = PingPongProtocol(rounds=2)
        fifo = FifoProtocol(base)
        # Drive two pings out without any receive via direct enabling:
        configuration = EMPTY_CONFIGURATION
        sends = 0
        while sends < 1:
            events = [e for e in fifo.enabled_events(configuration) if e.is_send]
            if not events:
                break
            configuration = configuration.extend(events[0])
            sends += 1
        receives = [
            e for e in fifo.enabled_events(configuration) if e.is_receive
        ]
        assert len(receives) <= 1


class TestStepValues:
    """`Simulator.step` extends one configuration per step; the result
    must equal, with an equal hash, the same events replayed by value."""

    def test_trace_identical_to_replay(self):
        from repro.core.configuration import EMPTY_CONFIGURATION
        from repro.protocols.token_bus import TokenBusProtocol

        protocol = TokenBusProtocol(max_hops=6)
        trace = simulate(protocol, RandomScheduler(7))
        replayed = EMPTY_CONFIGURATION
        for event in trace.computation.events:
            replayed = replayed.extend(event)
        final = Simulator(protocol, RandomScheduler(7))
        result = final.run()
        assert result.computation.events == trace.computation.events
        assert final.configuration == replayed
        assert hash(final.configuration) == hash(replayed)

    def test_enabled_matches_the_rebuilt_configuration(self):
        """At every step the simulator offers exactly what the protocol
        enables on a publicly rebuilt copy of its configuration."""
        from repro.protocols.token_bus import TokenBusProtocol

        protocol = TokenBusProtocol(max_hops=6)
        simulator = Simulator(protocol, RandomScheduler(3))
        steps = 0
        while True:
            rebuilt = Configuration(dict(simulator.configuration.histories))
            assert simulator.enabled() == protocol.enabled_events(rebuilt)
            if simulator.step() is None:
                break
            steps += 1
        assert steps > 0
        assert simulator.enabled() == ()

    def test_stepwise_configurations_compare_like_rebuilt_ones(self):
        from repro.core.configuration import Configuration
        from repro.protocols.pingpong import PingPongProtocol

        simulator = Simulator(PingPongProtocol(rounds=2), RandomScheduler(0))
        while simulator.step() is not None:
            configuration = simulator.configuration
            rebuilt = Configuration(dict(configuration.histories))
            assert configuration == rebuilt
            assert hash(configuration) == hash(rebuilt)


class TestStepCost:
    def test_hash_calls_per_step_do_not_grow_with_the_trace(self):
        """A step re-hashes no history: ``enabled_events`` memoises local
        steps by the configuration's rolling entry hashes, so the calls
        of the value objects' ``__hash__`` per step stay flat from a
        200-step to an 800-step token-bus trace."""
        import sys

        from repro.core.events import _cached_value_hash
        from repro.protocols.token_bus import TokenBusProtocol

        code = _cached_value_hash.__code__

        def hash_calls_per_step(hops: int) -> float:
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code is code:
                    calls += 1

            sys.setprofile(profile)
            try:
                trace = simulate(TokenBusProtocol(max_hops=hops), RandomScheduler(0))
            finally:
                sys.setprofile(None)
            return calls / trace.steps

        short, long = hash_calls_per_step(100), hash_calls_per_step(400)
        assert long <= short * 1.1 + 1, (short, long)
        assert long < 10, long

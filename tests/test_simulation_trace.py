"""SimulationTrace measurement helpers."""

from repro.core.configuration import Configuration
from repro.protocols.broadcast import BroadcastProtocol, line_topology
from repro.protocols.pingpong import PingPongProtocol
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate


def pingpong_trace(rounds=2, seed=0):
    return simulate(PingPongProtocol(rounds=rounds), RandomScheduler(seed))


class TestCounting:
    def test_count_messages_by_tag(self):
        trace = pingpong_trace(rounds=3)
        assert trace.count_messages() == 6
        assert trace.count_messages("ping") == 3
        assert trace.count_messages("pong") == 3
        assert trace.count_messages("nope") == 0

    def test_count_internal(self):
        protocol = BroadcastProtocol(line_topology(("a", "b")), root="a")
        trace = simulate(protocol, RandomScheduler(0))
        assert trace.count_internal("learn") == 1
        assert trace.count_internal() == 1

    def test_summary_is_consistent(self):
        trace = pingpong_trace()
        summary = trace.summary()
        assert summary["events"] == summary["sends"] + summary["receives"] + summary["internal"]
        assert summary["undelivered"] == summary["sends"] - summary["receives"]

    def test_events_by_process(self):
        trace = pingpong_trace(rounds=1)
        counts = trace.events_by_process()
        assert counts == {"p": 2, "q": 2}


class TestSearching:
    def test_first_index(self):
        trace = pingpong_trace()
        first_receive = trace.first_index(lambda event: event.is_receive)
        assert first_receive is not None
        assert trace.computation[first_receive].is_receive
        assert trace.first_index(lambda event: False) is None

    def test_first_internal(self):
        protocol = BroadcastProtocol(line_topology(("a", "b")), root="a")
        trace = simulate(protocol, RandomScheduler(0))
        assert trace.first_internal("learn") == 0
        assert trace.first_internal("nothing") is None

    def test_prefix_where(self):
        trace = pingpong_trace()
        prefix = trace.prefix_where(lambda configuration: len(configuration) >= 3)
        assert prefix is not None and len(prefix) == 3
        assert trace.prefix_where(lambda configuration: False) is None

    def test_configurations_stream(self):
        trace = pingpong_trace(rounds=1)
        configurations = list(trace.configurations())
        assert len(configurations) == len(trace.computation) + 1
        assert configurations[-1] == trace.final_configuration
        for earlier, later in zip(configurations, configurations[1:]):
            assert earlier.is_sub_configuration_of(later)

    def test_final_configuration_matches_computation(self):
        trace = pingpong_trace()
        assert trace.final_configuration == Configuration.from_computation(
            trace.computation
        )


class TestPrefixValues:
    def test_long_trace_prefixes_and_final_equal_the_rebuilt(self):
        """Over a 400-hop token-bus trace, the last prefix and the final
        configuration equal the computation's configuration, with an
        equal hash, so a dict keeps one key for them."""
        from repro.protocols.token_bus import TokenBusProtocol

        trace = simulate(TokenBusProtocol(max_hops=400), RandomScheduler(0))
        rebuilt = Configuration.from_computation(trace.computation)
        *_, tail = trace.configurations()
        final = trace.final_configuration
        for configuration in (tail, final):
            assert configuration == rebuilt
            assert hash(configuration) == hash(rebuilt)
        assert len({tail: 0, final: 1, rebuilt: 2}) == 1

    def test_prefix_configurations_hash_like_public_ones(self):
        trace = pingpong_trace(rounds=2)
        for configuration in trace.configurations():
            rebuilt = Configuration(
                {
                    process: configuration.history(process)
                    for process in configuration.processes
                }
            )
            assert configuration == rebuilt
            assert hash(configuration) == hash(rebuilt)
            assert len(configuration) == len(rebuilt)

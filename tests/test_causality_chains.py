"""Unit tests for process chains (§3.1) and the suffix form."""

import pytest

from repro.causality.chains import (
    chain_in_suffix,
    find_process_chain,
    has_process_chain,
    has_process_chain_naive,
)
from repro.causality.order import CausalOrder
from repro.core.computation import computation_of
from repro.core.configuration import Configuration
from repro.core.events import internal, message_pair
from repro.protocols.leader_election import ChangRobertsProtocol
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate


def relay():
    """p -> q -> r message relay."""
    pq_s, pq_r = message_pair("p", "q", "m1")
    qr_s, qr_r = message_pair("q", "r", "m2")
    z = computation_of(pq_s, pq_r, qr_s, qr_r)
    return z


class TestChains:
    def test_single_set_chain_is_event_presence(self):
        z = relay()
        assert has_process_chain(z, ["p"])
        assert not has_process_chain(z, ["x"])

    def test_relay_has_p_q_r_chain(self):
        z = relay()
        assert has_process_chain(z, ["p", "q", "r"])

    def test_no_backward_chain(self):
        z = relay()
        assert not has_process_chain(z, ["r", "q", "p"])
        assert not has_process_chain(z, ["r", "p"])

    def test_repeated_station_allowed(self):
        """Observation 1: P may be replaced by P P (reflexivity of ->)."""
        z = relay()
        assert has_process_chain(z, ["p", "p", "q", "q", "r", "r"])

    def test_process_sets_in_chain(self):
        z = relay()
        assert has_process_chain(z, [{"p", "x"}, {"q"}, {"r", "y"}])

    def test_concurrent_events_make_no_chain(self):
        a = internal("p", tag="a")
        b = internal("q", tag="b")
        z = computation_of(a, b)
        assert not has_process_chain(z, ["p", "q"])
        assert has_process_chain(z, ["p"])
        assert has_process_chain(z, ["q"])

    def test_empty_chain_spec_rejected(self):
        with pytest.raises(ValueError):
            has_process_chain(relay(), [])

    def test_cyclic_segment_rejected(self):
        """Chain ranks need a linearization; a causal cycle has none."""
        snd1, rcv1 = message_pair("p", "q", "m1")
        snd2, rcv2 = message_pair("q", "p", "m2")
        cyclic = Configuration({"p": (rcv2, snd1), "q": (rcv1, snd2)})
        with pytest.raises(ValueError, match="no linearization"):
            has_process_chain(cyclic, ["p"])


class TestWitnesses:
    def test_witness_is_a_causal_chain(self):
        z = relay()
        witness = find_process_chain(z, ["p", "q", "r"])
        assert witness is not None
        assert [event.process for event in witness] == ["p", "q", "r"]

    def test_witness_none_when_no_chain(self):
        z = relay()
        assert find_process_chain(z, ["r", "p"]) is None


class TestNaiveAgreement:
    def test_naive_and_layered_agree(self):
        z = relay()
        specs = [
            ["p"],
            ["q"],
            ["p", "q"],
            ["q", "p"],
            ["p", "q", "r"],
            ["r", "q", "p"],
            ["p", "r"],
            [{"p", "q"}, {"r"}],
        ]
        for spec in specs:
            assert has_process_chain(z, spec) == has_process_chain_naive(z, spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_on_an_election_trace(self, seed):
        """A simulated Chang–Roberts run on an eight-node ring."""
        ring = tuple(f"n{i}" for i in range(8))
        trace = simulate(ChangRobertsProtocol(ring), RandomScheduler(seed))
        order = CausalOrder(trace.computation)
        chain = [frozenset({name}) for name in ring[:4]]
        assert has_process_chain(order, chain) == has_process_chain_naive(order, chain)

    def test_agreement_over_universe(self, broadcast_universe):
        specs = [["a", "b"], ["b", "a"], ["a", "b", "c"], ["c", "a"]]
        for configuration in broadcast_universe:
            for spec in specs:
                assert has_process_chain(configuration, spec) == (
                    has_process_chain_naive(configuration, spec)
                )


class TestSuffixChains:
    def test_chain_in_computation_suffix(self):
        z = relay()
        x = computation_of(*z.events[:2])  # after p->q delivered
        assert chain_in_suffix(z, x, ["q", "r"]) is not None
        assert chain_in_suffix(z, x, ["p", "q"]) is None  # p has no suffix event

    def test_chain_in_configuration_suffix(self):
        z = relay()
        whole = Configuration.from_computation(z)
        prefix = Configuration.from_computation(computation_of(*z.events[:2]))
        assert chain_in_suffix(whole, prefix, ["q", "r"]) is not None

    def test_mixed_types_rejected(self):
        z = relay()
        with pytest.raises(TypeError):
            chain_in_suffix(z, Configuration.from_computation(z), ["p"])

    def test_send_in_prefix_receive_in_suffix_is_no_message_edge(self):
        """A message crossing the cut contributes no chain inside the
        suffix (its send is not a suffix event)."""
        snd, rcv = message_pair("p", "q", "m")
        later = internal("q", tag="later")
        z = computation_of(snd, rcv, later)
        x = computation_of(snd)
        assert chain_in_suffix(z, x, ["p", "q"]) is None
        assert chain_in_suffix(z, x, ["q"]) is not None

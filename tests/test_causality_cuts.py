"""Consistent cuts and the cut lattice."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.causality.cuts import (
    consistent_cuts,
    count_consistent_cuts,
    cut_join,
    cut_meet,
    cut_of_vector,
    cut_vector,
    is_consistent_cut,
    is_lattice_closed,
)
from repro.core.computation import computation_of
from repro.core.configuration import Configuration
from repro.core.events import internal, message_pair
from repro.protocols.pingpong import PingPongProtocol
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate


def base_config() -> Configuration:
    snd, rcv = message_pair("p", "q", "m")
    a = internal("p", tag="a")
    b = internal("q", tag="b")
    return Configuration.from_computation(computation_of(snd, rcv, a, b))


class TestEnumeration:
    def test_counts_message_constraint(self):
        """p: snd, a; q: rcv, b — the rcv needs the snd: 3*3 - blocked."""
        base = base_config()
        cuts = list(consistent_cuts(base))
        # Vectors (i, j) with i in 0..2, j in 0..2, minus those where the
        # receive (j >= 1) lacks the send (i == 0): 9 - 2 = 7... but the
        # receive is q's FIRST event, so j>=1 needs i>=1: 9 - 2 = 7.
        assert len(cuts) == 7
        assert count_consistent_cuts(base) == 7

    def test_all_enumerated_cuts_are_consistent(self):
        base = base_config()
        for cut in consistent_cuts(base):
            assert is_consistent_cut(base, cut)

    def test_inconsistent_cut_detected(self):
        base = base_config()
        bad = Configuration({"q": base.history("q")[:1]})  # rcv without snd
        assert not is_consistent_cut(base, bad)

    def test_non_prefix_rejected(self):
        base = base_config()
        foreign = Configuration({"p": (internal("p", tag="zzz"),)})
        assert not is_consistent_cut(base, foreign)


class TestCyclicConfiguration:
    def test_cyclic_configuration_has_only_the_empty_cut(self):
        """Each receive waits for a send that comes after the other
        receive, so no event can be the first: the message-closed product
        of prefixes would hold the whole configuration, but the only
        downward-closed cut is the empty one."""
        snd1, rcv1 = message_pair("p", "q", "m1")
        snd2, rcv2 = message_pair("q", "p", "m2")
        cyclic = Configuration({"p": (rcv2, snd1), "q": (rcv1, snd2)})
        assert list(consistent_cuts(cyclic)) == [Configuration({})]
        assert count_consistent_cuts(cyclic) == 1

    def test_cyclic_configuration_is_not_its_own_cut(self):
        """Message closure alone would accept the cycle as a cut of
        itself; membership agrees with the enumeration instead."""
        snd1, rcv1 = message_pair("p", "q", "m1")
        snd2, rcv2 = message_pair("q", "p", "m2")
        cyclic = Configuration({"p": (rcv2, snd1), "q": (rcv1, snd2)})
        assert cyclic.received_messages <= cyclic.sent_messages
        assert not is_consistent_cut(cyclic, cyclic)
        assert is_consistent_cut(cyclic, Configuration({}))


PROCESSES = ("p", "q", "r")


@st.composite
def configurations(draw) -> Configuration:
    """Random configurations, cyclic ones included: each event goes to a
    random position of its process's history, so a receive may wait on a
    send that waits on it in turn."""
    histories: dict[str, list] = {process: [] for process in PROCESSES}

    def place(event) -> None:
        history = histories[event.process]
        history.insert(draw(st.integers(0, len(history))), event)

    for index in range(draw(st.integers(0, 5))):
        sender = draw(st.sampled_from(PROCESSES))
        if draw(st.booleans()):
            place(internal(sender, tag="t", seq=index))
            continue
        receiver = draw(st.sampled_from([p for p in PROCESSES if p != sender]))
        for event in message_pair(sender, receiver, "m", seq=index):
            place(event)
    return Configuration(
        {process: tuple(history) for process, history in histories.items() if history}
    )


class TestMembershipMatchesEnumeration:
    @given(configurations())
    @settings(max_examples=80, deadline=None)
    def test_every_sub_configuration(self, base):
        cuts = set(consistent_cuts(base))
        processes = sorted(base.processes)
        for lengths in itertools.product(
            *(range(len(base.history(process)) + 1) for process in processes)
        ):
            candidate = Configuration(
                {
                    process: base.history(process)[:length]
                    for process, length in zip(processes, lengths)
                }
            )
            assert is_consistent_cut(base, candidate) == (candidate in cuts)


class TestLattice:
    def test_meet_and_join(self):
        base = base_config()
        first = cut_of_vector(base, {"p": 2, "q": 0})
        second = cut_of_vector(base, {"p": 1, "q": 1})
        meet = cut_meet(base, first, second)
        join = cut_join(base, first, second)
        assert cut_vector(meet, ("p", "q")) == {"p": 1, "q": 0}
        assert cut_vector(join, ("p", "q")) == {"p": 2, "q": 1}

    def test_lattice_closure(self):
        assert is_lattice_closed(base_config())

    def test_lattice_closure_on_simulated_run(self):
        trace = simulate(PingPongProtocol(rounds=2), RandomScheduler(1))
        assert is_lattice_closed(trace.final_configuration)

    def test_cut_vector_round_trip(self):
        base = base_config()
        for cut in consistent_cuts(base):
            vector = cut_vector(cut, ("p", "q"))
            assert cut_of_vector(base, vector) == cut


class TestAgainstUniverse:
    def test_cuts_coincide_with_reachable_sub_configurations(
        self, pingpong_universe
    ):
        """For protocol universes, the consistent cuts of any reachable
        configuration are exactly its reachable sub-configurations."""
        maximal = max(pingpong_universe, key=len)
        cuts = set(consistent_cuts(maximal))
        reachable = {
            configuration
            for configuration in pingpong_universe
            if configuration.is_sub_configuration_of(maximal)
        }
        assert cuts == reachable

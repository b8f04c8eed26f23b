"""Property-based tests (hypothesis) on core data structures and laws.

Strategies build random *valid* computations over a small process pool:
internal events plus send/receive pairs with the receive scheduled after
the send, so every generated sequence is a system computation.  The
properties are the model-level invariants everything else rests on.
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.causality.chains import (
    find_process_chain,
    has_process_chain,
    has_process_chain_naive,
)
from repro.causality.cuts import consistent_cuts
from repro.causality.clocks import vector_timestamps
from repro.causality.order import CausalOrder
from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.events import internal, message_pair
from repro.core.validation import is_system_computation, is_valid_configuration
from repro.isomorphism.algebra import normalise_sequence
from repro.isomorphism.relation import agreement_set, isomorphic

PROCESSES = ("p", "q", "r")


@st.composite
def computations(draw, max_blocks: int = 6) -> Computation:
    """Random valid system computations.

    Builds a pool of internal events and message pairs, then interleaves
    them with sends always preceding their receives.
    """
    blocks = draw(st.integers(min_value=0, max_value=max_blocks))
    pending: list = []
    events: list = []
    message_counter = 0
    for index in range(blocks):
        kind = draw(st.sampled_from(["internal", "message"]))
        if kind == "internal":
            process = draw(st.sampled_from(PROCESSES))
            events.append(internal(process, tag="t", seq=index))
        else:
            sender = draw(st.sampled_from(PROCESSES))
            receiver = draw(
                st.sampled_from([name for name in PROCESSES if name != sender])
            )
            snd, rcv = message_pair(sender, receiver, "m", seq=message_counter)
            message_counter += 1
            events.append(snd)
            pending.append(rcv)
        # Maybe flush a pending receive.
        if pending and draw(st.booleans()):
            events.append(pending.pop(0))
    events.extend(pending)
    return Computation(events)


@st.composite
def prefixed_computations(draw) -> tuple[Computation, Computation]:
    """A random computation ``z`` and a random prefix ``x`` of it."""
    z = draw(computations())
    return z[: draw(st.integers(min_value=0, max_value=len(z)))], z


process_sets = st.sets(st.sampled_from(PROCESSES), max_size=3).map(frozenset)
set_sequences = st.lists(process_sets, min_size=1, max_size=4)


class TestModelInvariants:
    @given(computations())
    @settings(max_examples=60, deadline=None)
    def test_generated_computations_are_valid(self, z):
        assert is_system_computation(z)

    @given(computations())
    @settings(max_examples=60, deadline=None)
    def test_prefix_closure(self, z):
        for prefix in z.prefixes():
            assert is_system_computation(prefix)

    @given(computations())
    @settings(max_examples=60, deadline=None)
    def test_configuration_round_trip(self, z):
        configuration = Configuration.from_computation(z)
        assert is_valid_configuration(configuration)
        relinearized = configuration.linearize()
        assert relinearized.is_permutation_of(z)
        assert Configuration.from_computation(relinearized) == configuration

    @given(computations())
    @settings(max_examples=60, deadline=None)
    def test_projection_is_a_partition(self, z):
        total = sum(len(z.projection(process)) for process in PROCESSES)
        assert total == len(z)


class TestIsomorphismLaws:
    @given(computations(), process_sets)
    @settings(max_examples=60, deadline=None)
    def test_reflexivity(self, z, p_set):
        assert isomorphic(z, z, p_set)

    @given(computations(), computations(), process_sets)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y, p_set):
        assert isomorphic(x, y, p_set) == isomorphic(y, x, p_set)

    @given(computations(), computations())
    @settings(max_examples=60, deadline=None)
    def test_agreement_set_is_the_largest(self, x, y):
        agreement = agreement_set(x, y)
        assert isomorphic(x, y, agreement)
        for process in set(PROCESSES) - agreement:
            if x.projection(process) or y.projection(process):
                assert not isomorphic(x, y, agreement | {process})

    @given(computations(), computations(), process_sets, process_sets)
    @settings(max_examples=60, deadline=None)
    def test_union_property(self, x, y, first, second):
        assert isomorphic(x, y, first | second) == (
            isomorphic(x, y, first) and isomorphic(x, y, second)
        )

    @given(set_sequences)
    @settings(max_examples=80, deadline=None)
    def test_normalisation_is_idempotent(self, sets):
        once = normalise_sequence(sets)
        assert normalise_sequence(once) == once

    @given(set_sequences)
    @settings(max_examples=80, deadline=None)
    def test_normalisation_never_grows(self, sets):
        assert len(normalise_sequence(sets)) <= len(sets)


class TestCausalityLaws:
    @given(computations())
    @settings(max_examples=40, deadline=None)
    def test_sequence_order_extends_causal_order(self, z):
        """e -> d implies e occurs before d in the sequence."""
        order = CausalOrder(z)
        events = list(z)
        position = {event: index for index, event in enumerate(events)}
        for first in events:
            for second in events:
                if first != second and order.happened_before(first, second):
                    assert position[first] < position[second]

    @given(computations())
    @settings(max_examples=30, deadline=None)
    def test_vector_clocks_characterise_causality(self, z):
        stamps = vector_timestamps(z)
        order = CausalOrder(z)
        for first in z:
            for second in z:
                if first == second:
                    continue
                causal = order.happened_before(first, second)
                dominated = stamps[second].dominates(stamps[first]) and (
                    stamps[first] != stamps[second]
                )
                assert causal == dominated

    @given(computations(), set_sequences)
    @settings(max_examples=40, deadline=None)
    def test_chain_detectors_agree(self, z, sets):
        assert has_process_chain(z, sets) == has_process_chain_naive(z, sets)

    @given(computations(), set_sequences)
    @settings(max_examples=40, deadline=None)
    def test_chain_padding_invariance(self, z, sets):
        """Observation 1: <... P ...> iff <... P P ...>."""
        padded = list(sets[:1]) + list(sets)
        assert has_process_chain(z, sets) == has_process_chain(z, padded)


    @given(prefixed_computations(), set_sequences)
    @settings(max_examples=60, deadline=None)
    def test_chain_witnesses_in_suffixes(self, pair, sets):
        """On the suffix ``(x, z)``, as a computation and as a per-process
        segment, a witness is ``len(sets)`` events, each on its set,
        linked by the BFS oracle; it exists iff the naive search finds a
        chain."""
        x, z = pair
        suffix = Computation(z.suffix_after(x))
        order = CausalOrder(suffix)
        expected = has_process_chain_naive(order, sets)
        whole = Configuration.from_computation(z)
        segment = whole.suffix_after(Configuration.from_computation(x))
        for source in (suffix, segment):
            witness = find_process_chain(source, sets)
            assert (witness is not None) == expected
            if witness is None:
                continue
            assert len(witness) == len(sets)
            assert all(event.process in p_set for event, p_set in zip(witness, sets))
            assert all(
                order.happened_before_bfs(earlier, later)
                for earlier, later in zip(witness, witness[1:])
            )

    @given(computations())
    @settings(max_examples=60, deadline=None)
    def test_consistent_cuts_match_the_prefix_product(self, z):
        """The forward search yields, smallest first and each once, exactly
        the message-closed combinations of per-process prefixes."""
        base = Configuration.from_computation(z)
        processes = sorted(base.processes)
        expected = set()
        for lengths in itertools.product(
            *(range(len(base.history(process)) + 1) for process in processes)
        ):
            cut = Configuration(
                {
                    process: base.history(process)[:length]
                    for process, length in zip(processes, lengths)
                }
            )
            if cut.received_messages <= cut.sent_messages:
                expected.add(cut)
        cuts = list(consistent_cuts(base))
        assert len(cuts) == len(expected) and set(cuts) == expected
        assert [len(cut) for cut in cuts] == sorted(len(cut) for cut in cuts)
        assert cuts[-1] == base


class TestTheorem1Property:
    @given(computations(), set_sequences)
    @settings(max_examples=40, deadline=None)
    def test_constructive_witness_or_chain(self, z, sets):
        """Theorem 1, constructively, on random computations: either the
        chain exists in (null, z) or the witness construction produces a
        linked sequence of valid configurations."""
        from repro.isomorphism.fundamental import composition_witness_by_chains

        empty = Configuration({})
        config = Configuration.from_computation(z)
        witness = composition_witness_by_chains(empty, config, sets)
        if witness is None:
            assert has_process_chain(config, sets)
            return
        assert witness[0] == empty and witness[-1] == config
        for index, p_set in enumerate(sets):
            assert isomorphic(witness[index], witness[index + 1], p_set)
        for intermediate in witness:
            assert is_valid_configuration(intermediate)

"""Value semantics, hashing and caching invariants of the Configuration
fast path.

``extend()`` builds configurations through a no-validate constructor with
an incrementally maintained content hash.  Nothing depends on object
identity: equal configurations built along different paths must be equal
with equal hashes, so sets and dicts deduplicate them by value — these
tests pin that contract.
"""

from types import MappingProxyType

import pytest

from repro.core.configuration import (
    EMPTY_CONFIGURATION,
    Configuration,
    iter_prefix_configurations,
)
from repro.core.errors import InvalidConfigurationError
from repro.core.events import internal, message_pair
from repro.protocols.pingpong import PingPongProtocol
from repro.universe.arena import ArenaStore
from repro.universe.explorer import Universe


def events_pq():
    snd, rcv = message_pair("p", "q", "m")
    a = internal("p", tag="a")
    b = internal("q", tag="b")
    return snd, rcv, a, b


def assert_one_value(first: Configuration, second: Configuration) -> None:
    """Equal value, equal hash, and one key when both go into a dict."""
    assert first == second
    assert hash(first) == hash(second)
    assert len({first: 0, second: 1}) == 1


class TestValueSemantics:
    def test_diamond_extensions_are_one_value(self):
        """Reaching the same configuration along two interleavings gives
        equal values with equal hashes."""
        a = internal("p", tag="a")
        b = internal("q", tag="b")
        via_ab = EMPTY_CONFIGURATION.extend(a).extend(b)
        via_ba = EMPTY_CONFIGURATION.extend(b).extend(a)
        assert_one_value(via_ab, via_ba)
        assert list(via_ab.histories) == list(via_ba.histories) == ["p", "q"]

    def test_extension_chain_is_order_independent(self):
        snd, rcv, a, b = events_pq()
        first = EMPTY_CONFIGURATION.extend(snd).extend(rcv).extend(a).extend(b)
        second = EMPTY_CONFIGURATION.extend(snd).extend(a).extend(rcv).extend(b)
        third = EMPTY_CONFIGURATION.extend(snd).extend(rcv).extend(b).extend(a)
        assert_one_value(first, second)
        assert_one_value(first, third)
        assert_one_value(first, Configuration(first.histories))

    def test_universe_configurations_are_canonical(self):
        """Universes dedup against their own dense-id table: one member
        per [D]-class, and rebuilding any member through ``extend``
        resolves to the same dense id."""
        universe = Universe(PingPongProtocol(rounds=2))
        assert len(universe) == 9
        assert len(set(universe.configurations)) == len(universe)
        for configuration in universe:
            if len(configuration) == 0:
                continue
            rebuilt = EMPTY_CONFIGURATION
            for event in configuration.linearize():
                rebuilt = rebuilt.extend(event)
            assert rebuilt == configuration
            assert universe.config_id(rebuilt) == universe.config_id(
                configuration
            )


    def test_arena_members_hash_like_public_ones(self):
        """Configurations materialised from the arena equal, with an
        equal hash, the same histories through the public constructor
        and through an ``extend`` chain."""
        universe = Universe(PingPongProtocol(rounds=2))
        assert isinstance(universe._configurations, ArenaStore)
        for configuration in universe:
            assert_one_value(configuration, Configuration(configuration.histories))
            chained = EMPTY_CONFIGURATION
            for event in configuration.linearize():
                chained = chained.extend(event)
            assert_one_value(configuration, chained)

    def test_prefix_iteration_agrees_with_extend_chain(self):
        """``iter_prefix_configurations`` keeps its own loop; every prefix
        it yields is one value with the ``extend`` chain's."""
        snd, rcv, a, b = events_pq()
        chained = EMPTY_CONFIGURATION
        prefixes = list(iter_prefix_configurations([snd, a, rcv, b]))
        assert len(prefixes) == 5
        assert_one_value(prefixes[0], chained)
        for event, prefix in zip([snd, a, rcv, b], prefixes[1:]):
            chained = chained.extend(event)
            assert_one_value(prefix, chained)
            assert len(prefix) == len(chained)

    def test_extend_leaves_the_parent_unchanged(self):
        """Two children of one parent share nothing mutable with it: the
        parent keeps its value and hash, and equal children are one key."""
        snd, rcv, a, b = events_pq()
        parent = EMPTY_CONFIGURATION.extend(snd)
        before = (dict(parent.histories), hash(parent), len(parent))
        first = parent.extend(rcv)
        second = parent.extend(rcv)
        other = parent.extend(a)
        assert (dict(parent.histories), hash(parent), len(parent)) == before
        assert_one_value(first, second)
        assert first != other
        assert parent.history("q") == ()


class TestEqualityAndHash:
    def test_public_constructor_round_trip(self):
        snd, rcv, a, b = events_pq()
        extended = EMPTY_CONFIGURATION.extend(snd).extend(rcv).extend(a)
        rebuilt = Configuration(extended.histories)
        assert rebuilt == extended
        assert extended == rebuilt
        assert hash(rebuilt) == hash(extended)
        assert rebuilt in {extended}
        assert extended in {rebuilt}

    def test_extend_agrees_with_public_constructor(self):
        snd, rcv, a, b = events_pq()
        extended = EMPTY_CONFIGURATION.extend(snd).extend(rcv)
        manual = Configuration({"p": (snd,), "q": (rcv,)})
        assert extended == manual
        assert hash(extended) == hash(manual)

    def test_hash_is_insertion_order_independent(self):
        a = internal("p", tag="a")
        b = internal("q", tag="b")
        forward = Configuration({"p": (a,), "q": (b,)})
        backward = Configuration({"q": (b,), "p": (a,)})
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_unequal_configurations_differ(self):
        a = internal("p", tag="a")
        other = internal("p", tag="other")
        assert Configuration({"p": (a,)}) != Configuration({"p": (other,)})
        assert Configuration({"p": (a,)}) != EMPTY_CONFIGURATION

    def test_public_constructor_still_validates(self):
        a = internal("p", tag="a")
        with pytest.raises(InvalidConfigurationError):
            Configuration({"q": (a,)})

    def test_extend_keys_event_under_its_own_process(self):
        a = internal("p", tag="a")
        extended = EMPTY_CONFIGURATION.extend(a)
        assert extended.history("p") == (a,)
        assert extended.processes == frozenset({"p"})


class TestCachedViews:
    def test_histories_is_read_only_and_cached(self):
        snd, rcv, a, b = events_pq()
        configuration = EMPTY_CONFIGURATION.extend(snd).extend(rcv)
        view = configuration.histories
        assert isinstance(view, MappingProxyType)
        assert configuration.histories is view  # cached, not re-allocated
        with pytest.raises(TypeError):
            view["p"] = ()
        assert view == {"p": (snd,), "q": (rcv,)}

    def test_projection_keys_are_memoised(self):
        snd, rcv, a, b = events_pq()
        configuration = EMPTY_CONFIGURATION.extend(snd).extend(rcv).extend(a)
        key = configuration.projection(frozenset({"p"}))
        assert configuration.projection(frozenset({"p"})) is key
        assert key == (("p", (snd, a)),)

    def test_projection_sorted_regardless_of_query_shape(self):
        snd, rcv, a, b = events_pq()
        configuration = EMPTY_CONFIGURATION.extend(snd).extend(rcv).extend(b)
        assert configuration.projection(("q", "p")) == (
            ("p", (snd,)),
            ("q", (rcv, b)),
        )

    def test_resent_message_value_keeps_set_semantics(self):
        """Re-sending a message value that was already received must not
        leave it in the in-flight cache: in_flight == sent - received as
        frozensets, regardless of how the caches were derived."""
        snd, rcv = message_pair("p", "q", "m")
        configuration = EMPTY_CONFIGURATION.extend(snd)
        assert configuration.in_flight_messages == {snd.message}
        configuration = configuration.extend(rcv)
        assert configuration.in_flight_messages == frozenset()
        resent = configuration.extend(snd)  # identical message value again
        fresh = Configuration(dict(resent.histories))
        assert resent.in_flight_messages == fresh.in_flight_messages == frozenset()
        assert resent.sent_messages == fresh.sent_messages
        assert resent.received_messages == fresh.received_messages

    def test_message_set_caches_match_fresh_computation(self):
        universe = Universe(PingPongProtocol(rounds=2))
        for configuration in universe:
            fresh = Configuration(dict(configuration.histories))
            assert configuration.sent_messages == fresh.sent_messages
            assert configuration.received_messages == fresh.received_messages
            assert configuration.in_flight_messages == fresh.in_flight_messages

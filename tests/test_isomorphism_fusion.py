"""Fusion of computations — Lemma 1 and Theorem 2 (§3.3)."""

from functools import cache

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import FusionError
from repro.core.validation import is_valid_configuration
from repro.isomorphism import fusion
from repro.isomorphism.fusion import (
    fuse,
    fuse_disjoint,
    fusion_census,
    fusion_side_conditions,
)
from repro.isomorphism.reference import fusion_census_reference
from repro.isomorphism.relation import isomorphic
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.reference import sub_configuration_pairs
from repro.core.computation import computation_of
from repro.core.events import internal, message_pair
from test_universe_partition import ORACLE_UNIVERSES


@cache
def oracle_universe(name: str) -> Universe:
    return ORACLE_UNIVERSES[name]()


def census(licensed: int, blocked: int, escaped: int = 0) -> dict[str, int]:
    return {"licensed": licensed, "blocked": blocked, "escaped": escaped}


# The object oracle's censuses of the two largest ORACLE_UNIVERSES entries
# (about 18 s per leaf each); the smaller entries run it live.
ORACLE_CENSUSES = {
    "star5": {
        "hub": census(160_769, 859_396),
        **{leaf: census(618_101, 402_064) for leaf in "wxyz"},
    },
    "tree7": {
        "t0": census(544_987, 547_638),
        **{f"t{index}": census(343_801, 748_824) for index in (1, 2)},
        **{f"t{index}": census(747_265, 345_360) for index in (3, 4, 5, 6)},
    },
}


def config(*events) -> Configuration:
    return Configuration.from_computation(computation_of(*events))


class TestLemma1:
    def test_independent_suffixes_fuse(self):
        """(x;E) and (x;Ē) fuse to (x;E;Ē) — the §3.3 observation."""
        base = internal("p", tag="base")
        on_p = internal("p", tag="extra")
        on_q = internal("q", tag="extra")
        x = config(base)
        y = config(base, on_q)  # extends x only on q = P̄ (P = {p})
        z = config(base, on_p)  # extends x only on p = Q̄ (Q = {q})
        w = fuse_disjoint(x, y, z, "p", "q", {"p", "q"})
        assert w == config(base, on_p, on_q)
        assert isomorphic(y, w, "q")
        assert isomorphic(z, w, "p")

    def test_requires_covering_sets(self):
        x = config()
        with pytest.raises(FusionError):
            fuse_disjoint(x, x, x, "p", "p", {"p", "q"})

    def test_requires_isomorphism_hypotheses(self):
        on_p = internal("p", tag="extra")
        x = config()
        y = config(on_p)  # changes p, so not x [p] y
        with pytest.raises(FusionError):
            fuse_disjoint(x, y, x, "p", "q", {"p", "q"})


class TestTheorem2:
    @pytest.mark.parametrize(
        "universe_name, p_set",
        [
            ("pingpong_universe", frozenset("p")),
            ("pingpong_universe", frozenset("q")),
            ("broadcast_universe", frozenset("a")),
            ("broadcast_universe", frozenset("bc")),
        ],
    )
    def test_fusion_over_universe(self, universe_name, p_set, request):
        """Whenever the side conditions hold, the fused computation is a
        valid member of the computation space; :func:`fusion_census`
        counts the same fusions on partition tables."""
        universe = request.getfixturevalue(universe_name)
        complement = universe.complement(p_set)
        licensed = blocked = 0
        for x, y in sub_configuration_pairs(universe):
            for z in universe:
                if not x.is_sub_configuration_of(z):
                    continue
                if fusion_side_conditions(x, y, z, p_set, universe.processes):
                    blocked += 1
                    continue
                w = fuse(x, y, z, p_set, universe.processes)
                licensed += 1
                assert isomorphic(y, w, p_set)
                assert isomorphic(z, w, complement)
                assert x.is_sub_configuration_of(w)
                assert is_valid_configuration(w)
                # Closure: the fused computation is itself reachable.
                assert w in universe
        assert licensed > 0
        census = fusion_census(universe, p_set)
        assert census == {"licensed": licensed, "blocked": blocked, "escaped": 0}

    def test_census_of_star4_hub(self):
        """Side conditions decided once per (x, y) and per (x, z) count the
        same triples as deciding both per (x, y, z)."""
        protocol = BroadcastProtocol(star_topology("hub", ("r0", "r1", "r2")), "hub")
        assert fusion_census(Universe(protocol), {"hub"}) == {
            "licensed": 5249,
            "blocked": 12027,
            "escaped": 0,
        }

    @pytest.mark.parametrize("name", sorted(ORACLE_UNIVERSES))
    def test_census_matches_the_object_oracle(self, name):
        """Counting by class multiplicity gives the census that assembles
        and probes every licensed w, for every singleton P, escapes on
        truncated universes included."""
        universe = oracle_universe(name)
        for process in sorted(universe.processes):
            expected = ORACLE_CENSUSES.get(name, {}).get(process)
            if expected is None:
                expected = fusion_census_reference(universe, {process})
            assert fusion_census(universe, {process}) == expected, process

    def test_truncated_escapes_are_assembled_only_on_a_miss(self, monkeypatch):
        """Under a max_events bound some w lie past the bound: each missing
        (P-class, P̄-class) pair is assembled once and its triples counted
        as escaped, as many as the oracle counts."""
        universe = oracle_universe("star5_truncated")
        expected = fusion_census_reference(universe, {"hub"})
        assembled = []
        assemble = fusion._assemble
        monkeypatch.setattr(
            fusion,
            "_assemble",
            lambda *args: assembled.append(args) or assemble(*args),
        )
        result = fusion_census(universe, {"hub"})
        assert result == expected == census(6_989, 4_096, 144)
        assert 0 < len(assembled) < result["escaped"]

    def test_complete_census_builds_nothing_per_triple(self, monkeypatch):
        """On a complete universe no w is assembled, hashed or looked up."""
        universe = oracle_universe("token_bus_h4")
        calls = []
        monkeypatch.setattr(fusion, "_assemble", lambda *args: calls.append(args))
        monkeypatch.setattr(
            Universe, "config_id", lambda self, c: calls.append(c)
        )
        monkeypatch.setattr(
            Universe, "__contains__", lambda self, c: calls.append(c)
        )
        assert fusion_census(universe, {"p"}) == census(1_170, 1_251)
        assert calls == []

    def test_seeded_escape_names_the_oracles_triple(self, monkeypatch):
        """A w hidden from a complete universe is reported with the y and z
        of the first licensed triple, as the object census reports it."""
        universe = oracle_universe("token_bus_h4")
        monkeypatch.setattr(fusion, "class_pairs", lambda universe, p_set: set())
        with pytest.raises(FusionError) as production:
            fusion_census(universe, {"q"})
        monkeypatch.setattr(Universe, "__contains__", lambda self, c: False)
        with pytest.raises(FusionError) as oracle:
            fusion_census_reference(universe, {"q"})
        message = str(production.value)
        assert message.startswith("fusion of y=Configuration(")
        assert message.endswith("escaped a complete universe")
        assert message == str(oracle.value)

    def test_violated_conditions_reported(self):
        """A chain <P̄ P> in (x, y) blocks the fusion."""
        snd, rcv = message_pair("q", "p", "m")
        x = config()
        y = config(snd, rcv)  # chain <q p> = <P̄ P> in the suffix
        z = config()
        problems = fusion_side_conditions(x, y, z, "p", {"p", "q"})
        assert any("<P̄ P>" in problem for problem in problems)
        with pytest.raises(FusionError):
            fuse(x, y, z, "p", {"p", "q"})

    def test_prefix_conditions_reported(self):
        a = internal("p", tag="a")
        b = internal("p", tag="b")
        x = config(a)
        unrelated = config(b)
        problems = fusion_side_conditions(x, unrelated, x, "p", {"p", "q"})
        assert "x is not a prefix of y" in problems

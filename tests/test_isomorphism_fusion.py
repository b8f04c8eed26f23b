"""Fusion of computations — Lemma 1 and Theorem 2 (§3.3)."""

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import FusionError
from repro.core.validation import is_valid_configuration
from repro.isomorphism.fusion import (
    fuse,
    fuse_disjoint,
    fusion_census,
    fusion_side_conditions,
)
from repro.isomorphism.relation import isomorphic
from repro.core.computation import computation_of
from repro.core.events import internal, message_pair


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
        for x, y in universe.sub_configuration_pairs():
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

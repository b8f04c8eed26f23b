"""End-to-end integration: the paper's full pipeline on one universe.

One test class walks a single token-bus universe through every layer —
exploration, isomorphism algebra, chains, fusion, knowledge, transfer
theorems — the way the paper's sections build on one another.  A second
class cross-validates simulator runs against exhaustively explored
universes.
"""

import pytest

from repro.causality.chains import chain_in_suffix
from repro.isomorphism.algebra import check_idempotence, check_inversion
from repro.isomorphism.extension import check_theorem_3
from repro.isomorphism.fundamental import check_theorem_1
from repro.isomorphism.fusion import fuse, fusion_side_conditions
from repro.isomorphism.relation import isomorphic
from repro.knowledge.axioms import check_all_facts
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows, Not
from repro.knowledge.transfer import (
    check_theorem_5_gain,
    check_theorem_6_loss,
)
from repro.protocols.token_bus import TokenBusProtocol, holds_token_atom
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate
from repro.universe.explorer import Universe
from repro.universe.reference import sub_configuration_pairs


class TestFullPipelineOnTokenBus:
    @pytest.fixture(scope="class")
    def universe(self):
        return Universe(TokenBusProtocol(stations=("p", "q", "r"), max_hops=3))

    @pytest.fixture(scope="class")
    def evaluator(self, universe):
        return KnowledgeEvaluator(universe)

    def test_section_3_algebra(self, universe):
        assert check_idempotence(universe, {"p"})
        assert check_inversion(universe, [{"p"}, {"q"}])

    def test_section_3_2_theorem_1(self, universe):
        sequences = [[{"p"}, {"q"}], [{"q"}, {"p"}], [{"p"}, {"q"}, {"r"}]]
        assert check_theorem_1(universe, sequences) > 0

    def test_section_3_3_fusion(self, universe):
        count = 0
        for x, y in sub_configuration_pairs(universe):
            for z in universe:
                if not x.is_sub_configuration_of(z):
                    continue
                if fusion_side_conditions(x, y, z, {"p"}, universe.processes):
                    continue
                w = fuse(x, y, z, {"p"}, universe.processes)
                assert isomorphic(y, w, {"p"})
                assert w in universe
                count += 1
        assert count > 0

    def test_section_3_4_event_semantics(self, universe):
        counts = check_theorem_3(universe)
        assert counts["receive"] > 0 and counts["send"] > 0

    def test_section_4_knowledge_axioms(self, universe, evaluator):
        protocol = universe.protocol
        results = check_all_facts(
            universe,
            holds_token_atom(protocol, "q"),
            holds_token_atom(protocol, "p"),
            frozenset({"p"}),
            frozenset({"q"}),
            evaluator=evaluator,
        )
        assert all(results.values()), results

    def test_section_4_3_transfer(self, universe, evaluator):
        protocol = universe.protocol
        b = holds_token_atom(protocol, "q")
        gain = check_theorem_5_gain(
            evaluator, [frozenset({"r"})], b, check_receive=False
        )
        assert gain.holds
        loss = check_theorem_6_loss(
            evaluator, [frozenset({"q"})], Not(b), check_send=False
        )
        assert loss.holds

    def test_knowledge_follows_the_token(self, universe, evaluator):
        """When q holds the token, q knows p does not — and this knowledge
        appeared only through the token's process chain."""
        protocol = universe.protocol
        q_holds = holds_token_atom(protocol, "q")
        p_holds = holds_token_atom(protocol, "p")
        knows = Knows("q", Not(p_holds))
        for configuration in evaluator.extension(q_holds):
            assert evaluator.holds(knows, configuration)
        for configuration in evaluator.extension(knows):
            if len(configuration) == 0:
                continue
            # q learnt this after the token crossed p -> q:
            from repro.core.configuration import EMPTY_CONFIGURATION

            assert (
                chain_in_suffix(configuration, EMPTY_CONFIGURATION, ["p", "q"])
                is not None
            )


class TestSimulatorAgainstUniverse:
    def test_every_simulated_run_stays_in_the_universe(self):
        protocol = TokenBusProtocol(stations=("p", "q", "r"), max_hops=3)
        universe = Universe(protocol)
        for seed in range(10):
            trace = simulate(
                TokenBusProtocol(stations=("p", "q", "r"), max_hops=3),
                RandomScheduler(seed),
            )
            for configuration in trace.configurations():
                assert configuration in universe

    def test_universe_members_are_simulatable(self):
        """Every maximal configuration is reached by some scheduler run —
        spot-checked by collecting final configurations over many seeds."""
        protocol = TokenBusProtocol(stations=("p", "q"), max_hops=2)
        universe = Universe(protocol)
        maximal = {
            configuration
            for configuration in universe
            if not universe.successors(configuration)
        }
        reached = set()
        for seed in range(20):
            trace = simulate(
                TokenBusProtocol(stations=("p", "q"), max_hops=2),
                RandomScheduler(seed),
            )
            reached.add(trace.final_configuration)
        assert reached <= maximal
        assert reached  # at least one maximal configuration is realised

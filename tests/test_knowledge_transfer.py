"""Theorems 4, 5, 6 and Lemma 4: how knowledge is transferred (§4.3)."""

from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows
from repro.knowledge.predicates import atom, did_internal, has_received, has_sent
from repro.knowledge.transfer import (
    TransferReport,
    check_lemma_4,
    check_lemma_4_corollaries,
    check_theorem_4,
    check_theorem_4_negative_corollary,
    check_theorem_5_gain,
    check_theorem_6_loss,
    nested_knowledge,
)
from repro.protocols.broadcast import BroadcastProtocol, fact_known_atom, star_topology
from repro.universe.explorer import Universe

P = frozenset("p")
Q = frozenset("q")
A = frozenset("a")
B = frozenset("b")
C = frozenset("c")


class TestTheorem4:
    def test_pingpong(self, pingpong_evaluator):
        b = has_received("q", "ping")
        for sets in ([P], [P, Q], [Q, P], [P, Q, P]):
            report = check_theorem_4(pingpong_evaluator, sets, b)
            assert report.holds, report
        # Non-vacuity: the two-set case must actually fire.
        assert check_theorem_4(pingpong_evaluator, [P, Q], b).checked > 0

    def test_broadcast_three_sets(self, broadcast_evaluator):
        b = did_internal("a", "learn")
        report = check_theorem_4(broadcast_evaluator, [C, B, A], b)
        assert report.holds and report.checked > 0

    def test_sure_variant(self, pingpong_evaluator):
        b = has_received("q", "ping")
        report = check_theorem_4(pingpong_evaluator, [P, Q], b, sure=True)
        assert report.holds and report.checked > 0

    def test_negative_corollary(self, pingpong_evaluator):
        b = has_received("q", "ping")
        for sets in ([P], [P, Q], [Q, P]):
            report = check_theorem_4_negative_corollary(
                pingpong_evaluator, sets, b
            )
            assert report.holds, report


class TestLemma4:
    def test_pingpong_events(self, pingpong_evaluator):
        b = has_received("q", "ping")  # local to q = P̄ for P = {p}
        reports = check_lemma_4(pingpong_evaluator, b, P)
        assert all(report.holds for report in reports.values()), reports
        assert reports["receive"].checked > 0
        assert reports["send"].checked > 0

    def test_plain_atom_goes_through_sure(self, pingpong_evaluator):
        """A plain atom's locality to P̄ is checked with ``Sure``, not by
        construction, and gives the same reports."""
        b = has_received("q", "ping")
        plain = atom("q has received 'ping' (per configuration)", b.fn)
        reports = check_lemma_4(pingpong_evaluator, plain, P)
        assert reports == check_lemma_4(pingpong_evaluator, b, P)
        assert reports["receive"].checked > 0
        # q's receipt is not local to {p}, the complement of Q: vacuous.
        vacuous = check_lemma_4(pingpong_evaluator, plain, Q)
        assert all(report.checked == 0 for report in vacuous.values())

    def test_broadcast_events(self, broadcast_evaluator):
        b = did_internal("a", "learn")  # local to a
        reports = check_lemma_4(broadcast_evaluator, b, frozenset({"b", "c"}))
        assert all(report.holds for report in reports.values()), reports

    def test_corollaries_gain_needs_receive_loss_needs_send(
        self, pingpong_evaluator
    ):
        b = has_received("q", "ping")
        reports = check_lemma_4_corollaries(pingpong_evaluator, b, P)
        assert reports["gain-receive"].holds
        assert reports["loss-send"].holds
        assert reports["gain-receive"].checked > 0


class TestTheorem5Gain:
    def test_pingpong_single_set(self, pingpong_evaluator):
        b = has_received("q", "ping")
        report = check_theorem_5_gain(pingpong_evaluator, [P], b)
        assert report.holds and report.checked > 0

    def test_pingpong_two_sets(self, pingpong_evaluator):
        b = has_received("q", "ping")
        report = check_theorem_5_gain(pingpong_evaluator, [P, Q], b)
        assert report.holds, report

    def test_broadcast_chain_direction(self, broadcast_evaluator):
        """c knows b knows (fact at a): the chain must run a -> b -> c...
        i.e. <Pn ... P1> with P1 = {c}, P2 = {b}, ... reversed."""
        b = did_internal("a", "learn")
        report = check_theorem_5_gain(broadcast_evaluator, [C, B], b)
        assert report.holds and report.checked > 0

    def test_token_bus(self, token_bus_evaluator):
        from repro.protocols.token_bus import holds_token_atom

        protocol = token_bus_evaluator.universe.protocol
        b = holds_token_atom(protocol, "q")
        report = check_theorem_5_gain(
            token_bus_evaluator, [frozenset({"r"})], b, check_receive=False
        )
        assert report.holds


class TestTheorem6Loss:
    def test_pingpong(self, pingpong_evaluator):
        """p knows 'q has not sent pong #2' and loses that knowledge when
        q sends — loss requires a chain ending at the loser."""
        from repro.knowledge.formula import Not

        b = Not(has_sent("q", "pong"))
        report = check_theorem_6_loss(pingpong_evaluator, [P, Q], b)
        assert report.holds

    def test_toggle_loss_is_exercised(self, toggle_evaluator):
        """q knows bit=false initially; the owner's flip destroys it."""
        from repro.knowledge.formula import Not
        from repro.protocols.toggle import bit_atom

        bit = bit_atom(toggle_evaluator.universe.protocol)
        report = check_theorem_6_loss(
            toggle_evaluator, [Q, P], Not(bit), check_send=False
        )
        assert report.holds

    def test_loss_of_remote_knowledge_needs_send(self, pingpong_evaluator):
        from repro.knowledge.formula import Not

        b = Not(has_sent("q", "pong"))  # local to q
        report = check_theorem_6_loss(pingpong_evaluator, [P, Q], b)
        assert report.holds


class TestNestedKnowledgeBuilder:
    def test_nesting_order(self):
        b = has_received("q", "ping")
        nested = nested_knowledge([P, Q], b)
        assert isinstance(nested, Knows)
        assert nested.processes == P
        assert nested.operand.processes == Q

    def test_sure_nesting(self):
        from repro.knowledge.formula import Sure

        b = has_received("q", "ping")
        nested = nested_knowledge([P], b, sure=True)
        assert isinstance(nested, Sure)


class TestStarInstanceCounts:
    """The transfer checks run on dense ids, so whole stars fit in tier-1:
    Theorem 4 ``[{r0},{hub}]`` for the root's fact, Lemma 4 per leaf, and
    at n=6 Theorems 5 and 6 and Lemma 4's corollaries on descendant
    masks."""

    @staticmethod
    def _evaluator(size: int):
        leaves = tuple(f"r{index}" for index in range(size - 1))
        protocol = BroadcastProtocol(star_topology("hub", leaves), "hub")
        evaluator = KnowledgeEvaluator(Universe(protocol))
        return evaluator, fact_known_atom(protocol, "hub"), leaves

    def test_star6(self):
        evaluator, fact, leaves = self._evaluator(6)
        assert len(evaluator.universe) == 6_332
        report = check_theorem_4(evaluator, ["r0", "hub"], fact)
        assert report.holds and report.checked == 16_233_602
        for leaf in leaves:
            reports = check_lemma_4(evaluator, fact, leaf)
            assert all(report.holds for report in reports.values()), leaf
            assert reports["receive"].checked == 2_849, leaf
            assert reports["send"].checked == reports["internal"].checked == 0
        gain = check_theorem_5_gain(evaluator, ["r0"], fact)
        assert gain == TransferReport(42_007, True)
        loss = check_theorem_6_loss(evaluator, ["r0", "hub"], fact)
        assert loss == TransferReport(0, True)
        assert check_lemma_4_corollaries(evaluator, fact, "r0") == {
            "gain-receive": TransferReport(42_007, True),
            "loss-send": TransferReport(0, True),
        }

    def test_star7(self):
        evaluator, fact, leaves = self._evaluator(7)
        assert len(evaluator.universe) == 75_974
        report = check_theorem_4(evaluator, ["r0", "hub"], fact)
        assert report.holds and report.checked == 2_425_004_082
        reports = check_lemma_4(evaluator, fact, leaves[-1])
        assert all(report.holds for report in reports.values())
        assert reports["receive"].checked == 34_821

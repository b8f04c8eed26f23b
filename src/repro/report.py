"""One-shot verification report: every theorem checker, one document.

:func:`verification_report` runs the complete battery — the Figure 3-1
relations, isomorphism properties, Theorem 1, fusion, event semantics,
knowledge facts, local predicates, common knowledge, transfer theorems,
the token-bus example, the §5 applications and the §6 generalisations —
on freshly explored universes and renders a markdown summary, one row
per claim of the paper's experiments E1–E12 and E14.  It is the index of
the reproduction and the library's self-check: a downstream user (or CI
job) can regenerate the entire verdict with

    python -m repro.cli report

in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.applications.failure_detection import analyse_async, analyse_sync
from repro.applications.termination_bounds import (
    overhead_table,
    run_dijkstra_scholten,
    spontaneous_ds_workload,
    spontaneous_overhead_after_termination,
)
from repro.applications.tracking import analyse_tracking
from repro.core.errors import FusionError
from repro.isomorphism.algebra import check_all_properties
from repro.isomorphism.diagram import IsomorphismDiagram
from repro.isomorphism.extension import check_theorem_3
from repro.isomorphism.fundamental import check_theorem_1
from repro.isomorphism.fusion import fusion_census
from repro.isomorphism.relation import isomorphic
from repro.isomorphism.state_based import (
    StateAbstraction,
    check_state_knowledge_facts,
    length_abstraction,
)
from repro.knowledge.axioms import check_all_facts
from repro.knowledge.belief import false_belief_census
from repro.knowledge.common import check_common_knowledge
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Not
from repro.knowledge.predicates import (
    check_all_local_facts,
    has_received,
    has_sent,
)
from repro.knowledge.transfer import (
    check_theorem_4,
    check_theorem_5_gain,
    check_theorem_6_loss,
)
from repro.protocols.broadcast import BroadcastProtocol, line_topology
from repro.protocols.commit import TwoPhaseCommitProtocol
from repro.protocols.failure_monitor import (
    AsyncFailureMonitorProtocol,
    SyncFailureMonitorProtocol,
)
from repro.protocols.mutex import TokenRingMutexProtocol, check_mutual_exclusion
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.toggle import ToggleProtocol
from repro.protocols.token_bus import TokenBusProtocol, check_paper_example
from repro.simulation.scheduler import RandomScheduler
from repro.universe.builder import figure_3_1_computations
from repro.universe.explorer import Universe


@dataclass
class ReportItem:
    """One verdict line of the report."""

    experiment: str
    claim: str
    verdict: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """All verdicts, renderable as markdown."""

    items: list[ReportItem] = field(default_factory=list)

    def add(self, experiment: str, claim: str, verdict: bool, detail: str = "") -> None:
        self.items.append(ReportItem(experiment, claim, verdict, detail))

    @property
    def all_hold(self) -> bool:
        return all(item.verdict for item in self.items)

    def to_markdown(self) -> str:
        lines = [
            "# Verification report — How Processes Learn (Chandy & Misra 1985)",
            "",
            f"Overall: **{'ALL CLAIMS VERIFIED' if self.all_hold else 'FAILURES FOUND'}**"
            f" ({sum(item.verdict for item in self.items)}/{len(self.items)})",
            "",
            "| experiment | claim | verdict | detail |",
            "|---|---|---|---|",
        ]
        for item in self.items:
            mark = "✓" if item.verdict else "✗ FAIL"
            lines.append(
                f"| {item.experiment} | {item.claim} | {mark} | {item.detail} |"
            )
        return "\n".join(lines)


def verification_report() -> VerificationReport:
    """Run the complete checker battery on small complete universes."""
    report = VerificationReport()

    pingpong = Universe(PingPongProtocol(rounds=2))
    evaluator = KnowledgeEvaluator(pingpong)
    b = has_received("q", "ping")
    b2 = has_sent("p", "ping")
    p_set, q_set = frozenset("p"), frozenset("q")

    # --- Section 3 -----------------------------------------------------
    figure = figure_3_1_computations()
    x, y, z, w = (figure[name] for name in "xyzw")
    diagram = IsomorphismDiagram(figure.values(), {"p", "q"})
    relations = [
        isomorphic(x, y, "p"),
        not isomorphic(x, y, "q"),
        x.is_permutation_of(z),
        isomorphic(z, w, "q"),
        not isomorphic(y, w, "p"),
        not isomorphic(y, w, "q"),
        diagram.label(x, y) == {"p"},
        diagram.label(x, z) == {"p", "q"},
        diagram.label(z, w) == {"q"},
        diagram.label(y, w) is None,
        diagram.has_labelled_path(y, ["p", "q"], w),
    ]
    report.add("E1", "Figure 3-1 relations (Example 1)", all(relations),
               f"{sum(relations)}/{len(relations)} relations")
    properties = check_all_properties(pingpong)
    report.add(
        "E2",
        "isomorphism properties 1-10",
        all(properties.values()),
        f"{sum(properties.values())}/10 over {len(pingpong)} computations",
    )
    try:
        instances = check_theorem_1(
            pingpong, [[p_set], [q_set], [p_set, q_set], [q_set, p_set]]
        )
        verdict, detail = True, f"{instances} instances"
    except AssertionError as error:
        verdict, detail = False, str(error)
    report.add("E3", "Theorem 1 (chains vs isomorphism)", verdict, detail)
    line = Universe(BroadcastProtocol(line_topology(("a", "b", "c")), root="a"))
    try:
        censuses = [fusion_census(pingpong, p_set), fusion_census(line, "a")]
        verdict = all(c["licensed"] > 0 and c["escaped"] == 0 for c in censuses)
        detail = "+".join(str(c["licensed"]) for c in censuses) + " licensed fusions"
    except FusionError as error:
        verdict, detail = False, str(error)
    report.add("E4", "fusion (Lemma 1 / Theorem 2)", verdict, detail)
    semantics = check_theorem_3(pingpong)
    report.add(
        "E5",
        "Theorem 3 (receive shrinks / send grows)",
        semantics["receive"] > 0 and semantics["send"] > 0,
        f"{sum(semantics.values())} transitions",
    )

    # --- Section 4 -----------------------------------------------------
    facts = check_all_facts(pingpong, b, b2, p_set, q_set, evaluator=evaluator)
    report.add("E6", "knowledge facts 1-12 (incl. Lemma 2)",
               all(facts.values()), f"{sum(facts.values())}/12")
    local = check_all_local_facts(pingpong, b, q_set, p_set, evaluator=evaluator)
    report.add("E8", "local-predicate facts 1-8 + corollaries",
               all(local.values()), f"{sum(local.values())}/{len(local)}")
    common = check_common_knowledge(pingpong, b, evaluator=evaluator)
    report.add("E8", "common knowledge constant (never gained)",
               all(common.values()), "fixpoint + hierarchy + constancy")
    t4 = check_theorem_4(evaluator, [p_set, q_set], b)
    t5 = check_theorem_5_gain(evaluator, [p_set], b)
    t6 = check_theorem_6_loss(evaluator, [p_set, q_set], Not(has_sent("q", "pong")))
    report.add("E9", "Theorems 4/5/6 (knowledge transfer)",
               t4.holds and t5.holds and t6.holds,
               f"{t4.checked}+{t5.checked}+{t6.checked} instances")

    token_bus = Universe(TokenBusProtocol(max_hops=3))
    example = check_paper_example(token_bus)
    report.add("E7", "token-bus nested knowledge (§4.1)",
               bool(example["valid"]), f"{example['r_holds_count']} r-holding configs")

    # --- Section 5 -----------------------------------------------------
    tracking = analyse_tracking(Universe(ToggleProtocol(max_flips=2)))
    report.add("E10", "tracking impossibility (§5a)",
               tracking.observer_unsure_at_every_flip
               and tracking.owner_knows_observer_unsure
               and tracking.tracking_impossible,
               f"{tracking.flip_transitions} flip points")
    async_report = analyse_async(Universe(AsyncFailureMonitorProtocol(heartbeats=2)))
    report.add("E11", "failure detection impossible without timeouts (§5b)",
               async_report.impossibility_holds,
               f"{async_report.crash_configurations} crash configs, never sure")
    sync_report = analyse_sync(Universe(SyncFailureMonitorProtocol(rounds=2)))
    report.add("E11", "timeout detection possible and sound (§5b)",
               sync_report.detection_possible and sync_report.detection_sound,
               f"{sync_report.detection_configurations} detection configs")
    rows = overhead_table(process_counts=(3, 4), seeds=(0,))
    bound_met = all(row.ds_meets_bound and row.ds_overhead == row.underlying
                    for row in rows)
    scenario_run, scenario_trace = run_dijkstra_scholten(
        spontaneous_ds_workload(), RandomScheduler(0)
    )
    spontaneous = spontaneous_overhead_after_termination(
        scenario_trace, scenario_run.termination_index
    )
    report.add("E12", "termination bound: DS overhead == underlying (§5c)",
               bound_met, f"{len(rows)} workloads")
    report.add("E12", "overhead after termination, sent spontaneously (§5c)",
               spontaneous >= 1, f"{spontaneous} message(s)")

    # --- Section 6 -----------------------------------------------------
    commit = TwoPhaseCommitProtocol(("p1", "p2"))
    commit_universe = Universe(commit)
    state_facts = check_state_knowledge_facts(
        commit_universe,
        StateAbstraction(default=length_abstraction()),
        commit.all_voted_yes(),
        {"p1"},
    )
    report.add("E14", "state-based isomorphism: surviving facts (§6)",
               all(state_facts.values()), f"{sum(state_facts.values())}/{len(state_facts)}")
    async_protocol = AsyncFailureMonitorProtocol(heartbeats=2)
    async_universe = Universe(async_protocol)
    crashed = async_protocol.crashed_atom()
    census = false_belief_census(
        async_universe, lambda c: not crashed.fn(c), {"m"}, Not(crashed)
    )
    report.add("E14", "belief is not veridical (§6)",
               census["false_beliefs"] > 0,
               f"{census['false_beliefs']} false beliefs")
    mutex = check_mutual_exclusion(
        Universe(TokenRingMutexProtocol(max_hops=3, max_sessions=1))
    )
    report.add("E14", "mutual exclusion safety is knowledge",
               bool(mutex["safe"] and mutex["epistemic"]),
               f"{mutex['sessions']} CS configs")
    return report

"""Workload side of the repository benchmark.

``run.py`` starts this file in a fresh interpreter for every run, with
``PYTHONHASHSEED`` set from the run's seed and ``PYTHONPATH`` set to the
checkout's ``src``.  It runs one named workload as a closed loop with
one caller (the next iteration starts when the previous one has
finished) until ``--seconds`` of iterations have passed, checks every
output, and prints one JSON report as the last line of its stdout.
Each iteration builds its universe and answers its questions from
scratch, and is short (about a second), so a run holds many of them.
Every untimed block ends with a yardstick pass (``yardstick.py``), so
one runs right before and right after each timed phase; an iteration's
times are its phases' wall times scaled by the passes beside them.

With ``--setup-only`` it performs just the workload's set-up (imports
and protocol construction, plus the temp dir of checkpointing
workloads) and exits; ``run.py`` times a few of those processes for
``setup_s``.

With ``--trace 1`` the iterations alternate between untraced and traced
(which comes first follows the seed's parity, so order effects cancel
across runs); a traced iteration wraps the layers' public functions in
spans and adds measurement-only passes (see ``tracing.py``).

Every expected count and digest below is a property of the protocol,
not of the hash seed: the universe's ids are claimed hash-seed
independent, and the checks hold the code to that on every seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import yardstick
from tracing import ALGEBRA_PROPERTIES, Tracer

PROBES = {"explore-star7": 4096, "durable-tree13": 128, "shard2-star6": 4096}
"""Sampled ids per run, per workload: the id round-trip probes and the
resumed-vs-uninterrupted and sharded-vs-single comparisons.  Enough that
the probes take a measurable share of a second."""

AGREE_IDS = 256
"""Sampled ids at which the sharded and single-process universes are
compared content for content."""

FIXED_IDS = 16
"""Evenly spaced ids whose content digest must match on every seed."""

MIN_COVERAGE = 0.95
"""Share of a traced iteration's user time the top-level spans must cover."""


@dataclass(frozen=True)
class Expected:
    configs: int
    edges: int
    digest: str


STAR7 = Expected(
    75_974,
    246_913,
    "61a014053c1964f8e3ce1384922a0c9817a6c1147947c216bf7553e94ac1cfd9",
)
STAR6 = Expected(
    6_332,
    17_411,
    "1022895e18ef78f5108f25b59d69d42708b912c2a7aa48e485dd6f4bab3e0607",
)
TREE13 = Expected(
    62_954,
    264_417,
    "41367cbd57c519d321017bfebc9c4fc3c7856912e54f3ced178159e850cb6a5d",
)
STAR6_ANSWERS = {
    "partition_classes": 337,
    "atom": 6_331,
    "knows": 2_849,
    "common": 0,
    "lemma4_receive": 2_849,
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def star(size: int):
    """Flooding broadcast from ``hub`` over a star of ``size`` processes."""
    from repro.protocols.broadcast import BroadcastProtocol, star_topology

    leaves = tuple(f"r{index}" for index in range(size - 1))
    return BroadcastProtocol(star_topology("hub", leaves), "hub")


def tree(size: int):
    """Flooding broadcast from the root of a binary tree of ``size``
    processes in heap layout."""
    from repro.protocols.broadcast import BroadcastProtocol, tree_topology

    names = [f"t{index}" for index in range(size)]
    return BroadcastProtocol(tree_topology(names, 2), names[0])


def options(**groups):
    """The production path: arena store, no configuration cap."""
    from repro.universe.options import ExplorationOptions, Limits

    return ExplorationOptions(
        limits=Limits(max_configurations=None), store="arena", **groups
    )


# ----------------------------------------------------------------------
# Output fingerprints
# ----------------------------------------------------------------------
def fingerprint(configuration, processes) -> str:
    return repr(
        [(process, [repr(e) for e in configuration.history(process)])
         for process in processes]
    )


def snapshot(universe, ids) -> list[tuple[str, list[int]]]:
    """Content and successor ids of ``ids``: what two universes that
    claim to be identical must agree on."""
    processes = sorted(universe.processes)
    rows = []
    for index in ids:
        configuration = universe.configuration_of_id(index)
        rows.append((
            fingerprint(configuration, processes),
            [universe.config_id(s) for s in universe.successors(configuration)],
        ))
    return rows


def digest(universe) -> str:
    count = len(universe)
    ids = range(0, count, max(1, count // FIXED_IDS))
    return hashlib.sha256(repr(snapshot(universe, ids)).encode()).hexdigest()


def peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork+exec, so
    # a process exec'd from a large parent would report the parent's peak.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """State shared by the iterations of one run of one workload."""

    def __init__(self, workload: str, seed: int, scratch: str) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.sample_ids: list[int] = []
        self.reference: list | None = None
        self.leaf: str | None = None
        self.worker_rss_mb = 0.0
        self.yardstick_ends: list[float] = []
        self.yardstick_s: list[float] = []

    def expect(self, operation: str, ok: bool, detail: object = "") -> None:
        """One checked operation; a failure names workload and operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{self.workload}:{operation}: {detail}")

    @contextmanager
    def observe(self, name: str = "check"):
        """An untimed block (checks, teardown).  It ends with a yardstick
        pass and a full collection, so the next timed phase starts from a
        settled heap, not with whatever garbage the checks left."""
        with self.tracer.span(name, "observe"):
            yield
            self.mark()
            gc.collect()

    def mark(self) -> None:
        """One yardstick pass, kept for scaling the phases beside it."""
        end, seconds = yardstick.measure()
        self.yardstick_ends.append(end)
        self.yardstick_s.append(seconds)

    def scaled(self, record: list) -> float:
        """A phase span's duration at the reference speed, by the mean of
        the yardstick passes right before and right after it."""
        before = bisect_right(self.yardstick_ends, record[2]) - 1
        after = bisect_left(self.yardstick_ends, record[3])
        speed = (self.yardstick_s[before] + self.yardstick_s[after]) / 2
        return yardstick.scale(Tracer.duration(record), speed)

    def sample(self, count: int) -> list[int]:
        if not self.sample_ids:
            self.sample_ids = sorted(
                self.rng.sample(range(count), PROBES[self.workload]))
        return self.sample_ids

    # -- shared steps ---------------------------------------------------
    def build(self, protocol, expected: Expected, layers: dict | None, **groups):
        from repro.universe.explorer import Universe

        with self.tracer.span("build") as record:
            universe = Universe(protocol, options=options(**groups))
        seconds = Tracer.duration(record)
        with self.observe():
            edges = len(universe._succ_ids)
            self.expect("build.configs", len(universe) == expected.configs,
                        len(universe))
            self.expect("build.complete", universe.is_complete)
            self.expect("build.edges", edges == expected.edges, edges)
            found = digest(universe)
            self.expect("build.fixed-ids", found == expected.digest, found)
            if layers is not None:
                layers.update(explorer_layers(universe, protocol, edges, seconds))
        return universe

    def probes(self, universe) -> None:
        """Sampled id -> configuration -> id round trips, with successors."""
        ids = self.sample(len(universe))
        with self.tracer.span("answer.probes"):
            rows = []
            for index in ids:
                configuration = universe.configuration_of_id(index)
                successors = universe.successors(configuration)
                rows.append((
                    index,
                    configuration,
                    universe.config_id(configuration),
                    successors,
                    [universe.config_id(s) for s in successors],
                ))
        with self.observe():
            for index, configuration, back, successors, successor_ids in rows:
                self.expect("probe.round-trip", back == index, (index, back))
                self.expect(
                    "probe.successors",
                    all(s > index for s in successor_ids)
                    and all(len(s) == len(configuration) + 1 for s in successors),
                    index,
                )


def explorer_layers(universe, protocol, edges: int, seconds: float) -> dict:
    """Per-layer numbers of one build: protocol, explorer kernel, arena.

    The one materialising pass both times arena reads and yields the BFS
    layer widths (every edge adds one event, so a configuration's layer
    is its event count)."""
    widths: dict[int, int] = {}
    start = time.perf_counter()
    for configuration in universe:
        depth = len(configuration)
        widths[depth] = widths.get(depth, 0) + 1
    materialise = time.perf_counter() - start
    arena = universe._configurations.stats()
    configs = len(universe)
    return {
        "protocol.table_build_s": protocol.step_table.build_seconds,
        "explorer.configs": configs,
        "explorer.edges": edges,
        "explorer.new_per_edge": (configs - 1) / edges,
        "explorer.configs_per_s": configs / seconds,
        "explorer.bfs_layers": len(widths),
        "explorer.widest_layer": max(widths.values()),
        "arena.materialise_s": materialise,
        "arena.sealed_chunks": arena["sealed_chunks"],
        "arena.raw_bytes": arena["raw_bytes"],
        "arena.compressed_bytes": arena["compressed_bytes"],
    }


# ----------------------------------------------------------------------
# Workloads: one iteration each
# ----------------------------------------------------------------------
def explore_star7(run: Run, layers: dict | None) -> None:
    with run.tracer.span("setup"):
        protocol = star(7)
    universe = run.build(protocol, STAR7, layers)
    run.probes(universe)
    with run.observe("release"):
        del universe


def answer_star6(run: Run, layers: dict | None) -> None:
    from repro.isomorphism.algebra import check_all_properties
    from repro.knowledge.evaluator import KnowledgeEvaluator
    from repro.knowledge.formula import CommonKnowledge, Knows
    from repro.knowledge.transfer import check_lemma_4
    from repro.protocols.broadcast import fact_known_atom

    tracer = run.tracer
    with tracer.span("setup"):
        protocol = star(6)
        leaf = run.leaf
    universe = run.build(protocol, STAR6, layers)
    first = len(tracer.spans)
    with tracer.span("answer.partitions") as partitions:
        tables = [universe.partition_table({p}) for p in sorted(universe.processes)]
    with tracer.span("answer.sweep") as sweep:
        verdicts = check_all_properties(universe, max_sets=8)
    with tracer.span("answer.atom") as atom_span:
        evaluator = KnowledgeEvaluator(universe)
        atom = fact_known_atom(protocol, protocol.root)
        atom_mask = evaluator.extension_mask(atom)
    with tracer.span("answer.knows") as knows_span:
        knows_mask = evaluator.extension_mask(
            Knows({leaf}, Knows({protocol.root}, atom))
        )
    with tracer.span("answer.common") as common_span:
        common_mask = evaluator.extension_mask(
            CommonKnowledge(universe.processes, atom)
        )
    with tracer.span("answer.lemma4") as lemma4:
        reports = check_lemma_4(evaluator, atom, {leaf})
    with run.observe():
        expected = STAR6_ANSWERS
        classes = sum(table.num_classes for table in tables)
        run.expect("partitions.classes", classes == expected["partition_classes"],
                   classes)
        run.expect("sweep.properties", len(verdicts) == len(ALGEBRA_PROPERTIES),
                   sorted(verdicts))
        for prop, verdict in sorted(verdicts.items()):
            run.expect(f"sweep.{prop}", verdict is True)
        for operation, mask in (
            ("atom", atom_mask), ("knows", knows_mask), ("common", common_mask)
        ):
            found = bin(mask).count("1")
            run.expect(f"{operation}.extension", found == expected[operation], found)
        for kind, report in sorted(reports.items()):
            run.expect(f"lemma4.{kind}", report.holds, report.counterexample)
        received = reports["receive"].checked
        run.expect("lemma4.receive-instances",
                   received == expected["lemma4_receive"], received)
        if layers is not None:
            layers.update({
                "isomorphism.partition_s": Tracer.duration(partitions),
                "isomorphism.partition_classes": classes,
                "isomorphism.refinement_s": tracer.total(
                    first, "isomorphism.refinement"),
                "isomorphism.sweep_s": Tracer.duration(sweep),
                "knowledge.atom_s": Tracer.duration(atom_span),
                "knowledge.knows_s": Tracer.duration(knows_span),
                "knowledge.common_s": Tracer.duration(common_span),
                "knowledge.lemma4_s": Tracer.duration(lemma4),
                "knowledge.lemma4_edges": sum(
                    report.checked for report in reports.values()),
            })
            for prop in ALGEBRA_PROPERTIES:
                layers[f"isomorphism.{prop}_s"] = tracer.total(
                    first, f"isomorphism.{prop}", parent_name="answer.sweep")
    with run.observe("release"):
        del universe, tables, evaluator


def durable_tree13(run: Run, layers: dict | None) -> None:
    from repro.universe.checkpoint import inspect_checkpoint
    from repro.universe.explorer import Universe
    from repro.universe.options import CheckpointPolicy

    tracer = run.tracer
    with tracer.span("setup"):
        protocol = tree(13)
        directory = tempfile.mkdtemp(prefix="durable-", dir=run.scratch)
        path = os.path.join(directory, "universe.ckpt")
    universe = run.build(protocol, TREE13, layers,
                         checkpoint=CheckpointPolicy(path=path, every=1))
    with run.observe():
        ids = run.sample(len(universe))
        uninterrupted = snapshot(universe, ids)
        count = len(universe)
        on_disk = sum(
            entry.stat().st_size for entry in os.scandir(directory)
        )
    with run.observe("release"):
        del universe
    with tracer.span("answer.inspect") as inspect:
        report = inspect_checkpoint(path)
    with tracer.span("answer.resume") as resume:
        resumed = Universe(tree(13), options=options(
            checkpoint=CheckpointPolicy(path=path, every=1)))
    with run.observe():
        statuses = [segment["status"] for segment in report["segments"]]
        run.expect("inspect.valid", report["valid"], report["error"])
        run.expect("inspect.complete", report["complete"] is True)
        run.expect("inspect.count", report["count"] == count, report["count"])
        run.expect("inspect.segments", bool(statuses)
                   and all(s == "ok" for s in statuses), statuses)
        run.expect("resume.configs", len(resumed) == count, len(resumed))
        run.expect("resume.complete", resumed.is_complete)
        run.expect("resume.recovery", not resumed.recovery_log,
                   resumed.recovery_log)
        run.expect("resume.sample-ids", snapshot(resumed, ids) == uninterrupted)
        if layers is not None:
            layers.update({
                "checkpoint.segments": len(statuses),
                "checkpoint.bytes": on_disk,
                "checkpoint.inspect_s": Tracer.duration(inspect),
                "checkpoint.resume_s": Tracer.duration(resume),
            })
    with run.observe("release"):
        del resumed
        shutil.rmtree(directory)


def shard2_star6(run: Run, layers: dict | None) -> None:
    from repro.universe.options import Sharding

    tracer = run.tracer
    with tracer.span("setup"):
        protocol = star(6)
    first = len(tracer.spans)
    universe = run.build(protocol, STAR6, layers, sharding=Sharding(workers=2))
    run.probes(universe)
    with run.observe():
        workers = universe.worker_peak_rss_mb
        run.expect("build.worker-peaks", len(workers) == 2, workers)
        run.worker_rss_mb = max(run.worker_rss_mb, sum(workers.values()))
        found = snapshot(universe, run.sample_ids[:AGREE_IDS])
        run.expect("agree.single-process", found == run.reference)
        if layers is not None:
            layers.update({
                "sharded.explore_s": tracer.total(first, "build"),
                "sharded.worker_rss_mb": sum(workers.values()),
                "sharded.recovery_events": len(universe.recovery_log),
            })
    with run.observe("release"):
        del universe


def prepare(run: Run, workload: str) -> None:
    """Per-run inputs drawn from the seed, before any timed iteration."""
    if workload == "answer-star6":
        run.leaf = run.rng.choice(sorted(star(6).processes - {"hub"}))
    if workload == "shard2-star6":
        # The single-process universe the sharded builds must agree with,
        # at this run's sampled ids.
        from repro.universe.explorer import Universe

        with run.observe("reference"):
            reference = Universe(star(6), options=options())
            ids = run.sample(len(reference))[:AGREE_IDS]
            run.reference = snapshot(reference, ids)
            del reference


WORKLOADS = {
    "explore-star7": explore_star7,
    "answer-star6": answer_star6,
    "durable-tree13": durable_tree13,
    "shard2-star6": shard2_star6,
}

MIN_CPUS = {"shard2-star6": 2}
"""Cores a workload needs for its numbers to mean what they claim."""


def setup_only(workload: str, scratch: str) -> None:
    """Import what the workload imports and build its inputs, then exit."""
    import repro.universe.explorer  # noqa: F401

    if workload == "answer-star6":
        import repro.isomorphism.algebra  # noqa: F401
        import repro.knowledge.transfer  # noqa: F401
    if workload == "durable-tree13":
        import repro.universe.checkpoint  # noqa: F401

        tree(13)
        shutil.rmtree(tempfile.mkdtemp(prefix="setup-", dir=scratch))
    else:
        star(7 if workload == "explore-star7" else 6)


def iterate(run: Run, body, traced: bool) -> dict:
    """One iteration; returns its end-to-end and per-layer numbers."""
    tracer = run.tracer
    first = len(tracer.spans)
    layers: dict | None = {} if traced else None
    with tracer.instrument() if traced else nullcontext():
        start = time.perf_counter()
        body(run, layers)
        wall = time.perf_counter() - start
    top = [s for s in tracer.spans[first:] if s[4] is None]
    builds = [s for s in top if s[0] == "build"]
    answers = [s for s in top if s[0].startswith("answer.")]
    observed = sum(Tracer.duration(s) for s in top if s[1] == "observe")
    covered = sum(Tracer.duration(s) for s in top if s[1] == "phase")
    busy = wall - observed
    if traced:
        run.expect("trace.coverage", covered >= MIN_COVERAGE * busy,
                   (covered, busy))
        layers["knowledge.contained_calls"] = tracer.counts.get(
            "knowledge.contained_calls", 0)
        layers["checkpoint.saves"] = tracer.counts.get("checkpoint.saves", 0)
        tracer.counts.clear()
    return {
        "traced": traced,
        "explore_s": sum(run.scaled(s) for s in builds),
        "query_s": sum(run.scaled(s) for s in answers),
        "raw_explore_s": sum(Tracer.duration(s) for s in builds),
        "raw_query_s": sum(Tracer.duration(s) for s in answers),
        "coverage": covered / busy,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.scratch)
        return 0
    run = Run(args.workload, args.seed, args.scratch)
    body = WORKLOADS[args.workload]
    prepare(run, args.workload)
    iterations = []
    deadline = time.perf_counter() + args.seconds
    run.mark()
    while True:
        traced = bool(args.trace) and (len(iterations) + args.seed) % 2 == 1
        iterations.append(iterate(run, body, traced))
        kinds = {entry["traced"] for entry in iterations}
        if time.perf_counter() >= deadline and (
            not args.trace or len(kinds) == 2
        ):
            break
    report = {
        "iterations": iterations,
        "attempted": run.attempted,
        "failures": run.failures,
        "peak_rss_mb": peak_rss_mb(),
        "worker_rss_mb": run.worker_rss_mb,
        "spans": run.tracer.spans if args.trace else [],
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

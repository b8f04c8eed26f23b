"""Scaling benchmarks with a JSON trajectory file (``repro bench``).

Runs the hot-path benchmarks the dense-index bitset engine targets —
universe construction, knowledge-extension computation, causality
queries, and the isomorphism suite (``check_all_properties``,
``composed_class`` chains) — and writes a ``BENCH_<date>.json``
trajectory file so perf is tracked across PRs, not eyeballed.  Each
benchmark reports the best wall time over ``--repeats`` runs (the
pytest-benchmark convention), plus the speedup against the recorded seed
baseline where one exists.  Isomorphism benchmarks additionally time the
retained object-level reference implementations
(:mod:`repro.isomorphism.reference`) in the same run, so mask-engine
speedups are controlled before/after pairs.

``--quick`` runs a small-universe subset in seconds (repeats forced
to 1); ``--check`` cross-validates the mask engine against the reference
oracles during the run and fails loudly on any mismatch — together they
are the smoke mode the tier-1 suite exercises so the harness cannot rot.

Usage::

    python -m repro.cli bench                # writes BENCH_<date>.json here
    python -m repro.cli bench --repeats 7 --output-dir benchmarks/results
    python -m repro.cli bench --quick --check --no-write   # smoke mode
    python -m repro.cli bench --suite exploration-scale --budget 300
    python benchmarks/run_bench.py           # same, as a standalone script

The ``exploration-scale`` suite measures the frontier kernel at scale
(star n=7/n=8, tree/ring depth targets, streaming truncation, the n=7
property sweep); ``--budget`` is its wall-clock tripwire.

The ``fault-recovery`` suite measures the sharded engine's failover
paths (worker kill, corrupt frame, heartbeat timeout, shard fold,
checkpoint resume): each entry injects one deterministic fault
(:mod:`repro.universe.faults`), asserts the recovered universe is
bit-identical to the fault-free baseline of the same run, and records
the recovery overhead plus each worker's farewell-frame peak RSS.
``--quick`` is the CI smoke mode.

The exploration-scale suite also carries the memory axis: each
``explore_rss_*`` entry explores a protocol in a *fresh subprocess
interpreter* (``VmHWM`` is a high-water mark, so peak RSS is only
attributable when the process did nothing else), recording
``peak_rss_mb`` / ``bytes_per_configuration`` and the arena's
compression and spill telemetry.  The ``sharded_rss_*`` entries do the
same for the sharded engine in a fresh subprocess *tree*, summing the
coordinator's ``VmHWM`` with every worker's farewell-frame peak.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.causality.order import CausalOrder
from repro.isomorphism import reference
from repro.isomorphism.algebra import check_all_properties
from repro.isomorphism.relation import (
    composed_class,
    find_composition_witness,
    isomorphic,
)
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Atom, CommonKnowledge, Knows
from repro.protocols.broadcast import (
    BroadcastProtocol,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.protocols.leader_election import ChangRobertsProtocol
from repro.protocols.pingpong import PingPongProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.simulation.scheduler import RandomScheduler
from repro.simulation.simulator import simulate
from repro.universe.explorer import Universe

class BenchCheckFailure(RuntimeError):
    """Raised by ``--check`` when the mask engine disagrees with the
    object-level reference oracles."""


class BenchShardMismatch(RuntimeError):
    """Raised by the ``--workers`` axis when a sharded exploration does
    not reproduce the single-process universe measured in the same run
    (always on — a wrong universe invalidates the benchmark)."""


class BenchBudgetExceeded(RuntimeError):
    """Raised by ``--budget`` when the suite overruns its wall-clock
    allowance — the perf-regression tripwire of the scale suite."""


class BenchRecoveryMismatch(RuntimeError):
    """Raised by the ``fault-recovery`` suite when a universe recovered
    from an injected fault (or resumed from a checkpoint) is not
    bit-identical to the fault-free baseline built in the same run —
    the whole point of the reliability layer, so always on."""


_SRC_DIR = str(Path(__file__).resolve().parents[1])

_PEAK_RSS_SNIPPET = '''\
def _peak_rss_mb():
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork+exec,
    # so an exec'd child spawned after its parent peaked reports the
    # parent's high-water mark.  VmHWM belongs to the mm, which exec
    # replaces, so it is always this exploration's own peak.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
'''
"""Peak-RSS probe shared by both measurement child scripts."""


_RSS_CHILD = (
    """\
import json, sys, time
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe

"""
    + _PEAK_RSS_SNIPPET
    + """
receivers = tuple(sys.argv[1].split(","))
spill_dir = sys.argv[2] or None
start = time.perf_counter()
universe = Universe(
    BroadcastProtocol(star_topology("hub", receivers), "hub"),
    spill_dir=spill_dir,
    max_configurations=None,
)
report = {
    "configurations": len(universe),
    "explore_seconds": time.perf_counter() - start,
    "peak_rss_mb": _peak_rss_mb(),
    "arena": universe._configurations.stats(),
}
print(json.dumps(report))
"""
)
"""Child script of the memory axis: explores one star protocol in a
fresh interpreter and prints its own peak RSS as JSON.  A fresh
``subprocess`` (never ``fork`` — a forked child inherits the parent's
high-water mark) is the only way peak RSS is attributable to the
exploration being measured."""


_SHARDED_RSS_CHILD = (
    """\
import json, sys, time
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits, Sharding

"""
    + _PEAK_RSS_SNIPPET
    + """
receivers = tuple(sys.argv[1].split(","))
workers = int(sys.argv[2])
start = time.perf_counter()
universe = Universe(
    BroadcastProtocol(star_topology("hub", receivers), "hub"),
    options=ExplorationOptions(
        limits=Limits(max_configurations=None),
        sharding=Sharding(workers=workers),
    ),
)
report = {
    "configurations": len(universe),
    "explore_seconds": time.perf_counter() - start,
    "coordinator_rss_mb": _peak_rss_mb(),
    "worker_rss_mb": universe.worker_peak_rss_mb,
}
print(json.dumps(report))
"""
)
"""Child script of the sharded-memory axis: explores one star protocol
with the sharded engine in a fresh interpreter and prints the
coordinator's own ``VmHWM`` plus every worker's farewell-frame peak
as JSON."""


def _explore_in_subprocess(
    receivers: tuple[str, ...], spill_dir: str | None = None
) -> dict:
    """Explore a star protocol in a fresh interpreter; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_CHILD,
            ",".join(receivers),
            spill_dir or "",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"memory-axis child (n={len(receivers) + 1}) failed: "
            f"{completed.stderr.strip().splitlines()[-1:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _sharded_explore_in_subprocess(
    receivers: tuple[str, ...], workers: int
) -> dict:
    """Explore a star protocol with the sharded engine in a fresh
    interpreter; return its report (coordinator + per-worker peaks)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _SHARDED_RSS_CHILD,
            ",".join(receivers),
            str(workers),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if completed.returncode != 0:
        raise BenchShardMismatch(
            f"sharded-rss child (n={len(receivers) + 1}) failed: "
            f"{completed.stderr.strip().splitlines()[-1:]}"
        )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    if len(report["worker_rss_mb"]) != workers:
        raise BenchShardMismatch(
            f"sharded-rss child: only "
            f"{len(report['worker_rss_mb'])} of {workers} workers sent "
            f"farewell frames — summed RSS would undercount"
        )
    return report


def _assert_recovered_identical(baseline, recovered, label: str) -> None:
    """The bit-identity contract, cheap enough to enforce in-bench:
    ids, configurations (with per-process histories), CSR arrays, hash
    table including collision buckets, completeness flag."""
    if (
        len(baseline) != len(recovered)
        or baseline.is_complete != recovered.is_complete
        or baseline._succ_offsets != recovered._succ_offsets
        or baseline._succ_ids != recovered._succ_ids
        or baseline._ids_by_hash != recovered._ids_by_hash
        or any(
            ours != theirs or ours._histories != theirs._histories
            for ours, theirs in zip(
                baseline._configurations, recovered._configurations
            )
        )
    ):
        raise BenchRecoveryMismatch(
            f"{label}: recovered universe is not bit-identical to the "
            f"fault-free baseline"
        )


class _BudgetGuard:
    """Wall-clock guard checked between benchmarks (``--budget``)."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self, label: str) -> None:
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise BenchBudgetExceeded(
                f"wall-clock budget of {self.seconds}s exceeded after "
                f"{self.elapsed():.1f}s (at {label})"
            )


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_once(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _star_protocol(receivers: tuple[str, ...]) -> BroadcastProtocol:
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


def _receiver_got_it() -> Atom:
    return Atom(
        "x_got_it",
        lambda configuration: any(
            event.is_receive for event in configuration.history("x")
        ),
    )


def _composition_chains(universe: Universe) -> list[list[frozenset]]:
    """Representative ``[P1 … Pn]`` chains over a universe's processes."""
    processes = sorted(universe.processes)
    first = frozenset({processes[0]})
    last = frozenset({processes[-1]})
    return [[first], [first, last], [first, last, first]]


def _sample_configurations(universe: Universe, count: int = 64) -> list:
    return list(universe)[:: max(1, len(universe) // count)]


def _cross_check_universe(universe: Universe, label: str) -> None:
    """Assert the mask engine is bit-identical to the reference oracles.

    Compares ``composed_class``, ``find_composition_witness`` and the full
    property sweep on the given (small) universe.  Raises
    :class:`BenchCheckFailure` on the first disagreement.
    """
    sample = _sample_configurations(universe, 24)
    endpoints = [sample[0], sample[-1]]
    for sets in _composition_chains(universe):
        for x in sample:
            mask_class = composed_class(universe, x, sets)
            object_class = reference.composed_class_reference(universe, x, sets)
            if mask_class != object_class:
                raise BenchCheckFailure(
                    f"composed_class mismatch on {label} for {sets}: "
                    f"{len(mask_class)} vs {len(object_class)} members"
                )
            for z in endpoints:
                witness = find_composition_witness(universe, x, sets, z)
                expected = reference.find_composition_witness_reference(
                    universe, x, sets, z
                )
                if (witness is None) != (expected is None):
                    raise BenchCheckFailure(
                        f"witness existence mismatch on {label} for {sets}"
                    )
                if witness is not None:
                    if witness[0] != x or witness[-1] != z:
                        raise BenchCheckFailure(
                            f"witness endpoints wrong on {label}"
                        )
                    for step, entry in enumerate(sets):
                        if not isomorphic(witness[step], witness[step + 1], entry):
                            raise BenchCheckFailure(
                                f"witness step {step} not isomorphic on {label}"
                            )
    mask_props = check_all_properties(universe, max_sets=4)
    object_props = reference.check_all_properties_reference(universe, max_sets=4)
    if mask_props != object_props:
        differing = sorted(
            name
            for name in mask_props
            if mask_props[name] != object_props.get(name)
        )
        raise BenchCheckFailure(
            f"property verdicts differ on {label}: {differing}"
        )
    if not all(mask_props.values()):
        failed = sorted(name for name, ok in mask_props.items() if not ok)
        raise BenchCheckFailure(f"properties fail on {label}: {failed}")


def run_cross_checks() -> list[str]:
    """The ``--check`` validation suite: mask engine vs reference oracles
    on three protocols plus a truncated (incomplete) universe.  Returns
    the labels checked; raises :class:`BenchCheckFailure` on mismatch."""
    checked = []
    for label, universe in (
        ("pingpong", Universe(PingPongProtocol(rounds=2))),
        ("star_broadcast_n3", Universe(_star_protocol(("x", "y")))),
        ("token_bus_h4", Universe(TokenBusProtocol(max_hops=4))),
        (
            "star_broadcast_n4_truncated",
            Universe(_star_protocol(("x", "y", "z")), max_events=4),
        ),
    ):
        _cross_check_universe(universe, label)
        checked.append(label)
    return checked


_N9_BUDGET_FLOOR = 900.0
"""Star n=9 (~1.6e7 configurations, minutes of wall time and tens of GB)
only runs when the suite was given at least this much ``--budget``."""

_N9_CONFIGURATION_CAP = 20_000_000
"""Runaway guard for the n=9 entry: the universe is explored with
``on_limit="truncate"`` at this cap so a mis-parameterised or
larger-than-expected space records a flagged partial instead of growing
unboundedly.  The full star n=9 space (17 017 970 configurations) fits
under it, so on a machine with enough RAM (~26 GB single-process) the
entry completes; the cap bounds configuration *count*, not memory —
machines without that much RAM should not pass the n=9 budget floor."""


def run_benchmarks(
    repeats: int = 5,
    quick: bool = False,
    check: bool = False,
    suite: str = "core",
    budget: float | None = None,
    workers: int = 1,
) -> dict:
    """Run a benchmark suite; returns the result document (JSON-ready).

    ``suite`` selects the workload: ``"core"`` is the PR-1/PR-2
    trajectory set; ``"exploration-scale"`` is the frontier-kernel scale
    suite (star n=7/n=8, tree/ring depth targets, streaming truncation,
    and the n=7 property sweep).  ``quick`` restricts either suite
    to small universes with ``repeats=1`` (the smoke mode); ``check``
    runs the mask-vs-reference cross-validation first and raises
    :class:`BenchCheckFailure` on any disagreement; ``budget`` is a
    wall-clock allowance in seconds enforced between benchmarks
    (:class:`BenchBudgetExceeded`).

    ``workers > 1`` adds the multiprocess sharded-engine axis to the
    exploration-scale suite: each sharded entry re-explores a protocol
    just measured single-process in the same run — a controlled pair,
    recorded as ``single_process_seconds`` / ``speedup_vs_single`` —
    and asserts the resulting universe has the single-process size.
    The star n=9 target additionally requires ``budget`` of at least
    ``_N9_BUDGET_FLOOR`` seconds — it runs for minutes and needs tens
    of gigabytes of RAM, so only opt in on a machine that has them
    (``_N9_CONFIGURATION_CAP`` bounds the configuration count as a
    runaway guard, not the memory).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if suite not in ("core", "exploration-scale", "fault-recovery"):
        raise ValueError(f"unknown suite {suite!r}")
    if quick:
        repeats = 1
    guard = _BudgetGuard(budget)
    checked: list[str] = []
    if check:
        checked = run_cross_checks()
        guard.check("cross-checks")
    results: dict[str, dict] = {}

    def record(name: str, seconds: float, **extra) -> None:
        results[name] = {"best_seconds": round(seconds, 6), **extra}
        guard.check(name)

    def record_paired(
        name: str, seconds: float, object_seconds: float, **extra
    ) -> None:
        """Record a benchmark alongside its object-level reference timing
        (measured once, in this same run — a controlled pairing)."""
        record(
            name,
            seconds,
            object_seconds=round(object_seconds, 6),
            speedup_vs_object=round(object_seconds / seconds, 2),
            **extra,
        )

    # --- universe construction -----------------------------------------
    # The first construction of each protocol runs against cold caches
    # (cold compiled step tables, cold receive memos) and is recorded as
    # first_seconds; best_seconds is the best over the remaining repeats.
    # The compiled-table build time is reported separately
    # (table_build_seconds) so the remaining cold-start gap is
    # attributable to BFS work rather than interpreted protocol logic.
    def timed_universe(protocol, **kwargs) -> tuple[Universe, float]:
        start = time.perf_counter()
        universe = Universe(protocol, **kwargs)
        return universe, time.perf_counter() - start

    def universe_benchmark(
        name: str, protocol, explore_repeats: int, **kwargs
    ) -> Universe:
        universe, first = timed_universe(protocol, **kwargs)
        # Round once, derive the split from the rounded values so the
        # reported identity first == table_build + bfs_first is exact.
        first_rounded = round(first, 6)
        table_build = round(protocol.step_table.build_seconds, 6)
        record(
            name,
            _best_of(lambda: Universe(protocol, **kwargs), explore_repeats),
            configurations=len(universe),
            first_seconds=first_rounded,
            table_build_seconds=table_build,
            bfs_first_seconds=round(first_rounded - table_build, 6),
        )
        return universe

    def evaluate(universe: Universe) -> None:
        evaluator = KnowledgeEvaluator(universe)
        body = _receiver_got_it()
        evaluator.extension(Knows(frozenset({"hub"}), body))
        evaluator.extension(CommonKnowledge(frozenset({"hub", "x"}), body))

    def composed_sweep_benchmark(name: str, universe: Universe) -> None:
        chain = _composition_chains(universe)[-1]
        sample = _sample_configurations(universe, 128)

        def mask_sweep() -> None:
            for x in sample:
                composed_class(universe, x, chain)

        def object_sweep() -> None:
            for x in sample:
                reference.composed_class_reference(universe, x, chain)

        object_seconds = _timed_once(object_sweep)
        mask_sweep()  # warm the adjacency and union memos
        record_paired(
            name,
            _best_of(mask_sweep, repeats),
            object_seconds,
            configurations=len(universe),
            sample=len(sample),
            chain_length=len(chain),
        )

    def properties_benchmark(
        name: str, universe: Universe, max_sets: int, sweep_repeats: int
    ) -> None:
        verdicts: dict[str, bool] = {}

        def sweep() -> None:
            verdicts.update(check_all_properties(universe, max_sets=max_sets))

        record(
            name,
            _best_of(sweep, sweep_repeats),
            configurations=len(universe),
            max_sets=max_sets,
            all_hold=all(verdicts.values()),
            repeats_used=sweep_repeats,
        )

    def scale_universe_benchmark(
        name: str, protocol, steady_repeats: int, **kwargs
    ) -> None:
        """Cold-first measurement for the exploration-scale suite.

        Exploration is a build-once operation, so ``best_seconds`` is the
        *cold* first exploration (fresh protocol instance, cold compiled
        tables).  ``steady_seconds`` re-explores with the first universe
        released — holding two 10^6-configuration universes at once would
        measure memory pressure, not the kernel.
        """
        universe, first = timed_universe(protocol, **kwargs)
        first_rounded = round(first, 6)
        table_build = round(protocol.step_table.build_seconds, 6)
        size = len(universe)
        del universe
        steady = _best_of(
            lambda: Universe(protocol, **kwargs), steady_repeats
        )
        record(
            name,
            first,
            configurations=size,
            first_seconds=first_rounded,
            steady_seconds=round(steady, 6),
            table_build_seconds=table_build,
            bfs_first_seconds=round(first_rounded - table_build, 6),
        )
        return first, size

    def sharded_universe_benchmark(
        name: str,
        protocol_factory,
        single_seconds: float,
        expected_size: int,
        **kwargs,
    ) -> None:
        """One sharded-engine entry, paired against the single-process
        cold time measured moments earlier in this same run.

        A fresh protocol instance keeps the workers' compiled tables
        cold, mirroring the single-process cold measurement; the merged
        universe's size is asserted against the single-process size (the
        full bit-identity contract is enforced by the test suite).
        """
        start = time.perf_counter()
        universe = Universe(protocol_factory(), workers=workers, **kwargs)
        seconds = time.perf_counter() - start
        size = len(universe)
        del universe
        if size != expected_size:
            raise BenchShardMismatch(
                f"{name}: sharded universe has {size} configurations, "
                f"single-process built {expected_size}"
            )
        record(
            name,
            seconds,
            configurations=size,
            workers=workers,
            single_process_seconds=round(single_seconds, 6),
            speedup_vs_single=round(single_seconds / seconds, 2),
            repeats_used=1,
        )

    def truncated_benchmark(name: str, protocol, cap: int, **kwargs) -> None:
        """Streaming mode at scale: a capped universe must stay usable."""
        start = time.perf_counter()
        universe = Universe(
            protocol, max_configurations=cap, on_limit="truncate", **kwargs
        )
        seconds = time.perf_counter() - start
        assert not universe.is_complete and len(universe) == cap
        universe.partition_table(next(iter(universe.processes)))
        record(
            name,
            seconds,
            configurations=len(universe),
            complete=universe.is_complete,
            max_configurations=cap,
            repeats_used=1,
        )

    def memory_benchmark(
        label: str, receivers: tuple[str, ...], spill: bool = False
    ) -> None:
        """The peak-RSS axis: one exploration in a fresh interpreter.

        The child (``_RSS_CHILD``) explores the star protocol alone, so
        ``VmHWM`` measures exactly that exploration; the entry also
        records the arena's compression and spill telemetry.
        """
        import tempfile

        with tempfile.TemporaryDirectory() as tmpdir:
            report = _explore_in_subprocess(
                receivers, tmpdir if spill else None
            )
        extra = {
            "configurations": report["configurations"],
            "peak_rss_mb": round(report["peak_rss_mb"], 1),
            "bytes_per_configuration": round(
                report["peak_rss_mb"] * 1024.0 * 1024.0
                / report["configurations"],
                1,
            ),
            "measured_in": "fresh subprocess (VmHWM)",
            "repeats_used": 1,
        }
        stats = report["arena"]
        if stats.get("raw_bytes"):
            extra["arena_raw_bytes"] = stats["raw_bytes"]
            extra["arena_compressed_bytes"] = stats["compressed_bytes"]
            if stats["compressed_bytes"]:
                extra["arena_compression_ratio"] = round(
                    stats["raw_bytes"] / stats["compressed_bytes"], 2
                )
            extra["arena_spilled_bytes"] = stats.get("spilled_bytes", 0)
        record(f"explore_rss_{label}_arena", report["explore_seconds"], **extra)

    def sharded_memory_benchmark(
        label: str, receivers: tuple[str, ...]
    ) -> None:
        """The sharded-memory axis: one sharded exploration in a fresh
        subprocess tree, summing the coordinator's ``VmHWM`` with every
        worker's farewell-frame peak (``coordinator_rss_mb`` /
        ``worker_rss_mb`` attribute it per side)."""
        pair_workers = workers if workers > 1 else 2
        report = _sharded_explore_in_subprocess(receivers, pair_workers)
        total = report["coordinator_rss_mb"] + sum(
            report["worker_rss_mb"].values()
        )
        record(
            f"sharded_rss_{label}_workers{pair_workers}_packed",
            report["explore_seconds"],
            configurations=report["configurations"],
            workers=pair_workers,
            coordinator_rss_mb=round(report["coordinator_rss_mb"], 1),
            worker_rss_mb=[
                round(mb, 1)
                for _, mb in sorted(report["worker_rss_mb"].items())
            ],
            summed_rss_mb=round(total, 1),
            measured_in="fresh subprocess tree (VmHWM + farewell frames)",
            repeats_used=1,
        )

    def frontier_memo_benchmark(
        name: str, universe: Universe, max_sets: int
    ) -> None:
        """The per-universe frontier-class memo, paired against itself
        switched off.

        The inversion + concatenation sweep recomputes the same
        ``[P1 … Pn]`` frontier decompositions across property checkers;
        the memo shares them per (universe, set-sequence).  The "off"
        half replaces the memo with a never-hit dict — exactly the
        pre-memo behaviour — so the speedup is the memo's doing alone.
        """
        from repro.isomorphism.algebra import (
            check_concatenation,
            check_inversion,
        )

        processes = sorted(universe.processes)
        subsets: list[frozenset] = []
        for size in range(len(processes) + 1):
            for combo in itertools.combinations(processes, size):
                subsets.append(frozenset(combo))
        subsets = subsets[:max_sets]

        def sweep() -> bool:
            inversion = all(
                check_inversion(universe, [first, second])
                for first in subsets
                for second in subsets
            )
            concatenation = all(
                check_concatenation(universe, [first], [second])
                for first in subsets
                for second in subsets
            )
            return inversion and concatenation

        class _NoMemo(dict):
            """Every lookup misses, every store is dropped."""

            def get(self, key, default=None):
                return None

            def __setitem__(self, key, value):
                return None

        universe._frontier_class_memo = _NoMemo()
        memo_off = _timed_once(sweep)
        universe._frontier_class_memo = {}
        cold = _timed_once(sweep)  # cold memo: populated during the run
        warm = _best_of(sweep, repeats)  # memo fully shared across checkers
        record(
            name,
            cold,
            configurations=len(universe),
            max_sets=max_sets,
            subset_pairs=len(subsets) ** 2,
            memo_off_seconds=round(memo_off, 6),
            warm_seconds=round(warm, 6),
            speedup_vs_no_memo=round(memo_off / cold, 2),
            repeats_used=1,
        )

    if suite == "exploration-scale":
        # The frontier-kernel scale suite: exploration is the benchmark.
        # Fresh protocol instances per entry keep first_seconds honest
        # (cold compiled tables).
        if quick:
            first_n5, size_n5 = scale_universe_benchmark(
                "universe_star_broadcast_n5",
                _star_protocol(("w", "x", "y", "z")),
                repeats,
            )
            if workers > 1:
                sharded_universe_benchmark(
                    f"universe_star_broadcast_n5_workers{workers}",
                    lambda: _star_protocol(("w", "x", "y", "z")),
                    first_n5,
                    size_n5,
                )
            scale_universe_benchmark(
                "universe_tree_broadcast_d2",
                BroadcastProtocol(
                    tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
                ),
                repeats,
            )
            scale_universe_benchmark(
                "universe_ring_broadcast_n5",
                BroadcastProtocol(
                    ring_topology(tuple(f"r{i}" for i in range(5))), "r0"
                ),
                repeats,
            )
            truncated_benchmark(
                "universe_star_broadcast_n5_truncated",
                _star_protocol(("w", "x", "y", "z")),
                cap=200,
            )
            universe_n4 = Universe(_star_protocol(("x", "y", "z")))
            properties_benchmark(
                "iso_properties_star_n4",
                universe_n4,
                max_sets=4,
                sweep_repeats=repeats,
            )
            frontier_memo_benchmark(
                "iso_frontier_memo_star_n4", universe_n4, max_sets=4
            )
            # Memory axis smoke, spill path exercised.  At this size
            # RSS is interpreter baseline, so the numbers carry no
            # acceptance meaning.
            memory_benchmark("star_n5", ("w", "x", "y", "z"), spill=True)
            sharded_memory_benchmark("star_n5", ("w", "x", "y", "z"))
        else:
            first_n7, size_n7 = scale_universe_benchmark(
                "universe_star_broadcast_n7",
                _star_protocol(("u", "v", "w", "x", "y", "z")),
                min(repeats, 2),
            )
            if workers > 1:
                sharded_universe_benchmark(
                    f"universe_star_broadcast_n7_workers{workers}",
                    lambda: _star_protocol(("u", "v", "w", "x", "y", "z")),
                    first_n7,
                    size_n7,
                    max_configurations=None,
                )
            first_n8, size_n8 = scale_universe_benchmark(
                "universe_star_broadcast_n8",
                _star_protocol(("t", "u", "v", "w", "x", "y", "z")),
                1,
                max_configurations=None,
            )
            if workers > 1:
                sharded_universe_benchmark(
                    f"universe_star_broadcast_n8_workers{workers}",
                    lambda: _star_protocol(("t", "u", "v", "w", "x", "y", "z")),
                    first_n8,
                    size_n8,
                    max_configurations=None,
                )
            # The memory axis headline at star n=8 (~10^6
            # configurations): single-process and summed sharded
            # process-tree peak RSS, each in fresh interpreters.
            memory_benchmark("star_n8", ("t", "u", "v", "w", "x", "y", "z"))
            sharded_memory_benchmark(
                "star_n8", ("t", "u", "v", "w", "x", "y", "z")
            )
            if budget is not None and budget >= _N9_BUDGET_FLOOR:
                # The n=9 wall (~1.6e7 configurations): explored with the
                # truncation-streaming guard so a RAM-capped machine still
                # records a flagged partial instead of thrashing.
                start = time.perf_counter()
                n9 = Universe(
                    _star_protocol(("s", "t", "u", "v", "w", "x", "y", "z")),
                    max_configurations=_N9_CONFIGURATION_CAP,
                    on_limit="truncate",
                    workers=workers if workers > 1 else None,
                )
                seconds = time.perf_counter() - start
                record(
                    f"universe_star_broadcast_n9_workers{workers}",
                    seconds,
                    configurations=len(n9),
                    complete=n9.is_complete,
                    workers=workers,
                    max_configurations=_N9_CONFIGURATION_CAP,
                    repeats_used=1,
                )
                del n9
            scale_universe_benchmark(
                "universe_tree_broadcast_d3",
                BroadcastProtocol(
                    tree_topology(tuple(f"t{i}" for i in range(15))), "t0"
                ),
                1,
                max_configurations=None,
            )
            scale_universe_benchmark(
                "universe_ring_broadcast_n8",
                BroadcastProtocol(
                    ring_topology(tuple(f"r{i}" for i in range(8))), "r0"
                ),
                repeats,
            )
            truncated_benchmark(
                "universe_star_broadcast_n8_truncated_500k",
                _star_protocol(("t", "u", "v", "w", "x", "y", "z")),
                cap=500_000,
            )
            universe_n7 = Universe(_star_protocol(("u", "v", "w", "x", "y", "z")))
            properties_benchmark(
                "iso_properties_star_n7",
                universe_n7,
                max_sets=8,
                sweep_repeats=1,
            )
            frontier_memo_benchmark(
                "iso_frontier_memo_star_n7", universe_n7, max_sets=6
            )
    elif suite == "fault-recovery":
        # Recovery-overhead axis: every entry re-explores the same
        # protocol the fault-free baseline just built in this run, with
        # one injected fault per scenario, asserts the recovered
        # universe is bit-identical, and records the overhead the
        # recovery path cost (respawn-and-replay, fold, heartbeat
        # timeout, checkpoint save+resume).
        import os as _os
        import tempfile

        from repro.universe.faults import FaultPlan
        from repro.universe.sharded import SupervisionPolicy

        shards = workers if workers > 1 else 2
        receivers = (
            ("w", "x", "y", "z") if quick else ("v", "w", "x", "y", "z")
        )
        size_label = f"n{len(receivers) + 1}"
        fast = SupervisionPolicy(heartbeat_timeout=5.0, poll_interval=0.02)

        def timed_sharded(**kwargs):
            start = time.perf_counter()
            universe = Universe(
                _star_protocol(receivers), workers=shards, **kwargs
            )
            return universe, time.perf_counter() - start

        def worker_rss(universe):
            """Per-shard farewell-frame peaks, keyed for the JSON file.

            Workers forked mid-suite inherit the bench process's
            high-water mark, so these are ceilings for spotting
            replica-size regressions across PRs — the attributable
            pair is ``sharded_rss_*`` in the exploration-scale suite."""
            return {
                f"shard{shard}": round(mb, 1)
                for shard, mb in sorted(universe.worker_peak_rss_mb.items())
            }

        baseline, base_seconds = timed_sharded(supervision=fast)
        record(
            f"fault_free_star_{size_label}_workers{shards}",
            base_seconds,
            configurations=len(baseline),
            workers=shards,
            worker_peak_rss_mb=worker_rss(baseline),
            repeats_used=1,
        )

        mid_layer = 3 if quick else 5
        scenarios = (
            ("kill", FaultPlan.kill(0, mid_layer), fast),
            (
                "corrupt",
                FaultPlan.corrupt_batch(shards - 1, mid_layer + 1),
                fast,
            ),
            (
                "timeout",
                FaultPlan.drop_batch(0, mid_layer),
                SupervisionPolicy(heartbeat_timeout=0.5, poll_interval=0.02),
            ),
            (
                "fold",
                FaultPlan.kill(0, mid_layer),
                SupervisionPolicy(
                    heartbeat_timeout=5.0,
                    poll_interval=0.02,
                    max_respawns=0,
                ),
            ),
        )
        for label, plan, policy in scenarios:
            recovered, seconds = timed_sharded(
                fault_plan=plan, supervision=policy
            )
            _assert_recovered_identical(baseline, recovered, label)
            if not recovered.recovery_log:
                raise BenchRecoveryMismatch(
                    f"{label}: no recovery recorded — the injected fault "
                    f"never fired"
                )
            record(
                f"recovery_{label}_star_{size_label}_workers{shards}",
                seconds,
                configurations=len(recovered),
                workers=shards,
                worker_peak_rss_mb=worker_rss(recovered),
                fault_free_seconds=round(base_seconds, 6),
                recovery_overhead_seconds=round(seconds - base_seconds, 6),
                recoveries=[
                    f"{event['kind']}->{event['action']}@L{event['layer']}"
                    for event in recovered.recovery_log
                ],
                repeats_used=1,
            )

        # Checkpoint/resume: truncate a kernel run mid-space, resume it,
        # and require the finished universe to match the sharded
        # baseline bit for bit (also a cross-engine identity check).
        with tempfile.TemporaryDirectory() as tmpdir:
            path = _os.path.join(tmpdir, "bench.ckpt")
            cap = 200 if quick else 2000
            start = time.perf_counter()
            partial = Universe(
                _star_protocol(receivers),
                max_configurations=cap,
                on_limit="truncate",
                checkpoint=path,
            )
            truncate_seconds = time.perf_counter() - start
            start = time.perf_counter()
            resumed = Universe(_star_protocol(receivers), checkpoint=path)
            resume_seconds = time.perf_counter() - start
            _assert_recovered_identical(
                baseline, resumed, "checkpoint-resume"
            )
            record(
                f"checkpoint_resume_star_{size_label}",
                resume_seconds,
                configurations=len(resumed),
                truncated_at=len(partial),
                truncate_seconds=round(truncate_seconds, 6),
                resumed_from=resumed._checkpoint_session.resumed_from,
                saves=resumed._checkpoint_session.saves,
                repeats_used=1,
            )

        # Save cost: one kernel exploration saving at every layer
        # boundary.  The steady-state figure is the mean of the last
        # three saves, where the stream is at its largest.
        save_receivers = (
            ("w", "x", "y", "z")
            if quick
            else ("u", "v", "w", "x", "y", "z")
        )
        with tempfile.TemporaryDirectory() as tmpdir:
            start = time.perf_counter()
            universe = Universe(
                _star_protocol(save_receivers),
                checkpoint=_os.path.join(tmpdir, "save.ckpt"),
            )
            total = time.perf_counter() - start
            session = universe._checkpoint_session
            tail = session.save_seconds[-3:]
            record(
                f"checkpoint_save_segmented_star_n{len(save_receivers) + 1}",
                sum(session.save_seconds),
                configurations=len(universe),
                saves=session.saves,
                steady_save_seconds=round(sum(tail) / len(tail), 6),
                max_save_seconds=round(max(session.save_seconds), 6),
                total_save_seconds=round(sum(session.save_seconds), 6),
                explore_seconds=round(total, 6),
                repeats_used=1,
            )

        # Corrupt-tail salvage: flip one byte in the newest committed
        # segment of a truncated run, then measure the resume that
        # detects it, truncates to the intact prefix, and re-explores.
        from pathlib import Path as _Path

        with tempfile.TemporaryDirectory() as tmpdir:
            path = _Path(tmpdir) / "salvage.ckpt"
            cap = 200 if quick else 2000
            Universe(
                _star_protocol(receivers),
                max_configurations=cap,
                on_limit="truncate",
                checkpoint=path,
            )
            newest = sorted(path.parent.glob(f"{path.name}.g*-*.seg"))[-1]
            damaged = bytearray(newest.read_bytes())
            damaged[-1] ^= 0xFF
            newest.write_bytes(bytes(damaged))
            start = time.perf_counter()
            salvaged = Universe(_star_protocol(receivers), checkpoint=path)
            salvage_seconds = time.perf_counter() - start
            _assert_recovered_identical(baseline, salvaged, "salvage-resume")
            recoveries = [
                event
                for event in salvaged.recovery_log
                if event["action"] == "salvage-truncate"
            ]
            if not recoveries:
                raise BenchRecoveryMismatch(
                    "salvage-resume: the corrupted segment was never "
                    "detected — no salvage-truncate recovery recorded"
                )
            record(
                f"checkpoint_salvage_resume_star_{size_label}",
                salvage_seconds,
                configurations=len(salvaged),
                salvaged_layers=salvaged._checkpoint_session.layers,
                resumed_from=salvaged._checkpoint_session.resumed_from,
                recoveries=[
                    f"{event['kind']}->{event['action']}@L{event['layer']}"
                    for event in recoveries
                ],
                repeats_used=1,
            )

        # Degraded-mode overhead: the same checkpointed kernel run
        # twice — once healthy, once hit by a permanent ENOSPC at an
        # early layer so most of the exploration runs with
        # checkpointing disabled.  The pair bounds what the
        # degradation ladder costs (detect, log, stop saving) relative
        # to a healthy checkpointed run; identity against the sharded
        # baseline proves degradation never touches results.
        import warnings as _warnings

        with tempfile.TemporaryDirectory() as tmpdir:
            start = time.perf_counter()
            healthy = Universe(
                _star_protocol(receivers),
                checkpoint=_os.path.join(tmpdir, "healthy.ckpt"),
            )
            healthy_seconds = time.perf_counter() - start
            start = time.perf_counter()
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                degraded = Universe(
                    _star_protocol(receivers),
                    checkpoint=_os.path.join(tmpdir, "degraded.ckpt"),
                    fault_plan=FaultPlan.parse(
                        [f"enospc@{1 if quick else 2}"]
                    ),
                )
            degraded_seconds = time.perf_counter() - start
            _assert_recovered_identical(baseline, degraded, "degraded-enospc")
            if not degraded.checkpoint_degraded:
                raise BenchRecoveryMismatch(
                    "degraded-enospc: the injected ENOSPC never degraded "
                    "the checkpoint session"
                )
            record(
                f"checkpoint_degraded_star_{size_label}",
                degraded_seconds,
                configurations=len(degraded),
                healthy_seconds=round(healthy_seconds, 6),
                degraded_overhead_seconds=round(
                    degraded_seconds - healthy_seconds, 6
                ),
                recoveries=[
                    f"{event['kind']}->{event['action']}" for event in degraded.recovery_log
                ],
                repeats_used=1,
            )
    elif quick:
        universe_small = universe_benchmark(
            "universe_star_broadcast_n3", _star_protocol(("x", "y")), repeats
        )
        universe_benchmark(
            "universe_token_bus_h4", TokenBusProtocol(max_hops=4), repeats
        )
        record(
            "evaluator_star_broadcast_n3",
            _best_of(lambda: evaluate(universe_small), repeats),
            configurations=len(universe_small),
        )
        composed_sweep_benchmark("iso_composed_class_star_n3", universe_small)
        object_seconds = _timed_once(
            lambda: reference.check_all_properties_reference(
                universe_small, max_sets=4
            )
        )
        record_paired(
            "iso_properties_star_n3",
            _best_of(
                lambda: check_all_properties(universe_small, max_sets=4), repeats
            ),
            object_seconds,
            configurations=len(universe_small),
            max_sets=4,
        )
    else:
        universe_n6 = universe_benchmark(
            "universe_star_broadcast_n6",
            _star_protocol(("v", "w", "x", "y", "z")),
            repeats,
        )
        universe_n5 = universe_benchmark(
            "universe_star_broadcast_n5",
            _star_protocol(("w", "x", "y", "z")),
            repeats,
        )
        universe_benchmark(
            "universe_token_bus_h6", TokenBusProtocol(max_hops=6), repeats
        )

        # --- knowledge evaluation --------------------------------------
        record(
            "evaluator_star_broadcast_n5",
            _best_of(lambda: evaluate(universe_n5), repeats),
            configurations=len(universe_n5),
        )
        record(
            "evaluator_star_broadcast_n6",
            _best_of(lambda: evaluate(universe_n6), repeats),
            configurations=len(universe_n6),
        )

        # --- causality --------------------------------------------------
        ring = tuple(f"n{i}" for i in range(10))
        trace = simulate(ChangRobertsProtocol(ring), RandomScheduler(0))
        order = CausalOrder(trace.computation)
        events = order.events

        def all_pairs() -> None:
            happened_before = order.happened_before
            for first in events:
                for second in events:
                    happened_before(first, second)

        record(
            "causality_happened_before_all_pairs",
            _best_of(all_pairs, repeats),
            events=len(events),
            pairs=len(events) ** 2,
        )

        # --- isomorphism: composed-relation chains ----------------------
        composed_sweep_benchmark("iso_composed_class_star_n6", universe_n6)

        # --- isomorphism: property sweeps -------------------------------
        # The object-level full sweep is cubic in class sizes: star n=4
        # (80 configurations) is the largest size where it finishes in
        # seconds, so that is where the controlled pairing is measured;
        # at n=6 the reference implementation would need hours and only
        # the mask engine is recorded.
        universe_n4 = Universe(_star_protocol(("x", "y", "z")))
        object_seconds = _timed_once(
            lambda: reference.check_all_properties_reference(
                universe_n4, max_sets=4
            )
        )
        record_paired(
            "iso_properties_star_n4",
            _best_of(
                lambda: check_all_properties(universe_n4, max_sets=4), repeats
            ),
            object_seconds,
            configurations=len(universe_n4),
            max_sets=4,
        )
        record(
            "iso_properties_star_n6",
            _best_of(
                lambda: check_all_properties(universe_n6, max_sets=6),
                min(repeats, 3),
            ),
            configurations=len(universe_n6),
            max_sets=6,
            note="object-level sweep infeasible at this size (hours)",
        )

        # --- scale targets: star n=7 and token bus max_hops=10 ----------
        universe_n7 = universe_benchmark(
            "universe_star_broadcast_n7",
            _star_protocol(("u", "v", "w", "x", "y", "z")),
            min(repeats, 2),
        )
        record(
            "evaluator_star_broadcast_n7",
            _best_of(lambda: evaluate(universe_n7), min(repeats, 3)),
            configurations=len(universe_n7),
        )
        properties_n7: dict[str, bool] = {}

        def properties_n7_sweep() -> None:
            properties_n7.update(check_all_properties(universe_n7, max_sets=8))

        record(
            "iso_properties_star_n7",
            _timed_once(properties_n7_sweep),
            configurations=len(universe_n7),
            max_sets=8,
            all_hold=all(properties_n7.values()),
            repeats_used=1,
        )
        universe_h10 = universe_benchmark(
            "universe_token_bus_h10", TokenBusProtocol(max_hops=10), repeats
        )
        record(
            "iso_properties_token_bus_h10",
            _best_of(
                lambda: check_all_properties(universe_h10, max_sets=8),
                min(repeats, 3),
            ),
            configurations=len(universe_h10),
            max_sets=8,
        )

    document = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "suite": suite,
        "mode": "quick" if quick else "full",
        "measurement": (
            "best_seconds = min wall time over repeats (steady state: "
            "protocol caches warm) — EXCEPT exploration-scale universe "
            "entries, where best_seconds is the cold first exploration "
            "(universes are build-once; steady_seconds is the best warm "
            "re-exploration with the first universe released); "
            "first_seconds = first construction in this process (cold "
            "caches); object_seconds times the retained object-level reference "
            "implementation once in the same run (speedup_vs_object is the "
            "controlled mask-vs-object pairing); table_build_seconds is the "
            "wall time spent compiling protocol step tables during the first "
            "exploration (bfs_first_seconds = first_seconds minus it); "
            "*_workersK entries run the multiprocess sharded frontier engine "
            "with K worker shards, paired against the single-process cold "
            "exploration of the same protocol in the same run "
            "(single_process_seconds / speedup_vs_single); fault-recovery "
            "recovery_* entries inject one fault and record "
            "recovery_overhead_seconds against the fault-free sharded "
            "exploration of the same run, with the recovered universe "
            "asserted bit-identical (worker_peak_rss_mb lists each worker's "
            "farewell-frame peak); explore_rss_* entries explore the "
            "protocol in a fresh subprocess interpreter and record its own "
            "VmHWM as peak_rss_mb / bytes_per_configuration plus the "
            "arena's compression and spill telemetry; sharded_rss_* "
            "entries run the sharded engine in a fresh subprocess tree and "
            "sum the coordinator's VmHWM with every worker's "
            "farewell-frame peak; "
            "iso_frontier_memo_* entries time the inversion+concatenation "
            "sweep with the per-universe frontier-class memo disabled "
            "(memo_off_seconds, the pre-memo behaviour), cold, and warm"
        ),
        "benchmarks": results,
    }
    if workers > 1:
        document["workers"] = workers
    if budget is not None:
        document["budget_seconds"] = budget
        document["elapsed_seconds"] = round(guard.elapsed(), 3)
    if check:
        document["cross_checked"] = checked
    return document


def write_trajectory(document: dict, output_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<date>.json`` into ``output_dir`` and return the path.

    Never clobbers an existing trajectory file (two PRs can land the same
    day): on a name collision the file gets a ``-2``, ``-3``, … suffix.
    """
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{document['date']}.json"
    serial = 2
    while path.exists():
        path = directory / f"BENCH_{document['date']}-{serial}.json"
        serial += 1
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def print_summary(document: dict) -> None:
    print(f"{'benchmark':>38} {'best (s)':>10} {'vs object':>10}")
    for name, entry in sorted(document["benchmarks"].items()):
        object_speedup = entry.get("speedup_vs_object")
        print(
            f"{name:>38} {entry['best_seconds']:>10.4f} "
            f"{f'{object_speedup}x' if object_speedup is not None else '-':>10}"
        )
    checked = document.get("cross_checked")
    if checked is not None:
        print(f"cross-checked vs reference oracles: {', '.join(checked)}")


def run_and_report(
    repeats: int = 5,
    output_dir: str | Path = ".",
    no_write: bool = False,
    quick: bool = False,
    check: bool = False,
    suite: str = "core",
    budget: float | None = None,
    workers: int = 1,
) -> int:
    """Run the benchmarks, print the summary, optionally write the
    trajectory file.  Shared by ``repro bench`` and ``run_bench.py``."""
    if repeats < 1:
        raise SystemExit(f"repro bench: --repeats must be >= 1, got {repeats}")
    if workers < 1:
        raise SystemExit(f"repro bench: --workers must be >= 1, got {workers}")
    try:
        document = run_benchmarks(
            repeats=repeats,
            quick=quick,
            check=check,
            suite=suite,
            budget=budget,
            workers=workers,
        )
    except BenchCheckFailure as failure:
        print(f"repro bench --check FAILED: {failure}")
        return 1
    except BenchShardMismatch as mismatch:
        print(f"repro bench --workers FAILED: {mismatch}")
        return 1
    except BenchBudgetExceeded as overrun:
        print(f"repro bench --budget FAILED: {overrun}")
        return 1
    print_summary(document)
    if not no_write:
        path = write_trajectory(document, output_dir)
        print(f"\nwrote {path}")
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the benchmark options once — shared by ``repro bench``'s
    subparser and the standalone entry point."""
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per benchmark"
    )
    parser.add_argument(
        "--output-dir", default=".", help="where to write BENCH_<date>.json"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print the summary only"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-universe smoke subset, repeats forced to 1",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-validate the mask engine against the object-level "
        "reference oracles before timing; non-zero exit on mismatch",
    )
    parser.add_argument(
        "--suite",
        choices=("core", "exploration-scale", "fault-recovery"),
        default="core",
        help="benchmark suite: 'core' (PR-1/PR-2 trajectory set), "
        "'exploration-scale' (star n=7/n=8, tree/ring depth targets, "
        "streaming truncation, n=7 property sweep), or 'fault-recovery' "
        "(sharded-engine failover overhead: kill/corrupt/timeout/fold "
        "recovery and checkpoint resume, each asserted bit-identical to "
        "the fault-free baseline)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock allowance for the whole run, checked between "
        "benchmarks; non-zero exit on overrun (the star n=9 target of the "
        "exploration-scale suite only runs when this is >= 900)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sharded-engine axis for the exploration-scale suite: N>1 "
        "re-explores the scale targets with N multiprocess worker shards, "
        "paired against the single-process times of the same run",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the scaling benchmarks and write a BENCH_<date>.json "
        "trajectory file",
    )
    add_bench_arguments(parser)
    args = parser.parse_args(argv)
    return run_and_report(
        repeats=args.repeats,
        output_dir=args.output_dir,
        no_write=args.no_write,
        quick=args.quick,
        check=args.check,
        suite=args.suite,
        budget=args.budget,
        workers=args.workers,
    )


if __name__ == "__main__":
    sys.exit(main())

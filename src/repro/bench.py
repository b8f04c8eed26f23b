"""Scale and recovery benchmarks with a JSON trajectory file (``repro bench``).

Measures what the repo benchmark (``perfbench/``) cannot: exploration at
star n=7–9 with its peak-RSS axis, and the fault-recovery overhead pairs.
Writes a ``BENCH_<date>.json`` trajectory file so these numbers are
tracked across changes, not eyeballed.  ``--quick`` runs a
small-universe subset in seconds (repeats forced to 1) — the smoke mode
the tier-1 suite and CI exercise so the harness cannot rot.

Usage::

    python -m repro.cli bench --quick --no-write          # smoke mode
    python -m repro.cli bench --budget 300                # writes BENCH_<date>.json here
    python -m repro.cli bench --suite fault-recovery --repeats 1

The ``exploration-scale`` suite (the default) measures the frontier
kernel at scale (star n=7/n=8, tree/ring depth targets, streaming
truncation); ``--budget`` is its wall-clock tripwire.

The ``fault-recovery`` suite measures the sharded engine's failover
paths (worker kill, corrupt frame, heartbeat timeout, shard fold,
checkpoint resume): each entry injects one deterministic fault
(:mod:`repro.universe.faults`), asserts the recovered universe is
bit-identical to the fault-free baseline of the same run, and records
the recovery overhead plus each worker's farewell-frame peak RSS.

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

import datetime
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.protocols.broadcast import (
    BroadcastProtocol,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.universe.explorer import Universe
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)


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

_RSS_CHILD = """\
import json, sys, time
from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.options import (
    ExplorationOptions, Limits, ResourceBudget, Sharding,
)


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


receivers = tuple(sys.argv[1].split(","))
workers = int(sys.argv[2])
spill_dir = sys.argv[3] or None
start = time.perf_counter()
universe = Universe(
    BroadcastProtocol(star_topology("hub", receivers), "hub"),
    options=ExplorationOptions(
        limits=Limits(max_configurations=None),
        budget=ResourceBudget(spill_dir=spill_dir),
        sharding=Sharding(workers=workers),
    ),
)
print(json.dumps({
    "configurations": len(universe),
    "explore_seconds": time.perf_counter() - start,
    "peak_rss_mb": _peak_rss_mb(),
    "arena": universe._configurations.stats(),
    "worker_rss_mb": universe.worker_peak_rss_mb,
}))
"""
"""Child script of the memory axis: explores one star protocol in a
fresh interpreter (``workers > 1`` on the sharded engine) and prints its
own peak RSS, the arena's telemetry and every worker's farewell-frame
peak as JSON.  A fresh ``subprocess`` (never ``fork`` — a forked child
inherits the parent's high-water mark) is the only way peak RSS is
attributable to the exploration being measured."""


def _explore_in_subprocess(
    receivers: tuple[str, ...], workers: int = 1, spill_dir: str | None = None
) -> dict:
    """Explore a star protocol in a fresh interpreter; return its report.

    A sharded child (``workers > 1``) that fails, or whose workers did
    not all send farewell frames, raises :class:`BenchShardMismatch`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_CHILD,
            ",".join(receivers),
            str(workers),
            spill_dir or "",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    failure = BenchShardMismatch if workers > 1 else RuntimeError
    if completed.returncode != 0:
        raise failure(
            f"memory-axis child (n={len(receivers) + 1}, workers={workers}) "
            f"failed: {completed.stderr.strip().splitlines()[-1:]}"
        )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    if workers > 1 and len(report["worker_rss_mb"]) != workers:
        raise failure(
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


def _star_protocol(receivers: tuple[str, ...]) -> BroadcastProtocol:
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


_UNBOUNDED = Limits(max_configurations=None)
"""Limits of the scale targets larger than the default 10^6 cap."""

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
    suite: str = "exploration-scale",
    budget: float | None = None,
    workers: int = 1,
) -> dict:
    """Run a benchmark suite; returns the result document (JSON-ready).

    ``suite`` selects the workload: ``"exploration-scale"`` is the
    frontier-kernel scale suite (star n=7/n=8, tree/ring depth targets,
    streaming truncation, the peak-RSS axis); ``"fault-recovery"`` is
    the failover and checkpoint overhead suite.  ``quick`` restricts
    either suite to small universes with ``repeats=1`` (the smoke mode);
    ``budget`` is a wall-clock allowance in seconds enforced between
    benchmarks (:class:`BenchBudgetExceeded`).

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
    if suite not in ("exploration-scale", "fault-recovery"):
        raise ValueError(f"unknown suite {suite!r}")
    if quick:
        repeats = 1
    guard = _BudgetGuard(budget)
    results: dict[str, dict] = {}

    def record(name: str, seconds: float, **extra) -> None:
        results[name] = {"best_seconds": round(seconds, 6), **extra}
        guard.check(name)

    def scale_universe_benchmark(
        name: str, protocol, steady_repeats: int, limits: Limits = Limits()
    ) -> tuple[float, int]:
        """Cold-first measurement for the exploration-scale suite.

        Exploration is a build-once operation, so ``best_seconds`` is the
        *cold* first exploration (fresh protocol instance, cold compiled
        tables).  ``steady_seconds`` re-explores with the first universe
        released — holding two 10^6-configuration universes at once would
        measure memory pressure, not the kernel.
        """
        options = ExplorationOptions(limits=limits)
        start = time.perf_counter()
        universe = Universe(protocol, options=options)
        first = time.perf_counter() - start
        first_rounded = round(first, 6)
        table_build = round(protocol.step_table.build_seconds, 6)
        size = len(universe)
        del universe
        steady = _best_of(
            lambda: Universe(protocol, options=options), steady_repeats
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
        limits: Limits = Limits(),
    ) -> None:
        """One sharded-engine entry, paired against the single-process
        cold time measured moments earlier in this same run.

        A fresh protocol instance keeps the workers' compiled tables
        cold, mirroring the single-process cold measurement; the merged
        universe's size is asserted against the single-process size (the
        full bit-identity contract is enforced by the test suite).
        """
        start = time.perf_counter()
        universe = Universe(
            protocol_factory(),
            options=ExplorationOptions(
                limits=limits, sharding=Sharding(workers=workers)
            ),
        )
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

    def truncated_benchmark(name: str, protocol, cap: int) -> None:
        """Streaming mode at scale: a capped universe must stay usable."""
        start = time.perf_counter()
        universe = Universe(
            protocol,
            options=ExplorationOptions(
                limits=Limits(max_configurations=cap, on_limit="truncate")
            ),
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
                receivers, spill_dir=tmpdir if spill else None
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
        report = _explore_in_subprocess(receivers, pair_workers)
        total = report["peak_rss_mb"] + sum(
            report["worker_rss_mb"].values()
        )
        record(
            f"sharded_rss_{label}_workers{pair_workers}_packed",
            report["explore_seconds"],
            configurations=report["configurations"],
            workers=pair_workers,
            coordinator_rss_mb=round(report["peak_rss_mb"], 1),
            worker_rss_mb=[
                round(mb, 1)
                for _, mb in sorted(report["worker_rss_mb"].items())
            ],
            summed_rss_mb=round(total, 1),
            measured_in="fresh subprocess tree (VmHWM + farewell frames)",
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
                    _UNBOUNDED,
                )
            first_n8, size_n8 = scale_universe_benchmark(
                "universe_star_broadcast_n8",
                _star_protocol(("t", "u", "v", "w", "x", "y", "z")),
                1,
                _UNBOUNDED,
            )
            if workers > 1:
                sharded_universe_benchmark(
                    f"universe_star_broadcast_n8_workers{workers}",
                    lambda: _star_protocol(("t", "u", "v", "w", "x", "y", "z")),
                    first_n8,
                    size_n8,
                    _UNBOUNDED,
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
                    options=ExplorationOptions(
                        limits=Limits(
                            max_configurations=_N9_CONFIGURATION_CAP,
                            on_limit="truncate",
                        ),
                        sharding=Sharding(
                            workers=workers if workers > 1 else None
                        ),
                    ),
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
                _UNBOUNDED,
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
    else:
        # Recovery-overhead axis: every entry re-explores the same
        # protocol the fault-free baseline just built in this run, with
        # one injected fault per scenario, asserts the recovered
        # universe is bit-identical, and records the overhead the
        # recovery path cost (respawn-and-replay, fold, heartbeat
        # timeout, checkpoint save+resume).
        import tempfile

        from repro.universe.faults import FaultPlan
        from repro.universe.sharded import SupervisionPolicy

        shards = workers if workers > 1 else 2
        receivers = (
            ("w", "x", "y", "z") if quick else ("v", "w", "x", "y", "z")
        )
        size_label = f"n{len(receivers) + 1}"
        fast = SupervisionPolicy(heartbeat_timeout=5.0, poll_interval=0.02)

        def timed_sharded(supervision, fault_plan=None):
            start = time.perf_counter()
            universe = Universe(
                _star_protocol(receivers),
                options=ExplorationOptions(
                    sharding=Sharding(
                        workers=shards,
                        supervision=supervision,
                        fault_plan=fault_plan,
                    )
                ),
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

        baseline, base_seconds = timed_sharded(fast)
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
            recovered, seconds = timed_sharded(policy, plan)
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
            path = os.path.join(tmpdir, "bench.ckpt")
            cap = 200 if quick else 2000
            start = time.perf_counter()
            partial = Universe(
                _star_protocol(receivers),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=cap, on_limit="truncate"),
                    checkpoint=CheckpointPolicy(path=path),
                ),
            )
            truncate_seconds = time.perf_counter() - start
            start = time.perf_counter()
            resumed = Universe(
                _star_protocol(receivers),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
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
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(
                        path=os.path.join(tmpdir, "save.ckpt")
                    )
                ),
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
        with tempfile.TemporaryDirectory() as tmpdir:
            path = Path(tmpdir) / "salvage.ckpt"
            cap = 200 if quick else 2000
            Universe(
                _star_protocol(receivers),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=cap, on_limit="truncate"),
                    checkpoint=CheckpointPolicy(path=path),
                ),
            )
            newest = sorted(path.parent.glob(f"{path.name}.g*-*.seg"))[-1]
            damaged = bytearray(newest.read_bytes())
            damaged[-1] ^= 0xFF
            newest.write_bytes(bytes(damaged))
            start = time.perf_counter()
            salvaged = Universe(
                _star_protocol(receivers),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
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
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(
                        path=os.path.join(tmpdir, "healthy.ckpt")
                    )
                ),
            )
            healthy_seconds = time.perf_counter() - start
            start = time.perf_counter()
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                degraded = Universe(
                    _star_protocol(receivers),
                    options=ExplorationOptions(
                        checkpoint=CheckpointPolicy(
                            path=os.path.join(tmpdir, "degraded.ckpt")
                        ),
                        sharding=Sharding(
                            fault_plan=FaultPlan.parse(
                                [f"enospc@{1 if quick else 2}"]
                            )
                        ),
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
    document = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "suite": suite,
        "mode": "quick" if quick else "full",
        "measurement": (
            "best_seconds of a universe_* entry is the cold first "
            "exploration (universes are build-once; steady_seconds is the "
            "best warm re-exploration with the first universe released), "
            "of every other entry its one timed run; table_build_seconds is the "
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
            "farewell-frame peak"
        ),
        "benchmarks": results,
    }
    if workers > 1:
        document["workers"] = workers
    if budget is not None:
        document["budget_seconds"] = budget
        document["elapsed_seconds"] = round(guard.elapsed(), 3)
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
    print(f"{'benchmark':>44} {'best (s)':>10}")
    for name, entry in sorted(document["benchmarks"].items()):
        print(f"{name:>44} {entry['best_seconds']:>10.4f}")


def run_and_report(
    repeats: int = 5,
    output_dir: str | Path = ".",
    no_write: bool = False,
    quick: bool = False,
    suite: str = "exploration-scale",
    budget: float | None = None,
    workers: int = 1,
) -> int:
    """Run the benchmarks, print the summary, optionally write the
    trajectory file: the body of ``repro bench``."""
    if repeats < 1:
        raise SystemExit(f"repro bench: --repeats must be >= 1, got {repeats}")
    if workers < 1:
        raise SystemExit(f"repro bench: --workers must be >= 1, got {workers}")
    try:
        document = run_benchmarks(
            repeats=repeats,
            quick=quick,
            suite=suite,
            budget=budget,
            workers=workers,
        )
    except BenchShardMismatch as mismatch:
        print(f"repro bench --workers FAILED: {mismatch}")
        return 1
    except BenchBudgetExceeded as overrun:
        print(f"repro bench --budget FAILED: {overrun}")
        return 1
    except BenchRecoveryMismatch as mismatch:
        print(f"repro bench FAILED: {mismatch}")
        return 1
    print_summary(document)
    if not no_write:
        path = write_trajectory(document, output_dir)
        print(f"\nwrote {path}")
    return 0

"""Command-line interface: explore, check and demonstrate from a shell.

Five subcommands, each wrapping the corresponding library layer:

* ``repro explore <protocol>`` — explore a named protocol's universe and
  print its size and isomorphism diagram (small universes only);
* ``repro check <protocol>`` — run the paper's theorem checkers over the
  universe (properties 1–10, Theorem 1, knowledge facts) and report;
* ``repro simulate <protocol>`` — one seeded simulator run with a
  space-time diagram;
* ``repro report`` — run every theorem checker and print a markdown
  verification report, one row per claim of experiments E1–E12 and E14
  (exit status 1 on any failure);
* ``repro checkpoint verify|inspect|compact PATH`` — report an
  exploration checkpoint's format version, compatibility token, layer
  count and per-segment integrity (``verify`` exits non-zero on any
  damage), or fold all of its segments into one under a bumped
  generation (``compact`` — the operator-driven counterpart of the
  in-session auto-compaction).

Usage::

    python -m repro.cli explore pingpong --rounds 2
    python -m repro.cli check tokenbus
    python -m repro.cli simulate election --seed 7
    python -m repro.cli report
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

# Each subcommand imports the layers it runs inside its handler, so a
# short `repro explore` or `repro checkpoint verify` loads only the
# explorer, the checkpoint code and the protocol it builds.
if TYPE_CHECKING:
    from repro.protocols.broadcast import BroadcastProtocol
    from repro.universe.protocol import Protocol


def broadcast_protocol(topology: str, size: int) -> BroadcastProtocol:
    """A broadcast protocol over one of the named topologies, sized
    ``size`` processes, rooted at ``n0``.  Shared with the chaos harness
    (``tests/chaos.py``) so subprocess runs and in-process reference
    runs build the identical protocol."""
    from repro.protocols.broadcast import (
        BroadcastProtocol,
        line_topology,
        ring_topology,
        star_topology,
        tree_topology,
    )

    names = tuple(f"n{i}" for i in range(size))
    if topology == "line":
        adjacency = line_topology(names)
    elif topology == "star":
        adjacency = star_topology(names[0], names[1:])
    elif topology == "ring":
        adjacency = ring_topology(names)
    elif topology == "tree":
        adjacency = tree_topology(names)
    else:
        raise SystemExit(f"unknown topology {topology!r}")
    return BroadcastProtocol(adjacency, root=names[0])


def build_protocol(name: str, args: argparse.Namespace) -> Protocol:
    """Instantiate one of the named example protocols."""
    if name == "pingpong":
        from repro.protocols.pingpong import PingPongProtocol

        return PingPongProtocol(rounds=args.rounds)
    if name == "tokenbus":
        from repro.protocols.token_bus import TokenBusProtocol

        return TokenBusProtocol(max_hops=args.hops)
    if name == "broadcast":
        return broadcast_protocol(getattr(args, "topology", "line"), args.size)
    if name == "toggle":
        from repro.protocols.toggle import ToggleProtocol

        return ToggleProtocol(max_flips=args.flips)
    if name == "election":
        from repro.protocols.leader_election import ChangRobertsProtocol

        ring = tuple(f"n{i}" for i in range(args.size))
        return ChangRobertsProtocol(ring)
    if name == "snapshot":
        from repro.protocols.snapshot import SnapshotTokenRingProtocol
        from repro.simulation.network import FifoProtocol

        ring = tuple(f"n{i}" for i in range(min(args.size, 5)))
        return FifoProtocol(SnapshotTokenRingProtocol(ring, max_hops=args.hops))
    raise SystemExit(f"unknown protocol {name!r}")


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.errors import UniverseError
    from repro.universe.checkpoint import CheckpointError
    from repro.universe.explorer import Universe
    from repro.universe.options import options_from_args

    protocol = build_protocol(args.protocol, args)
    try:
        universe = Universe(protocol, options=options_from_args(args))
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 2
    except UniverseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workers = f", workers: {args.workers}" if args.workers > 1 else ""
    print(f"{args.protocol}: {len(universe)} configurations "
          f"(complete: {universe.is_complete}{workers})")
    stats = universe._configurations.stats()
    print(
        f"arena: {stats['sealed_chunks']} sealed chunks "
        f"({stats['raw_bytes']} raw -> {stats['compressed_bytes']} "
        "compressed bytes)"
    )
    session = universe._checkpoint_session
    if session is not None:
        if session.resumed_from is not None:
            print(
                f"resumed from checkpoint {session.path} "
                f"(frontier at configuration {session.resumed_from})"
            )
        print(
            f"checkpoint: {session.path} "
            f"({session.layers} layers, {session.saves} saves)"
        )
        if universe.checkpoint_degraded:
            print(
                f"checkpoint DEGRADED: persistent storage failure "
                f"({session.degraded_reason}); the last committed "
                f"manifest is still valid, later layers were not saved",
                file=sys.stderr,
            )
    for event in universe.recovery_log:
        shard = event.get("shard")
        layer = event.get("layer")
        where = f" at layer {layer}" if layer is not None else ""
        if shard is None or shard < 0:
            detail = event.get("detail", "")
            suffix = f": {detail}" if detail else ""
            print(
                f"recovery: {event['kind']} -> {event['action']}"
                f"{where}{suffix}"
            )
        else:
            print(
                f"recovered worker {shard}{where} "
                f"({event['kind']} -> {event['action']})"
            )
    if len(universe) <= args.diagram_limit:
        from repro.isomorphism.diagram import IsomorphismDiagram

        diagram = IsomorphismDiagram.of_universe(universe)
        print(diagram.render())
    else:
        print(f"(diagram suppressed: more than {args.diagram_limit} vertices)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.core.errors import UniverseError
    from repro.isomorphism.algebra import check_all_properties
    from repro.isomorphism.fundamental import check_theorem_1
    from repro.knowledge.axioms import check_all_facts
    from repro.knowledge.predicates import event_count_at_least, has_received
    from repro.universe.explorer import Universe
    from repro.universe.options import options_from_args

    protocol = build_protocol(args.protocol, args)
    try:
        universe = Universe(protocol, options=options_from_args(args))
    except UniverseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"universe: {len(universe)} configurations")

    properties = check_all_properties(universe, max_sets=args.max_sets)
    failed = [name for name, verdict in properties.items() if not verdict]
    print(f"isomorphism properties 1-10: "
          f"{'all hold' if not failed else 'FAILED: ' + ', '.join(failed)}")

    processes = sorted(universe.processes)
    sequences = [[frozenset({p})] for p in processes[:2]]
    if len(processes) >= 2:
        sequences.append([frozenset({processes[0]}), frozenset({processes[1]})])
    checked = check_theorem_1(universe, sequences)
    print(f"Theorem 1: {checked} instances verified")

    first, second = processes[0], processes[-1]
    facts = check_all_facts(
        universe,
        event_count_at_least({second}, 1),
        has_received(second, "ping") if args.protocol == "pingpong"
        else event_count_at_least({first}, 1),
        frozenset({first}),
        frozenset({second}),
    )
    bad = [name for name, verdict in facts.items() if not verdict]
    print(f"knowledge facts 1-12: "
          f"{'all hold' if not bad else 'FAILED: ' + ', '.join(bad)}")
    return 1 if failed or bad else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.scheduler import RandomScheduler
    from repro.simulation.simulator import simulate
    from repro.viz.render import space_time_diagram

    protocol = build_protocol(args.protocol, args)
    trace = simulate(protocol, RandomScheduler(args.seed), max_steps=args.max_steps)
    summary = trace.summary()
    print(
        f"{args.protocol} (seed {args.seed}): {summary['events']} events, "
        f"{summary['sends']} sends, {summary['receives']} receives, "
        f"{summary['undelivered']} undelivered"
    )
    print(space_time_diagram(trace.computation, max_columns=args.columns))
    return 0


def cmd_report(_args: argparse.Namespace) -> int:
    from repro.report import verification_report

    report = verification_report()
    print(report.to_markdown())
    return 0 if report.all_hold else 1


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.universe.checkpoint import (
        CheckpointError,
        compact_checkpoint,
        inspect_checkpoint,
    )

    if args.action == "compact":
        try:
            result = compact_checkpoint(args.path)
        except CheckpointError as error:
            print(f"checkpoint error: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(result, indent=2, default=str))
            return 0
        print(f"checkpoint: {result['path']}")
        if not result["compacted"]:
            print(f"  not compacted: {result['reason']}")
            return 0
        print(
            f"  compacted {result['segments_before']} segments into 1 "
            f"(generation {result['generation']}): "
            f"{result['bytes_before']} -> {result['bytes_after']} bytes"
        )
        print(
            f"  layers: {result['layers']}, "
            f"configurations: {result['count']}"
        )
        return 0

    report = inspect_checkpoint(args.path)
    if args.json:
        # Machine-readable report: same keys as the Python API —
        # per-segment status rows, orphans, and the manifest's
        # persisted recovery/degradation events.  Exit codes match the
        # text mode (0 ok, 1 verify-integrity failure, 2 unreadable).
        print(json.dumps(report, indent=2, default=str))
        if not report["exists"] or report["error"] is not None:
            return 2
        if not report["valid"]:
            return 1 if args.action == "verify" else 0
        return 0
    print(f"checkpoint: {report['path']}")
    if not report["exists"]:
        print(f"  error: {report['error']}")
        return 2
    if report["error"] is not None:
        print(f"  format version: {report['format_version']}")
        print(f"  error: {report['error']}")
        return 2
    token = report["token"]
    print(f"  format version: {report['format_version']}")
    print(
        f"  protocol: {token['protocol']} "
        f"({len(token['processes'])} processes: "
        f"{', '.join(str(p) for p in token['processes'])})"
    )
    print(f"  max_events: {token['max_events']}")
    print(
        f"  layers: {report['layers']}, configurations: {report['count']}, "
        f"complete: {report['complete']}"
    )
    print(
        f"  generation: {report['generation']}, "
        f"segments: {len(report['segments'])}"
    )
    for row in report["segments"]:
        print(
            f"    {row['name']}: layers {row['layer_from']}"
            f"..{row['layer_to']}, {row['records']} records, "
            f"{row['size']} bytes — {row['status']}"
        )
    for orphan in report["orphans"]:
        print(f"    {orphan}: orphan (uncommitted torn save)")
    for event in report.get("recovery", ()):
        layer = event.get("layer")
        where = f" at layer {layer}" if layer is not None else ""
        detail = event.get("detail", "")
        suffix = f": {detail}" if detail else ""
        print(
            f"  recovery: {event.get('kind')} -> "
            f"{event.get('rung', event.get('action'))}{where}{suffix}"
        )
    if not report["valid"]:
        print(
            f"  INTEGRITY: FAILED — salvageable prefix is "
            f"{report['salvageable_layers']} layers"
        )
        return 1 if args.action == "verify" else 0
    print("  INTEGRITY: ok")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="How Processes Learn (Chandy & Misra 1985), executable.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_protocol_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "protocol",
            choices=["pingpong", "tokenbus", "broadcast", "toggle",
                     "election", "snapshot"],
        )
        sub.add_argument("--rounds", type=int, default=2)
        sub.add_argument("--hops", type=int, default=3)
        sub.add_argument("--size", type=int, default=4)
        sub.add_argument("--flips", type=int, default=2)
        sub.add_argument("--limit", type=int, default=100_000)
        sub.add_argument(
            "--topology",
            choices=["line", "star", "ring", "tree"],
            default="line",
            help="adjacency of the broadcast protocol (ignored by the "
            "other protocols); star is the scale family of the benchmark",
        )

    explore = subparsers.add_parser("explore", help="explore a universe")
    add_protocol_options(explore)
    explore.add_argument("--diagram-limit", type=int, default=30)

    # Flag groups mirror the ExplorationOptions dataclasses one-to-one;
    # options_from_args() is the single mapping between the two.
    sharding = explore.add_argument_group(
        "sharding (Sharding)",
        "multiprocess sharded exploration and its fault injection",
    )
    sharding.add_argument(
        "--workers",
        type=int,
        default=1,
        help="exploration processes: 1 runs the in-process kernel, N>1 "
        "the multiprocess sharded frontier engine (bit-identical result)",
    )
    sharding.add_argument(
        "--fault",
        action="append",
        metavar="SPEC",
        default=None,
        help="inject a deterministic fault, repeatable; worker kinds "
        "need a shard (kill:0@3, drop_batch:1@2, delay_batch:1@2~0.5, "
        "corrupt_batch:0@1), checkpoint kinds take none (torn_save@5, "
        "corrupt_segment@2, stall_write@3~1.0), storage kinds take "
        "none and hit the next checkpoint filesystem call after "
        "their layer (enospc@2, eio_write@1, eio_read@0, fsync_fail@3, "
        "slow_io@2~0.2, fd_exhaust@1)",
    )

    ckpt = explore.add_argument_group(
        "checkpointing (CheckpointPolicy)",
        "durable layer-boundary saves and crash/resume behaviour",
    )
    ckpt.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint manifest: each BFS layer boundary appends a "
        "delta segment file next to it, then atomically replaces the "
        "manifest (the commit point); an existing checkpoint is resumed, "
        "and the resumed universe is bit-identical to an uninterrupted run",
    )
    ckpt.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="save the checkpoint every N completed layers (default 1)",
    )
    ckpt.add_argument(
        "--strict",
        action="store_true",
        help="refuse to salvage a damaged checkpoint: exit non-zero "
        "instead of truncating to the last valid layer boundary",
    )

    budget = explore.add_argument_group(
        "resource budget (ResourceBudget)",
        "the resident-memory ceiling",
    )
    budget.add_argument(
        "--rss-budget",
        type=float,
        default=None,
        metavar="MB",
        help="resident-memory budget in MiB (all exploration processes); "
        "crossing it truncates the universe at the next layer boundary "
        "instead of risking an OOM kill",
    )
    explore.set_defaults(handler=cmd_explore)

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="verify or inspect an exploration checkpoint file",
    )
    checkpoint.add_argument(
        "action",
        choices=["verify", "inspect", "compact"],
        help="verify exits non-zero on any integrity failure; inspect "
        "prints the same report but only fails on an unreadable file; "
        "compact folds all segments into one under a bumped generation",
    )
    checkpoint.add_argument("path", metavar="PATH")
    checkpoint.add_argument(
        "--json",
        action="store_true",
        help="emit the full machine-readable report (per-segment "
        "status, orphans, persisted recovery/degradation events) as "
        "JSON; exit codes are unchanged",
    )
    checkpoint.set_defaults(handler=cmd_checkpoint)

    check = subparsers.add_parser("check", help="run theorem checkers")
    add_protocol_options(check)
    check.add_argument("--max-sets", type=int, default=6)
    check.set_defaults(handler=cmd_check)

    sim = subparsers.add_parser("simulate", help="one simulator run")
    add_protocol_options(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-steps", type=int, default=100_000)
    sim.add_argument("--columns", type=int, default=100)
    sim.set_defaults(handler=cmd_simulate)

    report = subparsers.add_parser(
        "report", help="run every checker and print a verification report"
    )
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

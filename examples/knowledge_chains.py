#!/usr/bin/env python3
"""Theorems 5 & 6 live: knowledge flows along process chains — and only
along them.

A fact is established at the root of an 8-process line and floods
outward.  We measure, on a concrete simulated run, when each process
learns the fact, and verify the paper's sequential-transfer law: the
learning front advances exactly with the process chain from the root.
Then the fusion theorem (Theorem 2) is demonstrated by splicing two
computations that agree on a prefix.

Run:  python examples/knowledge_chains.py
"""

from repro.applications.knowledge_flow import (
    broadcast_knowledge_latency,
    latency_series,
    verify_chain_gating,
)
from repro.isomorphism.fusion import fuse, fusion_side_conditions
from repro.isomorphism.relation import isomorphic
from repro.protocols.broadcast import BroadcastProtocol, line_topology
from repro.universe.explorer import Universe


def main() -> None:
    # ------------------------------------------------------------------
    # Knowledge latency along a line.
    # ------------------------------------------------------------------
    rows, trace = broadcast_knowledge_latency(line_length=8, seed=5)
    print("Fact flooding down an 8-process line (event index of learning):")
    for row in rows:
        bar = "#" * (row.learned_at_step or 0)
        print(f"  {row.process}  d={row.distance}  step {row.learned_at_step:>3}  {bar}")
    assert verify_chain_gating(rows, trace, root="n0")
    print("  (chain gating verified: knowledge iff chain from the root)\n")

    print("Far-end learning step vs line length (sequential transfer):")
    for length, step in latency_series((4, 8, 16, 32), seed=1):
        print(f"  n={length:>3}: step {step}")
    print()

    # ------------------------------------------------------------------
    # Fusion theorem on a small universe.
    # ------------------------------------------------------------------
    protocol = BroadcastProtocol(line_topology(("a", "b", "c")), root="a")
    universe = Universe(protocol)
    print(
        f"Fusion over the 3-line broadcast universe ({len(universe)} "
        "computations):"
    )
    fused = 0
    example = None
    # x <= y and x <= z: the supersets of x are its descendant mask.
    supersets = dict(universe.descendant_masks(universe.full_mask))
    for x_id in sorted(supersets):
        x = universe.configuration_of_id(x_id)
        candidates = universe.configurations_in_mask(supersets[x_id])
        for y in candidates:
            for z in candidates:
                if y == z or fusion_side_conditions(
                    x, y, z, {"a"}, universe.processes
                ):
                    continue
                w = fuse(x, y, z, {"a"}, universe.processes)
                fused += 1
                if example is None and len(y) > len(x) and len(z) > len(x):
                    example = (x, y, z, w)
    print(f"  {fused} licensed fusions, all valid computations.")
    if example:
        x, y, z, w = example
        print("  One of them (w takes a's events from y, the rest from z):")
        print(f"    x = {x!r}")
        print(f"    y = {y!r}")
        print(f"    z = {z!r}")
        print(f"    w = {w!r}")
        assert isomorphic(y, w, {"a"})
        assert isomorphic(z, w, {"b", "c"})


if __name__ == "__main__":
    main()

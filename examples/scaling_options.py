#!/usr/bin/env python3
"""The ExplorationOptions API: every scaling knob in one grouped bundle.

``Universe(protocol, options=None)`` takes every exploration knob
(limits, checkpointing, resource budgets, sharding) as one
``ExplorationOptions`` bundle of four small frozen dataclasses.  This
example drives each group:

1. ``Limits`` — cap the universe and stream a truncated prefix;
2. ``CheckpointPolicy`` — save at layer boundaries, then resume the
   truncated run to completion from disk;
3. ``Sharding`` — explore with two forked worker shards and read back
   their peak memory from the farewell frames;
4. ``ResourceBudget`` — an RSS budget the exploration cannot meet, so
   it truncates at a layer boundary instead of running out of memory.

Run:  python examples/scaling_options.py
"""

import tempfile
from pathlib import Path

from repro.protocols.broadcast import BroadcastProtocol, star_topology
from repro.universe.explorer import Universe
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    ResourceBudget,
    Sharding,
)


def star(n: int) -> BroadcastProtocol:
    receivers = tuple(f"p{i}" for i in range(n - 1))
    return BroadcastProtocol(star_topology("hub", receivers), "hub")


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Limits: a capped, streaming exploration.
    # ------------------------------------------------------------------
    capped = Universe(
        star(5),
        options=ExplorationOptions(
            limits=Limits(max_configurations=200, on_limit="truncate")
        ),
    )
    print(
        f"Capped at 200: {len(capped)} configurations, "
        f"complete={capped.is_complete}"
    )

    # ------------------------------------------------------------------
    # 2. CheckpointPolicy: truncate, then resume from disk.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmpdir:
        path = Path(tmpdir) / "star5.ckpt"
        Universe(
            star(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=200, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path, every=1),
            ),
        )
        resumed = Universe(
            star(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        session = resumed._checkpoint_session
        print(
            f"Resumed from layer {session.resumed_from} to "
            f"{len(resumed)} configurations, complete={resumed.is_complete}"
        )

    # ------------------------------------------------------------------
    # 3. Sharding: two forked worker shards, bit-identical merge.
    # ------------------------------------------------------------------
    single = Universe(star(5))
    sharded = Universe(
        star(5), options=ExplorationOptions(sharding=Sharding(workers=2))
    )
    assert len(sharded) == len(single)
    assert sharded._succ_ids == single._succ_ids
    peaks = ", ".join(
        f"shard{shard}={mb:.0f}MiB"
        for shard, mb in sorted(sharded.worker_peak_rss_mb.items())
    )
    print(f"Sharded x2 matches single-process; worker peaks: {peaks}")

    # ------------------------------------------------------------------
    # 4. ResourceBudget: a 1 MiB RSS budget truncates the exploration.
    # ------------------------------------------------------------------
    budgeted = Universe(
        star(5), options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=1))
    )
    if budgeted.rss_watchdog_active:
        assert not budgeted.is_complete
        [event] = budgeted.recovery_log
        print(
            f"RSS budget of 1 MiB: truncated at layer {event.layer} with "
            f"{len(budgeted)} configurations "
            f"({event.kind} -> {event.rung})"
        )
    else:
        print("RSS cannot be measured on this host; the budget is inactive")


if __name__ == "__main__":
    main()

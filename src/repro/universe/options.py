"""Exploration options for :class:`repro.universe.Universe`.

``Universe(protocol, options=None)`` takes everything beyond the
protocol as one :class:`ExplorationOptions` bundle of four frozen
dataclasses (limits, checkpointing, resource budgets, sharding):

``Universe(protocol, options=ExplorationOptions(
    limits=Limits(max_configurations=None),
    checkpoint=CheckpointPolicy(path="run.ckpt"),
    budget=ResourceBudget(rss_budget_mb=8192),
    sharding=Sharding(workers=4),
))``

The dataclasses are frozen and contain only picklable leaves (the
supervision policy and fault plan are themselves frozen dataclasses),
so an ``ExplorationOptions`` travels intact through both ``fork`` and
``spawn`` multiprocessing starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.universe.faults import FaultPlan
    from repro.universe.sharded import SupervisionPolicy

__all__ = [
    "CheckpointPolicy",
    "ExplorationOptions",
    "Limits",
    "ResourceBudget",
    "Sharding",
    "options_from_args",
]


@dataclass(frozen=True)
class Limits:
    """Bounds on the explored universe.

    ``max_events`` stops extending configurations that already have
    this many events (``None`` = unbounded; the protocol must then be
    finite).  ``max_configurations`` caps the universe size (``None`` =
    unbounded), a safety valve.  ``on_limit`` picks what happens at the
    cap: ``"raise"`` aborts with :class:`~repro.core.errors.UniverseError`;
    ``"truncate"`` stops exploring and returns the partial universe with
    ``is_complete`` ``False`` — the streaming mode that keeps partial
    universes at n≥8 usable.
    """

    max_events: int | None = None
    max_configurations: int | None = 1_000_000
    on_limit: str = "raise"


@dataclass(frozen=True)
class CheckpointPolicy:
    """Layer-boundary checkpointing (``None`` path = disabled).

    With a ``path`` (:mod:`repro.universe.checkpoint`), an existing file
    is *resumed* from its last completed BFS layer, and the finished
    universe is bit-identical to an uninterrupted run.  Saves happen
    every ``every`` layers and at the end, in the one checkpoint format
    (version 2): a background writer appends one delta segment, then
    atomically replaces the manifest.  A file of any other format
    version (the retired version 1 included) raises
    :class:`~repro.universe.checkpoint.CheckpointError`.  A corrupt tail
    is salvaged to the last valid layer boundary (logged on
    ``Universe.recovery_log``) unless ``strict``, which raises
    ``CheckpointError`` instead of truncating to the valid prefix.
    """

    path: Any = None
    every: int = 1
    strict: bool = False


@dataclass(frozen=True)
class ResourceBudget:
    """Memory ceilings: the RSS watchdog and the arena spill directory.

    ``rss_budget_mb`` is a resident-memory budget (MiB, coordinator plus
    live workers).  When exploration crosses it at a layer boundary it
    degrades to the ``on_limit="truncate"`` behaviour — partial
    universe, ``is_complete`` ``False`` — instead of being OOM-killed
    (pair it with a checkpoint to resume elsewhere).  On hosts where RSS
    cannot be measured the watchdog deactivates with a one-time warning
    (see ``Universe.rss_watchdog_active``).  ``spill_dir`` is the
    directory of the arena's on-disk cold tier: sealed cold chunks
    stream to an mmap-backed spill file there as layers retire, and the
    watchdog force-spills before it ever truncates.
    """

    rss_budget_mb: float | None = None
    spill_dir: Any = None


@dataclass(frozen=True)
class Sharding:
    """Multiprocess sharding: worker count, supervision, fault injection.

    ``workers`` of ``None``, ``0`` or ``1`` run the in-process frontier
    kernel; ``K > 1`` runs the sharded engine
    (:mod:`repro.universe.sharded`): the frontier is partitioned by
    configuration content hash into ``K`` forked worker shards that
    exchange successor batches per BFS layer, and the merged universe is
    bit-identical to single-process exploration — same dense ids,
    successor arrays, class masks and truncation behaviour.
    ``supervision`` (a :class:`~repro.universe.sharded.SupervisionPolicy`)
    overrides the coordinator's heartbeat/respawn tunables and needs
    ``workers >= 2``.  ``fault_plan`` is deterministic fault injection
    (:mod:`repro.universe.faults`): worker fault kinds need
    ``workers >= 2``; checkpoint fault kinds (``torn_save``,
    ``corrupt_segment``) need a checkpoint path and run on either
    engine; storage fault kinds need a checkpoint path or a spill
    directory.
    """

    workers: int | None = None
    supervision: "SupervisionPolicy | None" = None
    fault_plan: "FaultPlan | None" = None


@dataclass(frozen=True)
class ExplorationOptions:
    """Everything ``Universe`` accepts beyond the protocol itself.

    ``store`` accepts only ``"arena"``: configurations are kept as
    packed ``(parent id, event, hash)`` columns
    (:class:`~repro.universe.arena.ArenaStore`) and materialised lazily.
    Any other value raises :class:`~repro.core.errors.UniverseError`.
    It stays a field so callers that name the store explicitly keep
    working.
    """

    limits: Limits = Limits()
    checkpoint: CheckpointPolicy = CheckpointPolicy()
    budget: ResourceBudget = ResourceBudget()
    sharding: Sharding = Sharding()
    store: str = "arena"


def options_from_args(args: Any) -> ExplorationOptions:
    """One CLI flag set -> one :class:`ExplorationOptions`.

    The single mapping between ``argparse`` namespaces and the options
    dataclasses, shared by ``repro explore`` and ``repro check`` so no
    surface hand-threads kwargs.  Flags map 1:1 onto dataclass fields
    (``--limit`` -> ``Limits.max_configurations``, ``--checkpoint`` ->
    ``CheckpointPolicy.path``, ...); absent attributes fall back to the
    dataclass defaults, so partial namespaces work too (``repro check``
    has only ``--limit``).
    ``on_limit`` is derived, not a flag: an RSS budget implies
    ``"truncate"`` (degrade at a layer boundary rather than die).
    """
    from repro.universe.faults import FaultPlan

    fault_specs = getattr(args, "fault", None)
    rss_budget_mb = getattr(args, "rss_budget", None)
    return ExplorationOptions(
        limits=Limits(
            max_configurations=getattr(args, "limit", 1_000_000),
            on_limit="truncate" if rss_budget_mb is not None else "raise",
        ),
        checkpoint=CheckpointPolicy(
            path=getattr(args, "checkpoint", None),
            every=getattr(args, "checkpoint_every", 1),
            strict=getattr(args, "strict", False),
        ),
        budget=ResourceBudget(
            rss_budget_mb=rss_budget_mb,
            spill_dir=getattr(args, "spill_dir", None),
        ),
        sharding=Sharding(
            workers=getattr(args, "workers", None),
            fault_plan=(
                FaultPlan.parse(fault_specs) if fault_specs else None
            ),
        ),
    )

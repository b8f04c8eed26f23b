"""Grouped exploration options for :class:`repro.universe.Universe`.

The ``Universe`` constructor grew thirteen keyword arguments across the
scaling PRs (limits, checkpointing, resource budgets, sharding, store
selection).  This module groups them into four frozen dataclasses plus a
top-level :class:`ExplorationOptions` bundle:

``Universe(protocol, options=ExplorationOptions(
    limits=Limits(max_configurations=None),
    checkpoint=CheckpointPolicy(path="run.ckpt"),
    budget=ResourceBudget(rss_budget_mb=8192),
    sharding=Sharding(workers=4),
))``

Legacy keyword arguments keep working through :func:`resolve_options`,
which normalises either calling style into one ``ExplorationOptions``
instance — the explorer then has a single code path.  A
``DeprecationWarning`` fires only on a *conflicting* double
specification (the same knob set through both a legacy kwarg and the
options object, with different values); in that case the explicit
legacy kwarg wins, preserving the behaviour of call sites written
before the options API existed.

The dataclasses are frozen and contain only picklable leaves (the
supervision policy and fault plan are themselves frozen dataclasses),
so an ``ExplorationOptions`` travels intact through both ``fork`` and
``spawn`` multiprocessing starts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
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
    "resolve_options",
]


@dataclass(frozen=True)
class Limits:
    """Bounds on the explored universe.

    ``max_events`` caps per-process history length (``None`` = the
    protocol's own fixpoint); ``max_configurations`` caps the universe
    size (``None`` = unbounded); ``on_limit`` picks what happens at the
    cap: ``"raise"`` or ``"truncate"`` (streaming partial universe).
    """

    max_events: int | None = None
    max_configurations: int | None = 1_000_000
    on_limit: str = "raise"


@dataclass(frozen=True)
class CheckpointPolicy:
    """Layer-boundary checkpointing (``None`` path = disabled).

    ``every`` saves each N layers, ``strict`` errors on damaged
    checkpoints instead of salvage-truncating.
    """

    path: Any = None
    every: int = 1
    strict: bool = False


@dataclass(frozen=True)
class ResourceBudget:
    """Memory ceilings: the RSS watchdog and the arena spill directory."""

    rss_budget_mb: float | None = None
    spill_dir: Any = None


@dataclass(frozen=True)
class Sharding:
    """Multiprocess sharding: worker count, supervision, fault injection."""

    workers: int | None = None
    supervision: "SupervisionPolicy | None" = None
    fault_plan: "FaultPlan | None" = None


@dataclass(frozen=True)
class ExplorationOptions:
    """Everything ``Universe`` accepts beyond the protocol itself.

    ``store`` accepts only ``"arena"`` (the one configuration store); it
    stays a field so callers that name the store explicitly keep working.
    """

    limits: Limits = Limits()
    checkpoint: CheckpointPolicy = CheckpointPolicy()
    budget: ResourceBudget = ResourceBudget()
    sharding: Sharding = Sharding()
    store: str = "arena"


class _Unset:
    """Sentinel distinguishing 'not passed' from an explicit ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


UNSET = _Unset()

# legacy kwarg -> (options group field | None for top level, field name)
_LEGACY_FIELDS = {
    "max_events": ("limits", "max_events"),
    "max_configurations": ("limits", "max_configurations"),
    "on_limit": ("limits", "on_limit"),
    "checkpoint": ("checkpoint", "path"),
    "checkpoint_every": ("checkpoint", "every"),
    "checkpoint_strict": ("checkpoint", "strict"),
    "rss_budget_mb": ("budget", "rss_budget_mb"),
    "spill_dir": ("budget", "spill_dir"),
    "workers": ("sharding", "workers"),
    "supervision": ("sharding", "supervision"),
    "fault_plan": ("sharding", "fault_plan"),
    "store": (None, "store"),
}

_GROUP_TYPES = {
    "limits": Limits,
    "checkpoint": CheckpointPolicy,
    "budget": ResourceBudget,
    "sharding": Sharding,
}


def resolve_options(
    options: ExplorationOptions | None, legacy: dict[str, Any]
) -> ExplorationOptions:
    """Normalise one ``Universe`` call into an ``ExplorationOptions``.

    ``legacy`` maps legacy kwarg names to their values, with
    :data:`UNSET` marking kwargs the caller never passed.  Explicitly
    passed legacy kwargs are folded into ``options`` (or a fresh
    default instance when ``options is None``); a ``DeprecationWarning``
    fires only when the same knob was set through *both* paths with
    different values, in which case the legacy kwarg wins.
    """
    unknown = set(legacy) - set(_LEGACY_FIELDS)
    if unknown:
        raise TypeError(
            f"unknown Universe keyword(s): {', '.join(sorted(unknown))}"
        )
    resolved = options if options is not None else ExplorationOptions()
    if not isinstance(resolved, ExplorationOptions):
        raise TypeError(
            "Universe(options=...) expects an ExplorationOptions instance, "
            f"got {type(resolved).__name__}"
        )
    # Collect per-group overrides from explicitly passed legacy kwargs.
    overrides: dict[str | None, dict[str, Any]] = {}
    for kwarg, value in legacy.items():
        if value is UNSET:
            continue
        group, field_name = _LEGACY_FIELDS[kwarg]
        overrides.setdefault(group, {})[field_name] = value
        if options is not None:
            current = (
                getattr(options, field_name)
                if group is None
                else getattr(getattr(options, group), field_name)
            )
            default = _field_default(group, field_name)
            if current != default and current != value:
                warnings.warn(
                    f"Universe(): legacy kwarg {kwarg}={value!r} conflicts "
                    f"with options.{group + '.' if group else ''}"
                    f"{field_name}={current!r}; the legacy kwarg wins — "
                    "pass one or the other",
                    DeprecationWarning,
                    stacklevel=3,
                )
    if not overrides:
        return resolved
    replacements: dict[str, Any] = {}
    for group, group_overrides in overrides.items():
        if group is None:
            replacements.update(group_overrides)
        else:
            replacements[group] = _replace(
                getattr(resolved, group), group_overrides
            )
    return _replace(resolved, replacements)


def options_from_args(args: Any) -> ExplorationOptions:
    """One CLI flag set -> one :class:`ExplorationOptions`.

    The single mapping between ``argparse`` namespaces and the options
    dataclasses, shared by ``repro explore`` and ``repro bench`` so no
    surface hand-threads kwargs.  Flags map 1:1 onto dataclass fields
    (``--limit`` -> ``Limits.max_configurations``, ``--checkpoint`` ->
    ``CheckpointPolicy.path``, ...); absent attributes fall back to the
    dataclass defaults, so partial namespaces (bench suites) work too.
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


def _field_default(group: str | None, field_name: str) -> Any:
    cls = ExplorationOptions if group is None else _GROUP_TYPES[group]
    for entry in fields(cls):
        if entry.name == field_name:
            return entry.default
    raise AssertionError(field_name)  # pragma: no cover


def _replace(instance: Any, changes: dict[str, Any]) -> Any:
    """``dataclasses.replace`` without re-running ``__post_init__``
    surprises — all our dataclasses are plain field bags."""
    current = {
        entry.name: getattr(instance, entry.name)
        for entry in fields(instance)
    }
    current.update(changes)
    return type(instance)(**current)

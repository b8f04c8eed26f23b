"""Plain reference BFS: the oracle every exploration engine is checked
against.

:func:`reference_bfs` enumerates a protocol's reachable configurations
the obvious way — uncompiled :meth:`~repro.universe.protocol.Protocol.enabled_events`,
:meth:`~repro.core.configuration.Configuration.extend`, and a dict keyed
by configuration for dedup — so it shares no code with the exploration
kernel (compiled step tables, rolling child hashes, packed rows, the
arena) or the sharded engine.  It reproduces their observable contract
exactly: dense BFS ids, CSR successor rows in enabled-event order, the
content-hash id table with its collision buckets, completeness under
``max_events``, and the truncation point and partial successor rows of
``max_configurations`` under both ``on_limit`` modes.

:func:`streamed_history_labels` is the oracle of the packed
history-label pass
(:func:`~repro.universe.explorer.packed_history_labels`): it labels
materialised configurations' histories directly.

:func:`sub_configuration_pairs` is the oracle of
:meth:`~repro.universe.explorer.Universe.descendant_masks`: it compares
configurations' histories instead of walking successor edges.

Slow by design; the tests and the chaos harness use it on
small universes only.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import inf

from repro.core.configuration import EMPTY_CONFIGURATION, Configuration
from repro.core.errors import UniverseError
from repro.core.process import ProcessId
from repro.universe.protocol import Protocol


@dataclass
class ReferenceExploration:
    """What :func:`reference_bfs` found, laid out like a ``Universe``."""

    configurations: list[Configuration]
    succ_offsets: array
    succ_ids: array
    ids_by_hash: dict[int, int | list[int]]
    is_complete: bool

    def __len__(self) -> int:
        return len(self.configurations)

    def differences(self, universe) -> list[str]:
        """The parts of ``universe`` that differ from this reference —
        empty iff the two are bit-identical."""
        same = {
            "len": len(universe) == len(self),
            "is_complete": universe.is_complete == self.is_complete,
            "_succ_offsets": universe._succ_offsets == self.succ_offsets,
            "_succ_ids": universe._succ_ids == self.succ_ids,
            "_ids_by_hash": universe._ids_by_hash == self.ids_by_hash,
            "configurations": all(
                ours == theirs and ours._histories == theirs._histories
                for ours, theirs in zip(universe, self.configurations)
            ),
        }
        return [name for name, equal in same.items() if not equal]


def reference_bfs(
    protocol: Protocol,
    max_events: int | None = None,
    max_configurations: int | None = None,
    on_limit: str = "raise",
) -> ReferenceExploration:
    """Breadth-first enumeration of ``protocol``'s configurations with
    the same bounds and semantics as ``Universe``."""
    configurations = [EMPTY_CONFIGURATION]
    ids = {EMPTY_CONFIGURATION: 0}
    rows: list[list[int]] = []
    limit = inf if max_configurations is None else max_configurations
    complete = True
    truncated = False
    for current in configurations:  # grows while it is walked
        row: list[int] = []
        rows.append(row)
        enabled = tuple(protocol.enabled_events(current))
        if max_events is not None and len(current) >= max_events:
            complete = complete and not enabled
            continue
        for event in enabled:
            child = current.extend(event)
            child_id = ids.get(child)
            if child_id is None:
                if len(configurations) >= limit:
                    truncated = True
                    break
                child_id = ids[child] = len(configurations)
                configurations.append(child)
            row.append(child_id)
        if truncated:
            if on_limit == "raise":
                raise UniverseError(
                    f"exploration exceeded {max_configurations} configurations"
                )
            complete = False
            break
    rows += [[] for _ in range(len(configurations) - len(rows))]
    succ_offsets = array("q", [0])
    succ_ids = array("q")
    for row in rows:
        succ_ids.extend(row)
        succ_offsets.append(len(succ_ids))
    ids_by_hash: dict[int, int | list[int]] = {}
    for index, configuration in enumerate(configurations):
        bucket = ids_by_hash.setdefault(hash(configuration), index)
        if bucket != index:
            if type(bucket) is int:
                ids_by_hash[hash(configuration)] = [bucket, index]
            else:
                bucket.append(index)
    return ReferenceExploration(
        configurations, succ_offsets, succ_ids, ids_by_hash, complete
    )


def streamed_history_labels(
    configurations: Iterable[Configuration], processes: Sequence[ProcessId]
) -> list[tuple[array, int]]:
    """``(labels, count)`` per process ``p`` of ``processes``: the
    first-occurrence labels of each configuration's ``p``-history, in one
    pass over materialised configurations, hashing every history tuple."""
    lanes = [(process, {}, array("i")) for process in processes]
    for configuration in configurations:
        histories = configuration._histories
        for process, label_of, column in lanes:
            column.append(
                label_of.setdefault(histories.get(process, ()), len(label_of))
            )
    return [(column, len(label_of)) for _, label_of, column in lanes]


def sub_configuration_pairs(
    universe,
) -> Iterator[tuple[Configuration, Configuration]]:
    """All ordered pairs ``(x, z)`` with ``x`` a sub-configuration of
    ``z`` — the configuration-level analogue of the paper's ``x <= z``.

    Quadratic in the universe size; intended for exhaustive theorem
    checking on small universes.  Candidates are bucketed by event
    count so ``x`` is only ever compared against configurations with
    at least as many events.
    """
    by_count: dict[int, list[Configuration]] = {}
    for configuration in universe:
        by_count.setdefault(len(configuration), []).append(configuration)
    counts = sorted(by_count)
    for smaller in universe:
        threshold = len(smaller)
        for count in counts:
            if count < threshold:
                continue
            for larger in by_count[count]:
                if smaller.is_sub_configuration_of(larger):
                    yield smaller, larger


__all__ = [
    "ReferenceExploration",
    "reference_bfs",
    "streamed_history_labels",
    "sub_configuration_pairs",
]

"""Isomorphism diagrams (paper, §3 and Figure 3-1).

An isomorphism diagram is an undirected labelled graph whose vertices are
computations, with an edge labelled ``[P]`` between ``x`` and ``y`` when
``P`` is the *largest* set of processes for which ``x [P] y``.  Every
vertex carries a self-loop labelled ``[D]``; distinct vertices related by
``[D]`` are permutations of one another.

Vertices may be linear :class:`~repro.core.computation.Computation` objects
(as in the paper's Figure 3-1, where the permutations ``x`` and ``z`` are
distinct vertices joined by a ``[D]`` edge) or canonical
:class:`~repro.core.configuration.Configuration` objects (one vertex per
``[D]``-class).  Composed relations ``x [P1 … Pn] z`` correspond to
labelled paths, as the paper notes
(:meth:`IsomorphismDiagram.has_labelled_path`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Union

from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.process import (
    ProcessId,
    ProcessSetLike,
    as_process_set,
    format_process_set,
)
from repro.isomorphism.relation import SetSequence
from repro.universe.explorer import Universe

Vertex = Union[Computation, Configuration]
"""Diagram vertices: linear computations or canonical configurations."""


def _history(vertex: Vertex, process: ProcessId) -> tuple:
    if isinstance(vertex, Configuration):
        return vertex.history(process)
    return vertex.projection(process)


class IsomorphismDiagram:
    """The isomorphism diagram of a finite set of computations.

    ``names`` optionally assigns display names (``x``, ``y``…) to
    vertices; unnamed vertices are numbered in insertion order.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        all_processes: ProcessSetLike,
        names: Mapping[str, Vertex] | None = None,
    ) -> None:
        self._all_processes = as_process_set(all_processes)
        self._vertices: list[Vertex] = []
        seen: set[Vertex] = set()
        for vertex in vertices:
            if vertex not in seen:
                seen.add(vertex)
                self._vertices.append(vertex)
        self._names: dict[Vertex, str] = {}
        if names:
            for name, vertex in names.items():
                self._names[vertex] = name
        for index, vertex in enumerate(self._vertices):
            self._names.setdefault(vertex, f"c{index}")
        # Diagram-local partition tables: for each process, vertices are
        # bucketed by projection and assigned a class index, so every
        # agreement question is an integer comparison instead of a
        # history-tuple comparison.
        self._ordered_processes = tuple(sorted(self._all_processes))
        self._class_ids: dict[ProcessId, dict[Vertex, int]] = {}
        self._class_keys: dict[ProcessId, dict[tuple, int]] = {}
        for process in self._ordered_processes:
            classes: dict[tuple, int] = {}
            ids: dict[Vertex, int] = {}
            for vertex in self._vertices:
                key = _history(vertex, process)
                index = classes.setdefault(key, len(classes))
                ids[vertex] = index
            self._class_ids[process] = ids
            self._class_keys[process] = classes
        # Edge labels keyed by vertex pair in insertion order (self-loops
        # first per vertex); `label` looks a pair up in both orders.
        self._edges: dict[tuple[Vertex, Vertex], frozenset[ProcessId]] = {}
        self._build()

    @staticmethod
    def of_universe(universe: Universe) -> "IsomorphismDiagram":
        """Diagram over every configuration of a universe."""
        return IsomorphismDiagram(universe, universe.processes)

    def _build(self) -> None:
        for index, first in enumerate(self._vertices):
            # Self loop labelled [D], as the paper observes.
            self._edges[first, first] = self._all_processes
            for second in self._vertices[index + 1 :]:
                label = self.largest_label(first, second)
                if label:
                    self._edges[first, second] = label

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Sequence[Vertex]:
        return tuple(self._vertices)

    def name_of(self, vertex: Vertex) -> str:
        return self._names[vertex]

    def largest_label(self, first: Vertex, second: Vertex) -> frozenset[ProcessId]:
        """The largest ``P ⊆ D`` with ``first [P] second``.

        Processes having no event in either computation agree vacuously
        and are included, matching the ``[D]`` self-loop convention.
        Known vertices compare per-process class indices; foreign
        vertices fall back to projection comparison.
        """
        class_ids = self._class_ids
        try:
            return frozenset(
                process
                for process in self._ordered_processes
                if class_ids[process][first] == class_ids[process][second]
            )
        except KeyError:
            return frozenset(
                process
                for process in self._all_processes
                if _history(first, process) == _history(second, process)
            )

    def label(self, first: Vertex, second: Vertex) -> frozenset[ProcessId] | None:
        """The edge label between two vertices, or ``None`` if no edge."""
        label = self._edges.get((first, second))
        if label is None:
            label = self._edges.get((second, first))
        return label

    def related(
        self, first: Vertex, second: Vertex, processes: ProcessSetLike
    ) -> bool:
        """``first [P] second`` read off the diagram."""
        label = self.largest_label(first, second)
        return as_process_set(processes) <= label

    def has_labelled_path(
        self, start: Vertex, sets: SetSequence, end: Vertex
    ) -> bool:
        """Is there a path ``start —[Q1]— … —[Qn]— end`` with ``Qi ⊇ Pi``?

        This is the diagram reading of ``start [P1 … Pn] end`` *restricted
        to the diagram's vertex set* (the universe-based
        :func:`repro.isomorphism.relation.composed_isomorphic` quantifies
        over all computations instead).
        """
        frontier: set[Vertex] = {start}
        for entry in sets:
            processes = sorted(as_process_set(entry))

            def signature(vertex: Vertex) -> tuple:
                # Per-process class indices resolved through the history
                # key, so vertices outside the diagram (e.g. a foreign
                # `start`) land in the same bucket as the diagram
                # vertices they agree with.  Histories unseen in the
                # diagram keep the raw key: they match no bucket, which
                # is correct — no vertex shares that projection.
                parts = []
                for process in processes:
                    key = _history(vertex, process)
                    keys = self._class_keys.get(process)
                    if keys is None:
                        parts.append(key)
                    else:
                        index = keys.get(key)
                        parts.append(key if index is None else index)
                return tuple(parts)

            buckets: dict[tuple, list[Vertex]] = {}
            for vertex in self._vertices:
                buckets.setdefault(signature(vertex), []).append(vertex)
            next_frontier: set[Vertex] = set()
            for vertex in frontier:
                next_frontier.update(buckets.get(signature(vertex), ()))
            frontier = next_frontier
        return end in frontier

    def edge_list(self) -> list[tuple[str, str, frozenset[ProcessId]]]:
        """All edges as ``(name, name, label)`` triples, self-loops
        included, deterministically ordered."""
        edges = []
        for (first, second), label in self._edges.items():
            name_a, name_b = sorted((self.name_of(first), self.name_of(second)))
            edges.append((name_a, name_b, label))
        edges.sort(key=lambda item: (item[0], item[1]))
        return edges

    def render(self) -> str:
        """ASCII rendering: one line per edge, e.g. ``x --[{p}]-- y``."""
        lines = []
        for first, second, label in self.edge_list():
            rendered = format_process_set(label)
            if first == second:
                lines.append(f"{first} --[{rendered}]-- {first}  (self loop)")
            else:
                lines.append(f"{first} --[{rendered}]-- {second}")
        return "\n".join(lines)

    def to_dot(self, include_self_loops: bool = False) -> str:
        """Graphviz DOT source for the diagram.

        Renders with e.g. ``dot -Tsvg diagram.dot -o diagram.svg``.  Self
        loops (all labelled ``[D]``) are omitted by default, matching how
        the paper draws Figure 3-1.
        """
        lines = ["graph isomorphism {", "  node [shape=circle];"]
        for first, second, label in self.edge_list():
            if first == second and not include_self_loops:
                continue
            rendered = format_process_set(label)
            lines.append(f'  "{first}" -- "{second}" [label="{rendered}"];')
        lines.append("}")
        return "\n".join(lines)

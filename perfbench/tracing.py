"""In-memory timing spans recorded from the benchmark's own files.

A span is ``[name, kind, start, end, parent]`` with ``parent`` the index
of the enclosing span (``None`` at top level).  Kinds:

``phase``
    A step of the user path: ``setup``, ``build``, ``answer.<name>``.
    Phase spans are always recorded — they are the end-to-end timings.
``layer``
    A call into one layer's public function, recorded only while
    :meth:`Tracer.instrument` has wrapped that function.
``observe``
    The benchmark's own output checks and measurement-only passes.  They
    are not user time, so iteration totals exclude them.

Spans stay in memory; the workload process returns them with its
report and ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder plus the function wrappers of a traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, kind: str = "phase"):
        parent = self._open[-1] if self._open else None
        record = [name, kind, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Record a ``layer`` span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, "layer"):
                return original(*args, **kwargs)

        self._patch(owner, attribute, original, traced)

    def count(self, owner: object, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` without a span (hot paths)."""
        original = getattr(owner, attribute)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attribute, original, counted)

    def _patch(self, owner, attribute, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    @contextmanager
    def instrument(self):
        """Wrap the layers' public functions for the duration of the block."""
        from repro.isomorphism import algebra
        from repro.universe.checkpoint import CheckpointSession
        from repro.universe.explorer import PartitionTable, Universe

        for prop in ALGEBRA_PROPERTIES:
            self.wrap(algebra, f"check_{prop}", f"isomorphism.{prop}")
        self.wrap(Universe, "refinement_product", "isomorphism.refinement")
        self.count(PartitionTable, "contained_classes_mask", "knowledge.contained_calls")
        self.count(CheckpointSession, "save", "checkpoint.saves")
        try:
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reductions over recorded spans
    # ------------------------------------------------------------------
    @staticmethod
    def duration(record: list) -> float:
        return record[3] - record[2]

    def total(self, first: int, name: str, parent_name: str | None = None) -> float:
        """Summed duration of spans named ``name`` recorded since index
        ``first``: only outermost ones (no ancestor of the same name), or
        only direct children of a ``parent_name`` span when given."""
        spans = self.spans
        seconds = 0.0
        for record in spans[first:]:
            if record[0] != name:
                continue
            parent = record[4]
            if parent_name is not None:
                if parent is None or spans[parent][0] != parent_name:
                    continue
            elif self._has_ancestor(record, name):
                continue
            seconds += self.duration(record)
        return seconds

    def _has_ancestor(self, record: list, name: str) -> bool:
        parent = record[4]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False


ALGEBRA_PROPERTIES = (
    "equivalence",
    "substitution",
    "idempotence",
    "reflexivity",
    "inversion",
    "concatenation",
    "union",
    "containment",
    "extensionality",
    "absorption",
)
"""The ten §3 property checkers of :mod:`repro.isomorphism.algebra`."""

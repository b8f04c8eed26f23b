"""Consistent cuts and the cut lattice.

A *consistent cut* of a computation is a causally downward-closed set of
its events — equivalently a configuration whose per-process histories are
prefixes of the computation's and whose receives all have their sends.
Consistent cuts ordered by sub-configuration form a distributive lattice
(meet = pointwise shorter prefixes, join = pointwise longer ones); the
paper's prefix order on computations embeds into it, and global-state
algorithms (the snapshot of :mod:`repro.protocols.snapshot`) compute
elements of it.

This module provides enumeration (one forward search, which also closes
every :class:`~repro.universe.explorer.EnumeratedUniverse` under cuts),
membership, meet/join, and the frontier ("cut vector") representation
used by the analysis code.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping

from repro.core.computation import Computation
from repro.core.configuration import Configuration
from repro.core.errors import InvalidConfigurationError
from repro.core.events import Message, ReceiveEvent, SendEvent
from repro.core.process import ProcessId

CutVector = Mapping[ProcessId, int]
"""A cut as per-process history lengths."""


def cut_vector(
    configuration: Configuration, processes: tuple[ProcessId, ...]
) -> dict[ProcessId, int]:
    """The frontier of a configuration relative to a process tuple."""
    return {process: len(configuration.history(process)) for process in processes}


def cut_of_vector(
    base: Configuration, vector: CutVector
) -> Configuration:
    """The sub-configuration of ``base`` with the given history lengths."""
    return Configuration(
        {
            process: base.history(process)[: vector.get(process, 0)]
            for process in base.processes
        }
    )


def is_consistent_cut(base: Configuration, candidate: Configuration) -> bool:
    """Is ``candidate`` a consistent cut of ``base``?

    Requires per-process prefixes and a linearization, which gives
    message closure (every receive in the cut has its send in the cut)
    and rules out a causal cycle, which closure alone would admit.
    Agrees with :func:`consistent_cuts` on every sub-configuration.
    """
    if not candidate.is_sub_configuration_of(base):
        return False
    try:
        candidate.linearize()
    except InvalidConfigurationError:
        return False
    return True


def consistent_cuts(base: Configuration) -> Iterator[Configuration]:
    """Every consistent cut of ``base``, in breadth-first order from the
    empty cut over one-event extensions (a receive only once its message
    is sent in the cut), so the product of prefix lengths is never built.

    The search never enters a causal cycle (``p: recv m2, send m1`` beside
    ``q: recv m1, send m2`` has only the empty cut), so ``base`` is the
    last cut exactly when it has a linearization.
    """
    processes = sorted(base.processes)
    histories = [base.history(process) for process in processes]
    start = (0,) * len(processes)
    sent_at: dict[tuple[int, ...], frozenset[Message]] = {start: frozenset()}
    queue: deque[tuple[int, ...]] = deque([start])
    while queue:
        cut = queue.popleft()
        yield Configuration(
            {
                process: histories[position][: cut[position]]
                for position, process in enumerate(processes)
                if cut[position]
            }
        )
        sent = sent_at[cut]
        for position, history in enumerate(histories):
            length = cut[position]
            if length >= len(history):
                continue
            event = history[length]
            if isinstance(event, ReceiveEvent) and event.message not in sent:
                continue
            extended = cut[:position] + (length + 1,) + cut[position + 1 :]
            if extended in sent_at:
                continue
            sent_at[extended] = (
                sent | {event.message} if isinstance(event, SendEvent) else sent
            )
            queue.append(extended)


def count_consistent_cuts(base: Configuration) -> int:
    """The size of the cut lattice (number of reachable global states)."""
    return sum(1 for _ in consistent_cuts(base))


def cut_meet(base: Configuration, first: Configuration, second: Configuration) -> Configuration:
    """Lattice meet: the pointwise-shorter cut (intersection of pasts)."""
    processes = sorted(base.processes)
    return Configuration(
        {
            process: base.history(process)[
                : min(len(first.history(process)), len(second.history(process)))
            ]
            for process in processes
        }
    )


def cut_join(base: Configuration, first: Configuration, second: Configuration) -> Configuration:
    """Lattice join: the pointwise-longer cut (union of pasts)."""
    processes = sorted(base.processes)
    return Configuration(
        {
            process: base.history(process)[
                : max(len(first.history(process)), len(second.history(process)))
            ]
            for process in processes
        }
    )


def cuts_of_computation(computation: Computation) -> Iterator[Configuration]:
    """Consistent cuts of a linear computation (via its configuration)."""
    yield from consistent_cuts(Configuration.from_computation(computation))


def is_lattice_closed(base: Configuration) -> bool:
    """Verify meet/join closure of the consistent-cut family of ``base``.

    Used by tests: consistent cuts are closed under pointwise min and max
    (the classical lattice property of consistent global states).
    Quadratic in the number of cuts.
    """
    cuts = list(consistent_cuts(base))
    members = set(cuts)
    for first in cuts:
        for second in cuts:
            if cut_meet(base, first, second) not in members:
                return False
            if cut_join(base, first, second) not in members:
                return False
    return True

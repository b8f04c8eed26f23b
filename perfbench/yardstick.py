"""Host-speed yardstick: a fixed piece of interpreter work, timed beside
every sample the benchmark takes.

The machines this benchmark is run on share their cores with other work,
and their speed drifts: the same build takes up to 1.9x longer for
minutes at a time, and the yardstick slows with it.  So every time the
benchmark reports is scaled to a reference speed,

    scaled = seconds * REFERENCE_S / yardstick time next to the sample,

i.e. the seconds the sample would take on a host where the yardstick
takes ``REFERENCE_S``.  The host's speed changes within seconds, so the
yardstick is short and runs right before and right after each timed
phase; the sample uses the mean of those two passes.  The yardstick is the benchmark's own code and
never calls ``repro``, so a change to ``repro`` moves the scaled times
exactly as it moves the raw ones, while a change of host speed mostly
cancels.  Its work resembles the explorer's: a breadth-first search that
builds tuples and dedups them in a growing dict.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.05
"""Yardstick time of the reference host, in seconds: about its median
on the 2-vCPU machine the benchmark was defined on."""

_WIDTH = 6
_LIMIT = 4


def _search() -> int:
    start = (0,) * _WIDTH
    seen = {start: 0}
    frontier = [start]
    while frontier:
        layer = []
        for state in frontier:
            for index in range(_WIDTH):
                if state[index] < _LIMIT:
                    child = state[:index] + (state[index] + 1,) + state[index + 1:]
                    if child not in seen:
                        seen[child] = len(seen)
                        layer.append(child)
        frontier = layer
    return len(seen)


def measure() -> tuple[float, float]:
    """One yardstick pass from a settled heap: ``(end, seconds)``, its
    ``time.perf_counter()`` at the end and its wall time."""
    gc.collect()
    start = time.perf_counter()
    _search()
    end = time.perf_counter()
    return end, end - start


def scale(seconds: float, yardstick_s: float) -> float:
    """``seconds`` expressed at the reference host's speed."""
    return seconds * REFERENCE_S / yardstick_s

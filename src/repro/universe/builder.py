"""Hand-built computation families from the paper's worked examples.

The centrepiece is :func:`figure_3_1_computations`, reproducing the four
computations ``x, y, z, w`` of Example 1 / Figure 3-1: a two-process
system in which

* ``x [p] y`` but not ``x [q] y``;
* ``x [D] z`` with ``x != z`` (one is a permutation of the other);
* ``z [q] w`` but neither ``y [p] w`` nor ``y [q] w``;
* hence ``y [p q] w`` holds only *indirectly*, via ``z``.
"""

from __future__ import annotations

from repro.core.computation import Computation, computation_of
from repro.core.configuration import Configuration
from repro.core.events import internal
from repro.universe.explorer import EnumeratedUniverse


def figure_3_1_computations() -> dict[str, Computation]:
    """The four computations of Example 1, keyed ``x, y, z, w``.

    Built from internal events of processes ``p`` and ``q``:

    * ``x = <a_p, b_q>``  and  ``z = <b_q, a_p>`` — permutations, so
      ``x [{p,q}] z``;
    * ``y = <a_p, c_q>`` — agrees with ``x`` on ``p`` only;
    * ``w = <d_p, b_q>`` — agrees with ``z`` (and ``x``) on ``q`` only.
    """
    a_p = internal("p", tag="a")
    d_p = internal("p", tag="d")
    b_q = internal("q", tag="b")
    c_q = internal("q", tag="c")
    return {
        "x": computation_of(a_p, b_q),
        "y": computation_of(a_p, c_q),
        "z": computation_of(b_q, a_p),
        "w": computation_of(d_p, b_q),
    }


def figure_3_1_universe() -> EnumeratedUniverse:
    """An enumerated universe containing Figure 3-1's computations
    (prefix-closed, as the model requires)."""
    computations = figure_3_1_computations()
    return EnumeratedUniverse(
        Configuration.from_computation(computation)
        for computation in computations.values()
    )


def configuration_from_events(*events) -> Configuration:
    """Configuration of the computation consisting of ``events`` in order."""
    return Configuration.from_computation(computation_of(*events))


"""§5(c) termination-detection lower bound, measured (E12)."""

import pytest

from repro.applications.termination_bounds import (
    detector_ambiguity,
    overhead_table,
    run_dijkstra_scholten,
    run_polling_detector,
    spontaneous_overhead_after_termination,
)
from repro.protocols.polling_detector import PollingDetectorProtocol
from repro.protocols.termination import (
    Activation,
    TerminationWorkload,
    generate_workload,
)
from repro.simulation.scheduler import RandomScheduler
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits


class TestDetectionRuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_ds_meets_the_bound_exactly(self, seed):
        workload = generate_workload(("a", "b", "c", "d"), seed=seed)
        run, _ = run_dijkstra_scholten(workload, RandomScheduler(seed))
        assert run.detected
        assert run.overhead_messages == run.underlying_messages
        assert run.meets_lower_bound

    @pytest.mark.parametrize("seed", range(4))
    def test_polling_exceeds_the_bound(self, seed):
        workload = generate_workload(("a", "b", "c"), seed=seed)
        run, _ = run_polling_detector(workload, RandomScheduler(seed))
        assert run.detected
        assert run.overhead_messages >= 2 * 2 * 3  # two waves minimum

    def test_detection_after_termination(self):
        workload = generate_workload(("a", "b", "c"), seed=5)
        run, _ = run_dijkstra_scholten(workload, RandomScheduler(5))
        assert run.termination_index is not None
        assert run.detection_index is not None
        assert run.detection_index >= run.termination_index


class TestPaperArgumentStep1:
    def test_spontaneous_overhead_in_the_constructed_scenario(self):
        """The paper's step-1 scenario, realised: termination occurs with
        no overhead in flight, so the worker's acknowledgement is sent
        after termination, spontaneously."""
        from repro.applications.termination_bounds import spontaneous_ds_workload

        workload = spontaneous_ds_workload()
        run, trace = run_dijkstra_scholten(workload, RandomScheduler(0))
        assert run.detected
        assert run.termination_index is not None
        assert run.detection_index > run.termination_index
        assert (
            spontaneous_overhead_after_termination(trace, run.termination_index)
            >= 1
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_external_detector_receives_before_detecting(self, seed):
        """Theorem 5's receive corollary: the polling detector — for whom
        'terminated' is local to the complement — must receive a message
        between termination and its announcement."""
        from repro.applications.termination_bounds import (
            detector_receives_before_detection,
        )

        workload = generate_workload(("a", "b", "c"), seed=seed)
        run, trace = run_polling_detector(workload, RandomScheduler(seed))
        assert run.termination_index is not None
        assert run.detection_index is not None
        assert detector_receives_before_detection(
            trace, "detector", run.termination_index, run.detection_index
        )


class TestPaperArgumentStep2:
    def test_detector_cannot_distinguish_running_from_terminated(self):
        """Every (or nearly every) non-terminated configuration is
        isomorphic w.r.t. the detector to a terminated one — so a detector
        that never probes before termination cannot exist."""
        workload = TerminationWorkload(
            processes=("a", "b"),
            root="a",
            plans={"a": (Activation(("b",)),)},
        )
        protocol = PollingDetectorProtocol(workload, max_waves=1)
        universe = Universe(
            protocol,
            options=ExplorationOptions(limits=Limits(max_configurations=2_000_000)),
        )
        result = detector_ambiguity(universe)
        assert result["not_terminated"] > 0
        assert result["ambiguous"] == result["not_terminated"]

    def test_ambiguity_requires_polling_universe(self, pingpong_universe):
        with pytest.raises(TypeError):
            detector_ambiguity(pingpong_universe)


class TestOverheadTable:
    @pytest.mark.parametrize("processes", [3, 4, 5, 6])
    def test_table_shape_and_bound(self, processes):
        rows = overhead_table(process_counts=(processes,), seeds=(0, 1))
        assert [(row.processes, row.seed) for row in rows] == [
            (processes, 0),
            (processes, 1),
        ]
        for row in rows:
            assert row.ds_overhead == row.underlying
            assert row.ds_meets_bound
            assert row.polling_overhead > 0
            assert len(row.as_tuple()) == 6

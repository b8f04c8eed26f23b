"""§5(b) failure detection impossibility / timeout detection (E11)."""

import pytest

from repro.applications.failure_detection import analyse_async, analyse_sync
from repro.protocols.failure_monitor import (
    AsyncFailureMonitorProtocol,
    SyncFailureMonitorProtocol,
)
from repro.universe.explorer import Universe


@pytest.fixture(scope="module")
def async_universe():
    return Universe(AsyncFailureMonitorProtocol(heartbeats=2))


@pytest.fixture(scope="module")
def sync_universe():
    return Universe(SyncFailureMonitorProtocol(rounds=2))


class TestAsyncImpossibility:
    def test_impossibility_holds(self, async_universe):
        report = analyse_async(async_universe)
        assert report.impossibility_holds
        assert report.monitor_never_sure
        assert report.crash_configurations > 0

    def test_hypotheses_of_the_paper_argument(self, async_universe):
        """The §5(b) proof rests on crash being local to the worker."""
        report = analyse_async(async_universe)
        assert report.crash_local_to_worker

    @pytest.mark.parametrize("heartbeats", [0, 1, 3, 4])
    def test_more_heartbeats_do_not_help(self, heartbeats):
        universe = Universe(AsyncFailureMonitorProtocol(heartbeats=heartbeats))
        report = analyse_async(universe)
        assert report.impossibility_holds

    def test_wrong_universe_rejected(self, pingpong_universe):
        with pytest.raises(TypeError):
            analyse_async(pingpong_universe)


class TestSyncDetection:
    def test_detection_possible_and_sound(self, sync_universe):
        report = analyse_sync(sync_universe)
        assert report.detection_possible
        assert report.detection_sound
        assert 0 < report.detection_configurations < report.universe_size

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_other_round_budgets_detect_soundly(self, rounds):
        """One round suffices, and more rounds stay sound."""
        universe = Universe(SyncFailureMonitorProtocol(rounds=rounds))
        report = analyse_sync(universe)
        assert report.detection_possible
        assert report.detection_sound

    def test_wrong_universe_rejected(self, pingpong_universe):
        with pytest.raises(TypeError):
            analyse_sync(pingpong_universe)

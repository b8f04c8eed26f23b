"""§5(a) tracking impossibility (experiment E10)."""

import pytest

from repro.applications.tracking import (
    TrackingReport,
    analyse_tracking,
    tracking_error_window,
)
from repro.isomorphism.reference import extension_event
from repro.knowledge.evaluator import KnowledgeEvaluator
from repro.knowledge.formula import Knows, Sure, unsure
from repro.protocols.toggle import ToggleProtocol, bit_atom
from repro.universe.explorer import Universe


def tracking_by_definition(universe: Universe) -> TrackingReport:
    """The §5(a) analysis on objects: every stored successor of every
    configuration, its event named from the two ends, and membership in
    the knowledge extensions as configuration sets."""
    protocol = universe.protocol
    evaluator = KnowledgeEvaluator(universe)
    bit = bit_atom(protocol)
    observer = frozenset((protocol.observer,))
    bit_extension = evaluator.extension(bit)
    observer_sure = evaluator.extension(Sure(observer, bit))
    owner_knows_unsure = evaluator.extension(
        Knows(frozenset((protocol.owner,)), unsure(observer, bit))
    )
    flips = 0
    unsure_at_flip = owner_knows = True
    for x in universe:
        for extended in universe.successors(x):
            assert extension_event(x, extended) is not None
            if (x in bit_extension) == (extended in bit_extension):
                continue
            flips += 1
            unsure_at_flip &= x not in observer_sure
            owner_knows &= x in owner_knows_unsure
    return TrackingReport(
        flip_transitions=flips,
        observer_unsure_at_every_flip=unsure_at_flip,
        owner_knows_observer_unsure=owner_knows,
        observer_ever_sure=len(observer_sure) > 0,
        observer_always_sure=len(observer_sure) == len(universe),
    )


class TestTrackingImpossibility:
    def test_observer_unsure_at_every_flip(self, toggle_universe, toggle_evaluator):
        report = analyse_tracking(toggle_universe, evaluator=toggle_evaluator)
        assert report.flip_transitions > 0
        assert report.observer_unsure_at_every_flip

    def test_owner_knows_observer_unsure(self, toggle_universe, toggle_evaluator):
        """The paper's necessary condition for changing a local predicate:
        the owner knows the observer is unsure at the point of change."""
        report = analyse_tracking(toggle_universe, evaluator=toggle_evaluator)
        assert report.owner_knows_observer_unsure

    def test_tracking_is_impossible(self, toggle_universe, toggle_evaluator):
        report = analyse_tracking(toggle_universe, evaluator=toggle_evaluator)
        assert report.tracking_impossible
        # ... although the observer IS sure somewhere (e.g. after the last
        # possible flip was reported), so the claim is not vacuous:
        assert report.observer_ever_sure

    @pytest.mark.parametrize("report", [True, False])
    @pytest.mark.parametrize("max_flips", [1, 2, 3])
    def test_matches_the_object_walk(self, max_flips, report):
        """Flips read from edges_on and extension masks equal the walk over
        successors and configuration sets."""
        universe = Universe(ToggleProtocol(max_flips=max_flips, report=report))
        result = analyse_tracking(universe)
        assert result.flip_transitions > 0
        assert result == tracking_by_definition(universe)

    def test_reportless_owner_keeps_observer_forever_unsure(self):
        universe = Universe(ToggleProtocol(max_flips=2, report=False))
        report = analyse_tracking(universe)
        assert report.observer_unsure_at_every_flip
        assert not report.observer_ever_sure

    def test_window_shape(self, toggle_universe, toggle_evaluator):
        """Early configurations: unsure; the fraction recovers only once
        all flips are over and reported."""
        window = tracking_error_window(toggle_universe, evaluator=toggle_evaluator)
        sizes = sorted(window)
        # Somewhere the observer is unsure:
        assert any(sure < total for sure, total in window.values())
        # At the maximal configurations everything has been reported:
        final_sure, final_total = window[sizes[-1]]
        assert final_sure == final_total

    def test_wrong_universe_rejected(self, pingpong_universe):
        with pytest.raises(TypeError):
            analyse_tracking(pingpong_universe)
        with pytest.raises(TypeError):
            tracking_error_window(pingpong_universe)

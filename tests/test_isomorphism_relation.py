"""Unit tests for [P] and composed relations (§3), incl. Example 1."""

from repro.core.configuration import Configuration
from repro.isomorphism.reference import composed_class_reference
from repro.isomorphism.relation import (
    agreement_set,
    composed_class,
    composed_frontier,
    composed_frontiers,
    composed_isomorphic,
    find_composition_witness,
    isomorphic,
)
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.builder import figure_3_1_computations, figure_3_1_universe
from repro.universe.explorer import Universe


class TestDirectRelation:
    def test_figure_3_1_direct_relations(self):
        comps = figure_3_1_computations()
        assert isomorphic(comps["x"], comps["y"], "p")
        assert not isomorphic(comps["x"], comps["y"], "q")
        assert isomorphic(comps["x"], comps["z"], {"p", "q"})
        assert isomorphic(comps["z"], comps["w"], "q")
        assert not isomorphic(comps["y"], comps["w"], "p")
        assert not isomorphic(comps["y"], comps["w"], "q")

    def test_empty_set_relates_everything(self):
        comps = figure_3_1_computations()
        assert isomorphic(comps["y"], comps["w"], frozenset())

    def test_d_relation_means_permutation(self):
        comps = figure_3_1_computations()
        assert comps["x"] != comps["z"]
        assert comps["x"].is_permutation_of(comps["z"])

    def test_mixed_computation_and_configuration(self):
        comps = figure_3_1_computations()
        config = Configuration.from_computation(comps["x"])
        assert isomorphic(config, comps["z"], {"p", "q"})

    def test_agreement_set(self):
        comps = figure_3_1_computations()
        assert agreement_set(comps["x"], comps["y"]) == {"p"}
        assert agreement_set(comps["x"], comps["z"]) == {"p", "q"}
        assert agreement_set(comps["y"], comps["w"]) == frozenset()


class TestComposedRelation:
    def test_example_1_indirect_relationship(self):
        """y [p q] w via z, and w [q p] y by inversion."""
        universe = figure_3_1_universe()
        comps = figure_3_1_computations()
        y = Configuration.from_computation(comps["y"])
        w = Configuration.from_computation(comps["w"])
        z = Configuration.from_computation(comps["z"])
        assert composed_isomorphic(universe, y, ["p", "q"], w)
        assert composed_isomorphic(universe, w, ["q", "p"], y)
        assert composed_isomorphic(universe, y, ["q", "p"], z)
        assert composed_isomorphic(universe, y, ["q", "p", "q"], z)

    def test_empty_sequence_is_identity(self):
        universe = figure_3_1_universe()
        comps = figure_3_1_computations()
        x = Configuration.from_computation(comps["x"])
        y = Configuration.from_computation(comps["y"])
        assert composed_isomorphic(universe, x, [], x)
        assert not composed_isomorphic(universe, x, [], y)

    def test_composed_class_contains_iso_class(self, pingpong_universe):
        for configuration in pingpong_universe:
            direct = set(pingpong_universe.iso_class(configuration, {"p"}))
            composed = composed_class(pingpong_universe, configuration, [{"p"}])
            assert direct == set(composed)

    def test_witness_chains_through_intermediates(self):
        universe = figure_3_1_universe()
        comps = figure_3_1_computations()
        y = Configuration.from_computation(comps["y"])
        w = Configuration.from_computation(comps["w"])
        witness = find_composition_witness(universe, y, ["p", "q"], w)
        assert witness is not None
        assert witness[0] == y and witness[-1] == w
        assert isomorphic(witness[0], witness[1], "p")
        assert isomorphic(witness[1], witness[2], "q")

    def test_witness_none_when_unrelated(self):
        universe = figure_3_1_universe()
        comps = figure_3_1_computations()
        y = Configuration.from_computation(comps["y"])
        w = Configuration.from_computation(comps["w"])
        assert find_composition_witness(universe, y, ["q"], w) is None


class TestComposedFrontier:
    def test_one_query_folds_one_class(self, fold_calls):
        """A query folds the frontier of ``x``'s ``[P1]``-class alone, once:
        a second query from the same class folds nothing."""
        universe = Universe(TokenBusProtocol(max_hops=3))
        stations = sorted(universe.processes)
        sets = [{stations[0]}, {stations[1]}, {stations[2]}]
        x = max(universe, key=len)
        composed_isomorphic(universe, x, sets, x)
        assert fold_calls[0] == 1
        for y in universe.iso_class(x, sets[0]):
            composed_isomorphic(universe, y, sets, x)
        assert fold_calls[0] == 1

    def test_frontiers_are_the_per_class_images(self, toggle_universe):
        """Each class's frontier, as configurations, is the composed class
        of any member, recomputed by the object-level oracle."""
        universe = toggle_universe
        stations = sorted(universe.processes)
        sets = [{stations[0]}, {stations[1]}, {stations[0]}]
        base = universe.partition_table(sets[0])
        final = universe.partition_table(sets[-1])
        frontiers = composed_frontiers(universe, sets)
        assert len(frontiers) == base.num_classes
        for index, members in enumerate(base.members):
            assert composed_frontier(universe, sets, index) == frontiers[index]
            image = final.classes_mask(frontiers[index])
            x = universe.configuration_of_id(members[-1])
            assert set(universe.configurations_in_mask(image)) == set(
                composed_class_reference(universe, x, sets)
            )

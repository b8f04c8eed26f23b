"""Unit tests for the isomorphism diagram (Figure 3-1)."""

from repro.core.configuration import Configuration
from repro.isomorphism.diagram import IsomorphismDiagram
from repro.universe.builder import figure_3_1_computations, figure_3_1_universe


# Figure 3-1's diagram, byte for byte: the edge set, the labels and the
# line order are all part of the rendering contract.
FIGURE_3_1_RENDER = """\
w --[{p,q}]-- w  (self loop)
w --[{q}]-- x
w --[{q}]-- z
x --[{p,q}]-- x  (self loop)
x --[{p}]-- y
x --[{p,q}]-- z
y --[{p,q}]-- y  (self loop)
y --[{p}]-- z
z --[{p,q}]-- z  (self loop)"""

FIGURE_3_1_DOT = """\
graph isomorphism {
  node [shape=circle];
  "w" -- "w" [label="{p,q}"];
  "w" -- "x" [label="{q}"];
  "w" -- "z" [label="{q}"];
  "x" -- "x" [label="{p,q}"];
  "x" -- "y" [label="{p}"];
  "x" -- "z" [label="{p,q}"];
  "y" -- "y" [label="{p,q}"];
  "y" -- "z" [label="{p}"];
  "z" -- "z" [label="{p,q}"];
}"""


def figure_diagram() -> tuple[IsomorphismDiagram, dict]:
    comps = figure_3_1_computations()
    diagram = IsomorphismDiagram(
        comps.values(), {"p", "q"}, names={k: v for k, v in comps.items()}
    )
    return diagram, comps


class TestFigure31:
    def test_vertices(self):
        diagram, comps = figure_diagram()
        assert len(diagram.vertices) == 4

    def test_self_loops_carry_d(self):
        diagram, comps = figure_diagram()
        assert diagram.label(comps["x"], comps["x"]) == {"p", "q"}

    def test_permutations_joined_by_d_edge(self):
        diagram, comps = figure_diagram()
        assert diagram.label(comps["x"], comps["z"]) == {"p", "q"}

    def test_x_y_edge_is_p(self):
        diagram, comps = figure_diagram()
        assert diagram.label(comps["x"], comps["y"]) == {"p"}

    def test_z_w_edge_is_q(self):
        diagram, comps = figure_diagram()
        assert diagram.label(comps["z"], comps["w"]) == {"q"}

    def test_y_w_have_no_edge(self):
        diagram, comps = figure_diagram()
        assert diagram.label(comps["y"], comps["w"]) is None

    def test_related_reads_labels(self):
        diagram, comps = figure_diagram()
        assert diagram.related(comps["x"], comps["y"], "p")
        assert not diagram.related(comps["x"], comps["y"], "q")

    def test_indirect_path_y_to_w(self):
        """The paper's indirect relationship: y [p q] w via z (or x)."""
        diagram, comps = figure_diagram()
        assert diagram.has_labelled_path(comps["y"], ["p", "q"], comps["w"])
        assert not diagram.has_labelled_path(comps["y"], ["q"], comps["w"])

    def test_render_contains_all_edges(self):
        diagram, comps = figure_diagram()
        text = diagram.render()
        assert "x --[{p}]-- y" in text
        assert "x --[{p,q}]-- z" in text
        assert "(self loop)" in text

    def test_name_assignment(self):
        diagram, comps = figure_diagram()
        assert diagram.name_of(comps["x"]) == "x"

    def test_render_golden(self):
        diagram, comps = figure_diagram()
        assert diagram.render() == FIGURE_3_1_RENDER

    def test_dot_golden(self):
        diagram, comps = figure_diagram()
        assert diagram.to_dot(include_self_loops=True) == FIGURE_3_1_DOT
        assert diagram.to_dot() == "\n".join(
            line for line in FIGURE_3_1_DOT.splitlines()
            if not line.startswith(('  "w" -- "w"', '  "x" -- "x"',
                                    '  "y" -- "y"', '  "z" -- "z"'))
        )

    def test_label_is_symmetric(self):
        """Queried in both orders, including against insertion order."""
        diagram, comps = figure_diagram()
        for first in comps.values():
            for second in comps.values():
                assert diagram.label(first, second) == diagram.label(second, first)
        assert diagram.label(comps["y"], comps["x"]) == {"p"}
        assert diagram.label(comps["w"], comps["z"]) == {"q"}
        assert diagram.label(comps["w"], comps["y"]) is None


class TestUniverseDiagram:
    def test_of_universe(self, pingpong_universe):
        diagram = IsomorphismDiagram.of_universe(pingpong_universe)
        assert len(diagram.vertices) == len(pingpong_universe)

    def test_edges_are_the_nonempty_largest_labels(self, pingpong_universe):
        diagram = IsomorphismDiagram.of_universe(pingpong_universe)
        vertices = diagram.vertices
        for first in vertices:
            for second in vertices:
                label = diagram.label(first, second)
                assert label == diagram.label(second, first)
                largest = diagram.largest_label(first, second)
                assert label == (largest or None)
        assert len(diagram.edge_list()) == sum(
            1
            for index, first in enumerate(vertices)
            for second in vertices[index:]
            if diagram.label(first, second) is not None
        )

    def test_labels_agree_with_iso_classes(self, pingpong_universe):
        diagram = IsomorphismDiagram.of_universe(pingpong_universe)
        for x in pingpong_universe:
            for y in pingpong_universe.iso_class(x, {"p"}):
                assert diagram.related(x, y, {"p"})

    def test_configuration_vertices_collapse_permutations(self):
        comps = figure_3_1_computations()
        configs = [Configuration.from_computation(c) for c in comps.values()]
        diagram = IsomorphismDiagram(configs, {"p", "q"})
        # x and z are the same configuration: only 3 vertices remain.
        assert len(diagram.vertices) == 3

    def test_enumerated_universe_is_prefix_closed(self):
        universe = figure_3_1_universe()
        for configuration in universe:
            assert len(configuration) <= 2
        # null + four one-event cuts + three distinct [D]-classes (x == z).
        assert len(universe) == 8

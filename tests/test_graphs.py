from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhom.errors import ValidationError
from graphhom.graphs import (
    WeightedGraph,
    all_pairs_distances,
    box_product,
    complete_graph,
    cycle_graph,
    greene_sphere,
    grid_graph,
    hypercube,
    line_graph,
)

from conftest import random_graph
from oracles import GraphMap, connected_components, eccentricity, is_graph_map, threshold_subgraph


class TestConstructions:
    def test_line_graph_i3(self):
        g = line_graph(3)
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_line_graph_zero(self):
        g = line_graph(0)
        assert g.vertex_count == 1
        assert g.edges == ()

    def test_line_graph_degrees(self):
        g = line_graph(5)
        assert g.vertex_count == 6
        assert g.edge_count == 5
        degrees = [len(g.neighbors(v)) for v in range(6)]
        assert degrees == [1, 2, 2, 2, 2, 1]

    def test_cycle_graph_pentagon(self):
        g = cycle_graph(5)
        assert g.vertex_count == 5
        assert g.edge_count == 5

    def test_cycle_graph_triangle_and_square(self):
        assert cycle_graph(3).edge_count == 3
        square = cycle_graph(4)
        assert all(len(square.neighbors(v)) == 2 for v in range(4))

    def test_cycle_graph_rejects_small(self):
        with pytest.raises(ValidationError):
            cycle_graph(2)

    def test_box_product_square(self):
        g = box_product(line_graph(1), line_graph(1))
        assert g.vertex_count == 4
        assert g.edge_count == 4
        assert all(len(g.neighbors(v)) == 2 for v in range(4))

    def test_box_product_with_point(self):
        g = cycle_graph(5)
        point = WeightedGraph(1, ())
        assert box_product(g, point).edges == g.edges

    def test_box_product_cube(self):
        g = box_product(box_product(line_graph(1), line_graph(1)), line_graph(1))
        assert g.vertex_count == 8
        assert g.edge_count == 12

    def test_hypercube_square(self):
        assert hypercube(2).edge_count == 4

    def test_hypercube_point(self):
        assert hypercube(0).vertex_count == 1

    def test_hypercube_three(self):
        assert hypercube(3).edge_count == 12

    def test_hypercube_equals_box_power(self):
        g = line_graph(1)
        power = g
        for _ in range(2):
            power = box_product(power, g)
        assert power.edges == hypercube(3).edges

    def test_no_self_loops(self):
        with pytest.raises(ValidationError):
            WeightedGraph(2, ((0, 0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph(3, ((0, 1), (1, 0)))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1), (0, 2), (1, 0)), r"duplicate edge \(0, 1\)"),
            (((0, 1), (1, 3)), r"edge \(1, 3\) out of range for 3 vertices"),
            (((-1, 2),), r"edge \(-1, 2\) out of range for 3 vertices"),
            (((0, 1), (2, 2)), r"self-loop \(2,2\)"),
        ],
    )
    def test_invalid_edges_rejected(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            WeightedGraph(3, edges)

    def test_unsorted_input_permutes_weights_with_edges(self):
        g = WeightedGraph(4, ((3, 2), (2, 0), (1, 0), (3, 1)), (4, 3.0, 1.5, 0.25))
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert g.weights == (1.5, 3.0, 0.25, 4.0)
        assert all(type(w) is float for w in g.weights)
        assert g.weight_of(2, 3) == 4.0

    def test_greene_sphere_shape(self):
        g = greene_sphere()
        assert g.vertex_count == 10
        assert g.edge_count == 16


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 4000))
def test_box_product_commutative(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=5, weighted=False)
    h = random_graph(rng, max_vertices=5, weighted=False)
    gh = box_product(g, h)
    hg = box_product(h, g)
    hn = h.vertex_count
    gn = g.vertex_count
    remap = {
        (v * hn + w): (w * gn + v) for v in range(gn) for w in range(hn)
    }
    remapped = {tuple(sorted((remap[u], remap[v]))) for u, v in gh.edges}
    assert remapped == set(hg.edges)


def test_box_product_associative():
    rng = random.Random(5)
    a = random_graph(rng, max_vertices=4, weighted=False)
    b = random_graph(rng, max_vertices=4, weighted=False)
    c = random_graph(rng, max_vertices=4, weighted=False)
    left = box_product(box_product(a, b), c)
    right = box_product(a, box_product(b, c))
    # (v*bn + w)*cn + x on the left vs v*(bn*cn) + (w*cn + x) on the right
    assert left.edges == right.edges


class TestGraphMap:
    def test_constant_map_is_valid(self):
        f = GraphMap(line_graph(3), cycle_graph(5), (2, 2, 2, 2))
        assert is_graph_map(f)

    def test_edge_to_nonadjacent_pair_invalid(self):
        f = GraphMap(line_graph(1), cycle_graph(5), (0, 2))
        assert not is_graph_map(f)

    def test_identity_on_cycle(self):
        g = cycle_graph(5)
        assert is_graph_map(GraphMap(g, g, tuple(range(5))))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            is_graph_map(GraphMap(line_graph(1), cycle_graph(5), (0, 7)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            is_graph_map(GraphMap(line_graph(2), cycle_graph(5), (0, 1)))


class TestDistances:
    def test_path_distance(self):
        d = all_pairs_distances(line_graph(3))
        assert d[0, 3] == 3.0

    def test_zero_diagonal(self):
        g = random_graph(random.Random(1), max_vertices=6)
        d = all_pairs_distances(g)
        assert np.all(np.diag(d) == 0.0)

    def test_reweighted_grid_shortcut(self):
        g = grid_graph(2, 2).with_uniform_weights(1.0).reweight_edges({(0, 1): 5.0})
        d = all_pairs_distances(g)
        # around: 0-2-3-1 of length 3 beats the direct 5-weight edge
        assert d[0, 1] == 3.0

    def test_disconnected_is_infinite(self):
        g = WeightedGraph(3, ((0, 1),))
        d = all_pairs_distances(g)
        assert math.isinf(d[0, 2])

    def test_triangle_inequality_random(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, max_vertices=7)
            d = all_pairs_distances(g)
            n = g.vertex_count
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert d[u, w] <= d[u, v] + d[v, w] + 1e-12

    def test_eccentricity_center_of_path(self):
        assert eccentricity(line_graph(2), 1) == 1.0

    def test_eccentricity_grid_corner(self):
        g = grid_graph(9, 9)
        assert eccentricity(g, 0) == 16.0

    def test_eccentricity_cycle(self):
        assert eccentricity(cycle_graph(5), 3) == 2.0

    def test_eccentricity_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            eccentricity(WeightedGraph(3, ((0, 1),)), 0)


def test_connected_components():
    g = WeightedGraph(6, ((0, 1), (1, 2), (4, 5)))
    components = connected_components(g)
    assert components == [0, 0, 0, 3, 4, 4]


def test_complete_graph_size():
    assert complete_graph(5).edge_count == 10


def test_threshold_subgraph():
    g = cycle_graph(4).with_weights([0.1, 0.2, 0.3, 0.4])
    sub = threshold_subgraph(g, 0.25)
    assert sub.edge_count == 2

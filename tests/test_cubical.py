from __future__ import annotations

import itertools
import random

import pytest

from graphhom.cubical import (
    NEGATIVE,
    POSITIVE,
    betti_numbers,
    boundary_matrix,
    chain_complex,
    enumerate_cubes,
    face,
    is_degenerate,
)
from graphhom.errors import ResourceCapError, ValidationError
from graphhom.graphs import WeightedGraph, cycle_graph, greene_sphere, hypercube, line_graph

from conftest import random_graph
from oracles import GraphMap, connected_components, cube_is_valid, is_graph_map, mul_column


def naive_cubes(g: WeightedGraph, dim: int) -> list[tuple[int, ...]]:
    """Brute-force oracle: all |V|^(2^dim) assignments, filtered."""
    out = []
    cube = hypercube(dim)
    for assignment in itertools.product(range(g.vertex_count), repeat=1 << dim):
        if is_graph_map(GraphMap(cube, g, assignment)) and not is_degenerate(assignment):
            out.append(assignment)
    return out


class TestFace:
    def test_one_cube_endpoints(self):
        edge = (3, 7)
        assert face(edge, 1, NEGATIVE) == (3,)
        assert face(edge, 1, POSITIVE) == (7,)

    def test_constant_square_faces(self):
        square = (4, 4, 4, 4)
        for i in (1, 2):
            for sign in (NEGATIVE, POSITIVE):
                assert face(square, i, sign) == (4, 4)

    def test_insertion_convention(self):
        # the tuple lists corners as (00, 10, 01, 11)
        square = ("a", "b", "c", "d")
        assert face(square, 1, NEGATIVE) == ("a", "c")
        assert face(square, 1, POSITIVE) == ("b", "d")
        assert face(square, 2, NEGATIVE) == ("a", "b")
        assert face(square, 2, POSITIVE) == ("c", "d")

    def test_face_index_out_of_range(self):
        with pytest.raises(ValidationError):
            face((0, 1), 2, NEGATIVE)

    @pytest.mark.parametrize("cube", [(), (0, 1, 2), (0, 1, 2, 3, 4, 5)])
    def test_length_not_power_of_two(self, cube):
        with pytest.raises(ValidationError):
            face(cube, 1, NEGATIVE)
        with pytest.raises(ValidationError):
            is_degenerate(cube)


class TestDegenerate:
    def test_constant_edge_degenerate(self):
        assert is_degenerate((5, 5))

    def test_proper_edge_not_degenerate(self):
        assert not is_degenerate((1, 2))

    def test_equal_rows_degenerate(self):
        assert is_degenerate((1, 2, 1, 2))

    def test_zero_cube_not_degenerate(self):
        assert not is_degenerate((3,))


class TestEnumeration:
    def test_single_edge_one_cubes(self):
        cubes = enumerate_cubes(line_graph(1), 1)
        assert cubes[1] == [(0, 1), (1, 0)]

    def test_pentagon_one_cubes(self):
        cubes = enumerate_cubes(cycle_graph(5), 1)
        assert len(cubes[1]) == 10

    def test_edgeless_graph(self):
        g = WeightedGraph(4, ())
        cubes = enumerate_cubes(g, 2)
        assert len(cubes[0]) == 4
        assert cubes[1] == [] and cubes[2] == []

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_graph(rng, max_vertices=6, weighted=False)
            cubes = enumerate_cubes(g, 2)
            for dim in (1, 2):
                assert set(cubes[dim]) == set(naive_cubes(g, dim))

    def test_matches_naive_oracle_dim3(self):
        # |V|^(2^3) assignments stay feasible only for tiny graphs
        rng = random.Random(13)
        for _ in range(4):
            g = random_graph(rng, max_vertices=3, edge_probability=0.8, weighted=False)
            cubes = enumerate_cubes(g, 3)
            assert set(cubes[3]) == set(naive_cubes(g, 3))

    def test_canonical_order(self):
        cubes = enumerate_cubes(cycle_graph(4), 2)
        for basis in cubes:
            assert basis == sorted(basis)

    def test_cap_exceeded(self):
        with pytest.raises(ResourceCapError):
            enumerate_cubes(cycle_graph(9), 2, cap=30)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one(self, cap):
        with pytest.raises(ValidationError):
            enumerate_cubes(cycle_graph(4), 1, cap=cap)

    def test_cubes_are_valid_maps(self):
        g = cycle_graph(6)
        for basis in enumerate_cubes(g, 2):
            for cube in basis:
                assert cube_is_valid(cube, g)


class TestBoundary:
    def test_edge_boundary_is_endpoints(self):
        g = line_graph(1)
        cubes = enumerate_cubes(g, 1)
        bd = boundary_matrix(cubes, 1)
        # each oriented edge hits both endpoint rows
        assert all(col.bit_count() == 2 for col in bd)

    def test_square_boundary_in_c4(self):
        g = cycle_graph(4)
        cubes = enumerate_cubes(g, 2)
        index = {c: i for i, c in enumerate(cubes[2])}
        square = (0, 1, 3, 2)  # traces the 4-cycle: rows 0-1, 0-3, 1-2, 3-2
        bd = boundary_matrix(cubes, 2)
        col = bd[index[square]]
        rows = set()
        while col:
            low = col & -col
            rows.add(low.bit_length() - 1)
            col ^= low
        face_assignments = {cubes[1][r] for r in rows}
        assert face_assignments == {(0, 1), (3, 2), (0, 3), (1, 2)}

    def test_boundary_squares_to_zero(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, max_vertices=7, weighted=False)
            cx = chain_complex(g, 1)
            for col in cx.boundary[2]:
                assert mul_column(cx.boundary[1], col) == 0

    def test_boundary_squares_to_zero_dim3(self):
        rng = random.Random(29)
        for _ in range(6):
            g = random_graph(rng, max_vertices=6, weighted=False)
            cx = chain_complex(g, 2)
            for col in cx.boundary[3]:
                assert mul_column(cx.boundary[2], col) == 0


class TestBetti:
    @pytest.mark.parametrize(
        "n,expected",
        [(3, [1, 0]), (4, [1, 0]), (5, [1, 1]), (6, [1, 1]), (7, [1, 1]), (8, [1, 1]), (9, [1, 1])],
    )
    def test_cycles(self, n, expected):
        assert betti_numbers(cycle_graph(n), 1) == expected

    def test_greene_sphere(self):
        assert betti_numbers(greene_sphere(), 2) == [1, 0, 1]

    def test_isolated_vertices(self):
        g = WeightedGraph(4, ())
        assert betti_numbers(g, 1) == [4, 0]

    def test_beta0_equals_component_count(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, max_vertices=7, weighted=False)
            components = len(set(connected_components(g)))
            assert betti_numbers(g, 0)[0] == components

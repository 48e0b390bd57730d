from __future__ import annotations

import math
import random

import pytest

from graphhom.diagrams import INF, cycle_vertices
from graphhom.engine import weighted_graph_persistence
from graphhom.errors import ValidationError
from graphhom.graphs import WeightedGraph, complete_graph, cycle_graph, greene_sphere
from graphhom.persistence import assign_filtration, cube_value, reduce

from conftest import random_graph
from oracles import (
    betti_at,
    connected_components,
    count_alive_at,
    in_span,
    persistence_diagrams,
)


def example33_graph() -> WeightedGraph:
    return WeightedGraph(
        5,
        ((0, 1), (2, 3), (1, 2), (0, 4), (3, 4), (1, 3), (2, 4), (0, 2)),
        (0.0, 0.0, 0.2, 0.2, 0.5, 0.8, 0.8, 0.8),
    )


class TestAssignFiltration:
    def test_edge_cube_value(self):
        g = cycle_graph(3).with_weights([0.3, 0.5, 0.2])
        assert cube_value((0, 1), g) == 0.3

    def test_constant_cube_value_zero(self):
        g = cycle_graph(3).with_uniform_weights(0.4)
        assert cube_value((1, 1, 1, 1), g) == 0.0

    def test_square_cube_max_weight(self):
        g = cycle_graph(4).with_weights([0.2, 0.5, 0.1, 0.3])
        value = cube_value((0, 1, 3, 2), g)
        assert value == 0.5

    def test_vertices_at_zero_and_faces_monotone(self):
        from graphhom.cubical import NEGATIVE, POSITIVE, face

        g = example33_graph()
        fc = assign_filtration(g, 1)
        assert all(v == 0.0 for v in fc.values[0])
        for d in (1, 2):
            for cube, value in zip(fc.complex.basis[d], fc.values[d]):
                for i in range(1, d + 1):
                    for sign in (NEGATIVE, POSITIVE):
                        assert cube_value(face(cube, i, sign), g) <= value

    def test_requires_weights(self):
        with pytest.raises(ValidationError):
            assign_filtration(cycle_graph(3), 1)


class TestReduceNamedExamples:
    def test_example33(self):
        fc = assign_filtration(example33_graph(), 1)
        h0 = reduce(fc, 0)
        h1 = reduce(fc, 1)
        assert sorted((p.birth, p.death) for p in h0.pairs) == [
            (0.0, 0.2),
            (0.0, 0.2),
            (0.0, INF),
        ]
        assert [(p.birth, p.death) for p in h1.pairs] == [(0.5, 0.8)]
        rep = h1.pairs[0].representative
        assert rep is not None
        vertices = {u for cube in rep for u in cube}
        assert vertices == {0, 1, 2, 3, 4}

    def test_complete_graph_all_zero(self):
        g = complete_graph(5).with_uniform_weights(0.0)
        diagrams = persistence_diagrams(g, 1)
        assert [(p.birth, p.death) for p in diagrams[0].pairs] == [(0.0, INF)]
        assert diagrams[1].pairs == []

    def test_pentagon_uniform(self):
        g = cycle_graph(5).with_uniform_weights(0.4)
        d0, d1 = persistence_diagrams(g, 1)
        assert sorted((p.birth, p.death) for p in d0.pairs) == [
            (0.0, 0.4)
        ] * 4 + [(0.0, INF)]
        assert [(p.birth, p.death) for p in d1.pairs] == [(0.4, INF)]


class TestBettiAt:
    def test_example33_stage_zero(self):
        fc = assign_filtration(example33_graph(), 1)
        assert betti_at(fc, 0.0, 0) == 3

    def test_example33_cycle_alive(self):
        fc = assign_filtration(example33_graph(), 1)
        assert betti_at(fc, 0.5, 1) == 1
        assert betti_at(fc, 0.45, 1) == 0
        assert betti_at(fc, 0.8, 1) == 0

    def test_below_all_edges(self):
        g = cycle_graph(4).with_uniform_weights(0.6)
        fc = assign_filtration(g, 1)
        assert betti_at(fc, 0.1, 0) == 4


def critical_values(g: WeightedGraph) -> list[float]:
    return sorted({0.0, *g.weights})


def assert_stagewise_betti(g: WeightedGraph, max_dim: int) -> list:
    """reduce() in dimensions 0..max_dim against stage-wise Betti numbers."""
    fc = assign_filtration(g, max_dim)
    diagrams = [reduce(fc, d) for d in range(max_dim + 1)]
    for r in critical_values(g):
        for d, diagram in enumerate(diagrams):
            assert count_alive_at(diagram, r) == betti_at(fc, r, d), (g.edges, g.weights, r, d)
    return diagrams


class TestOracleEquivalence:
    def test_reduce_matches_stagewise_betti(self):
        rng = random.Random(99)
        for _ in range(25):
            assert_stagewise_betti(random_graph(rng, max_vertices=7), 1)
        # dimension 2 enumerates 3-cubes (a dense 6-vertex graph has ~500k),
        # so the random graphs stay small and sparse; Greene's sphere keeps
        # one H2 bar under any weights
        for _ in range(20):
            assert_stagewise_betti(random_graph(rng, max_vertices=6, edge_probability=0.4), 2)
        sphere = greene_sphere()
        sphere = sphere.with_weights([round(rng.random(), 2) for _ in sphere.edges])
        h2 = assert_stagewise_betti(sphere, 2)[2]
        assert [p.death for p in h2.pairs] == [INF]


class TestEngineEquivalence:
    def test_engine_matches_reduce(self):
        rng = random.Random(4242)
        for _ in range(60):
            g = random_graph(rng)
            fc = assign_filtration(g, 1)
            expected = [reduce(fc, 0), reduce(fc, 1)]
            got = weighted_graph_persistence(g, "cubical")
            assert got.h0 == expected[0]
            assert got.h1 == expected[1]

    def test_engine_matches_reduce_at_correlation_scale(self):
        # one dense realistic instance: ~65k 2-cubes in the reference complex
        import numpy as np

        from graphhom.graphs import complete_graph

        rng = np.random.default_rng(2025)
        n = 16
        base = rng.standard_normal((n, 40))
        base[1:] = 0.6 * base[1:] + 0.4 * base[:-1]
        r2 = np.corrcoef(base) ** 2
        skeleton = complete_graph(n)
        g = skeleton.with_weights([1 - r2[u, v] for u, v in skeleton.edges])
        fc = assign_filtration(g, 1)
        got = weighted_graph_persistence(g, "cubical")
        assert got.h0 == reduce(fc, 0)
        assert got.h1 == reduce(fc, 1)

    def test_engine_infinite_h0_equals_components(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, max_vertices=7)
            result = weighted_graph_persistence(g, "cubical")
            infinite = sum(1 for p in result.h0.pairs if math.isinf(p.death))
            assert infinite == len(set(connected_components(g)))

    def test_permutation_invariance(self):
        rng = random.Random(2024)
        for _ in range(20):
            g = random_graph(rng, max_vertices=7)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            permuted = WeightedGraph(
                g.vertex_count,
                tuple((perm[u], perm[v]) for u, v in g.edges),
                g.weights,
            )
            a = weighted_graph_persistence(g, "cubical")
            b = weighted_graph_persistence(permuted, "cubical")
            assert a.h0 == b.h0 and a.h1 == b.h1

    def test_representative_is_cycle_and_boundary_at_death(self):
        rng = random.Random(333)
        checked = 0
        for _ in range(40):
            # bigger sparse graphs with distinct weights: finite bars need a
            # chordless 5+-cycle that later gets filled
            pool = tuple(round(rng.random(), 3) for _ in range(40))
            g = random_graph(
                rng, max_vertices=12, edge_probability=0.35, weight_pool=pool
            )
            result = weighted_graph_persistence(g, "cubical")
            finite = [p for p in result.h1.pairs if not math.isinf(p.death)]
            if not finite:
                continue
            fc = assign_filtration(g, 1)
            basis1 = {c: i for i, c in enumerate(fc.complex.basis[1])}
            for pair in finite:
                # birth-time cycle: all representative edges are alive at birth
                assert all(
                    g.weight_of(u, v) <= pair.birth for u, v in pair.representative
                )
                target = 0
                for u, v in pair.representative:
                    target ^= 1 << basis1[(u, v)]
                columns = [
                    fc.complex.boundary[2][j]
                    for j, value in enumerate(fc.values[2])
                    if value <= pair.death
                ]
                assert in_span(columns, target)
                checked += 1
        assert checked > 5


class TestInfiniteRepresentatives:
    def test_tree_path_then_closing_edge(self):
        # the 5-cycle 0-1-2-3-4 closes at 0.5; afterwards the tree {5, 6}
        # and the lone vertex 7 join it, so the forest grows around the cycle
        g = WeightedGraph(
            8,
            ((0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (0, 4), (2, 5), (4, 7)),
            (0.1, 0.1, 0.2, 0.2, 0.3, 0.5, 0.7, 0.8),
        )
        for method in ("cubical", "flag"):
            h1 = weighted_graph_persistence(g, method).h1
            assert [(p.birth, p.death, p.representative) for p in h1.pairs] == [
                (0.5, INF, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
            ]

    def test_random_sparse_reps_are_birth_stage_cycles(self):
        rng = random.Random(5150)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, max_vertices=14, edge_probability=0.25)
            for method in ("cubical", "flag"):
                for pair in weighted_graph_persistence(g, method).h1.pairs:
                    if not math.isinf(pair.death):
                        continue
                    weights = [g.weight_of(u, v) for u, v in pair.representative]
                    assert max(weights) == pair.birth
                    assert len(cycle_vertices(pair.representative)) == 1
                    checked += 1
        assert checked > 40


def test_reduce_rejects_bad_dimension():
    fc = assign_filtration(example33_graph(), 1)
    with pytest.raises(ValidationError):
        reduce(fc, 2)


def test_reduce_rejects_values_out_of_filtration_order():
    fc = assign_filtration(example33_graph(), 1)
    fc.values[1].reverse()
    with pytest.raises(ValidationError):
        reduce(fc, 0)

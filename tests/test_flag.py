from __future__ import annotations

import math
import random

import numpy as np
import pytest

from graphhom.builders import metric_graph
from graphhom.diagrams import INF
from graphhom.engine import flag_persistence, weighted_graph_persistence
from graphhom.errors import ValidationError
from graphhom.graphs import WeightedGraph, complete_graph, cycle_graph

import oracles
from conftest import random_graph
from oracles import build_flag_filtration, four_cycles, persistence_diagrams, triangles


class TestTriangles:
    def test_pentagon_has_none(self):
        assert triangles(cycle_graph(5)) == []

    def test_k4_has_four(self):
        assert len(triangles(complete_graph(4))) == 4

    def test_weighted_triangle_value(self):
        g = complete_graph(3).with_weights([0.1, 0.2, 0.7])
        assert triangles(g) == [((0, 1, 2), 0.7)]

    def test_lexicographic_order(self):
        tris = triangles(complete_graph(5))
        assert tris == sorted(tris)

    def test_four_cycles_counted_once(self):
        c4 = cycle_graph(4).with_weights([0.1, 0.2, 0.3, 0.4])
        assert four_cycles(c4) == [((0, 1, 2, 3), 0.4)]
        assert len(four_cycles(complete_graph(4).with_uniform_weights(0.1))) == 3
        assert four_cycles(cycle_graph(5).with_uniform_weights(0.1)) == []


class TestFlagFiltration:
    def test_sorted_and_face_monotone(self):
        g = complete_graph(4).with_weights([0.4, 0.2, 0.9, 0.3, 0.1, 0.6])
        filtration = build_flag_filtration(g, 1)
        entries = [(v, len(s), s) for v, s in filtration.simplices]
        assert entries == sorted(entries)
        values = {s: v for v, s in filtration.simplices}
        for value, simplex in filtration.simplices:
            for k in range(len(simplex)):
                facet = simplex[:k] + simplex[k + 1:]
                if facet:
                    assert values[facet] <= value


class TestFlagPersistence:
    def test_c4_contrast(self):
        c4 = cycle_graph(4).with_uniform_weights(0.3)
        flag_h1 = flag_persistence(c4, 1)[1]
        cubical_h1 = persistence_diagrams(c4, 1)[1]
        assert [(p.birth, p.death) for p in flag_h1.pairs] == [(0.3, INF)]
        assert cubical_h1.pairs == []

    def test_c5_agreement(self):
        c5 = cycle_graph(5).with_uniform_weights(0.3)
        flag_h1 = flag_persistence(c5, 1)[1]
        cubical_h1 = persistence_diagrams(c5, 1)[1]
        assert flag_h1 == cubical_h1

    def test_triangle_filled_immediately(self):
        k3 = complete_graph(3).with_uniform_weights(0.2)
        assert flag_persistence(k3, 1)[1].pairs == []

    def test_max_dim_capped(self):
        with pytest.raises(ValidationError):
            flag_persistence(complete_graph(3).with_uniform_weights(0.1), 2)

    def test_requires_weights(self):
        with pytest.raises(ValidationError):
            flag_persistence(cycle_graph(4), 1)

    def test_engine_flag_matches_textbook(self):
        rng = random.Random(88)
        for _ in range(80):
            g = random_graph(rng)
            expected = oracles.flag_persistence(g, 1)
            got = weighted_graph_persistence(g, "flag")
            assert got.h0 == expected[0]
            assert got.h1 == expected[1]

    def test_flag_h0_equals_cubical_h0(self):
        rng = random.Random(19)
        for _ in range(50):
            g = random_graph(rng)
            flag_h0 = oracles.flag_persistence(g, 0)[0]
            cubical_h0 = weighted_graph_persistence(g, "cubical").h0
            assert flag_h0 == cubical_h0

    def test_agreement_on_cycle_free_of_small_cycles(self):
        # random trees plus one long cycle: no 3- or 4-cycles at any stage
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(5, 9)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            cycle = list(range(n, n + 5))
            edges += [
                (cycle[k], cycle[(k + 1) % 5]) for k in range(5)
            ]
            edges.append((0, cycle[0]))
            g = WeightedGraph(
                n + 5,
                tuple(edges),
                tuple(round(rng.random(), 3) for _ in edges),
            )
            flag_h1 = flag_persistence(g, 1)[1]
            cubical_h1 = weighted_graph_persistence(g, "cubical").h1
            assert flag_h1 == cubical_h1


@pytest.mark.parametrize("method", ["cubical", "flag"])
def test_engine_h1_matches_textbook_reduction(method):
    """The engine's sweep against the full simplex-wise reduction, tied weights included.

    The cubical oracle adds every 4-cycle as a 2-cell, so it also checks the
    cells the engine never builds, those no live cocycle sums to 1 on and the
    4-cycles with an arrived diagonal, on graphs too large for the cube-level
    reference.
    """
    rng = random.Random(1901)
    for _ in range(400):
        n = rng.randint(4, 22)
        p = rng.uniform(0.2, 1.0)
        levels = rng.choice((2, 5, 1000))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        weights = [rng.randrange(levels) / levels for _ in edges]
        g = WeightedGraph(n, tuple(edges), tuple(weights))
        expected = oracles.flag_persistence(g, 1, squares=method == "cubical")[1]
        assert weighted_graph_persistence(g, method).h1 == expected


def test_noisy_circle_flag_noisier():
    """Flag sees 4-cycles as holes, so its degree-1 diagrams carry more bars."""
    rng = np.random.default_rng(2718)
    flag_counts = []
    cubical_counts = []
    for _ in range(10):
        angles = 2 * math.pi * np.arange(30) / 30
        pts = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts += 0.5 * rng.standard_normal((30, 2))
        g = metric_graph(pts)
        flag_counts.append(len(weighted_graph_persistence(g, "flag").h1))
        cubical_counts.append(len(weighted_graph_persistence(g, "cubical").h1))
    assert sum(flag_counts) > sum(cubical_counts)
    assert sum(f >= c for f, c in zip(flag_counts, cubical_counts)) >= 8

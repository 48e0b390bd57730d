from __future__ import annotations

import math
import random

import pytest

from graphhom.bottleneck import bottleneck
from graphhom.diagrams import INF, PersistenceDiagram, PersistencePair
from graphhom.errors import ValidationError

from oracles import bottleneck_bruteforce, matching_cost


def diagram(points):
    return PersistenceDiagram(1, [PersistencePair(b, d) for b, d in points])


def random_diagram(rng: random.Random, max_points: int = 4):
    pts = []
    for _ in range(rng.randint(0, max_points)):
        b = round(rng.uniform(0, 2), 4)
        pts.append((b, b + round(rng.uniform(0, 2), 4)))
    return diagram(pts)


class TestMatchingCost:
    def test_identical_perfect_matching(self):
        d = diagram([(0.0, 1.0), (0.5, 2.0)])
        assert matching_cost([(0, 0), (1, 1)], d, d) == 0.0

    def test_empty_matching_charges_half_persistence(self):
        assert matching_cost([], diagram([(1.0, 3.0)]), diagram([])) == 1.0

    def test_partial_matching(self):
        p = diagram([(0.0, 1.0), (0.0, 2.0)])  # pairs sorted: (0,1) first
        q = diagram([(0.0, 2.0)])
        assert matching_cost([(1, 0)], p, q) == 0.5

    def test_everything_empty(self):
        assert matching_cost([], diagram([]), diagram([])) == 0.0

    def test_non_injective_rejected(self):
        p = diagram([(0.0, 1.0), (0.0, 2.0)])
        q = diagram([(0.0, 2.0)])
        with pytest.raises(ValidationError):
            matching_cost([(0, 0), (1, 0)], p, q)


class TestBottleneck:
    def test_identical_is_zero(self):
        d = diagram([(0.0, 1.0), (0.2, 0.9)])
        assert bottleneck(d, d) == 0.0

    def test_single_unmatched(self):
        assert bottleneck(diagram([(1.0, 3.0)]), diagram([])) == 1.0

    def test_spec_example(self):
        p = diagram([(0.0, 2.0), (0.0, 1.0)])
        q = diagram([(0.0, 2.0)])
        assert bottleneck(p, q) == 0.5

    def test_diagonal_point_invisible(self):
        p = diagram([(0.0, 2.0), (0.0, 1.0)])
        q = diagram([(0.0, 2.0)])
        p_extra = diagram([(0.0, 2.0), (0.0, 1.0), (0.7, 0.7)])
        assert bottleneck(p_extra, q) == bottleneck(p, q)

    def test_infinite_mismatch_is_infinite(self):
        p = diagram([(0.0, INF)])
        q = diagram([(0.0, 1.0)])
        assert math.isinf(bottleneck(p, q))

    def test_infinite_matched_by_birth(self):
        p = diagram([(0.0, INF), (0.5, INF)])
        q = diagram([(0.1, INF), (0.9, INF)])
        assert bottleneck(p, q) == pytest.approx(0.4)

    def test_agrees_with_bruteforce(self):
        rng = random.Random(12)
        for _ in range(200):
            p = random_diagram(rng)
            q = random_diagram(rng)
            exact = bottleneck(p, q)
            brute = bottleneck_bruteforce(p, q)
            assert abs(exact - brute) <= 1e-12

    def test_symmetry(self):
        rng = random.Random(13)
        for _ in range(100):
            p = random_diagram(rng)
            q = random_diagram(rng)
            assert abs(bottleneck(p, q) - bottleneck(q, p)) <= 1e-9

    def test_triangle_inequality(self):
        rng = random.Random(14)
        for _ in range(100):
            a, b, c = (random_diagram(rng) for _ in range(3))
            ab = bottleneck(a, b)
            bc = bottleneck(b, c)
            ac = bottleneck(a, c)
            assert ac <= ab + bc + 1e-9


def test_bruteforce_size_cap():
    big = diagram([(0.0, 1.0)] * 5)
    with pytest.raises(ValidationError):
        bottleneck_bruteforce(big, big)

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhom.builders import (
    MIN_OVERLAP,
    correlation_graph,
    metric_graph,
    multivariate_r2,
    r_squared,
)
from graphhom.errors import ValidationError
from graphhom.series import SeriesTable, aligned_table


class TestRSquared:
    def test_perfect_linear_fit(self):
        assert r_squared([0, 1, 2, 3], [1, 3, 5, 7]) == pytest.approx(1.0)

    def test_constant_series_degenerate(self):
        assert r_squared([1, 2, 3], [4, 4, 4]) == 0.0

    def test_hand_value(self):
        assert r_squared([0, 1, 2], [0, 1, 3]) == pytest.approx(27 / 28, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            r_squared([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            r_squared([1], [2])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 10_000),
        st.floats(min_value=-5, max_value=5).filter(lambda a: abs(a) > 1e-2),
        st.floats(min_value=-10, max_value=10),
    )
    def test_affine_invariance(self, seed, scale, shift):
        rng = random.Random(seed)
        x = [rng.uniform(0, 1) for _ in range(8)]
        y = [rng.uniform(0, 1) for _ in range(8)]
        base = r_squared(x, y)
        rescaled = r_squared([scale * v + shift for v in x], y)
        assert rescaled == pytest.approx(base, abs=1e-9)


class TestMultivariate:
    def test_target_equals_predictor(self):
        target = [1.0, 2.0, 3.0, 5.0, 8.0]
        assert multivariate_r2(target, [target, [0, 1, 0, 1, 0]]) == pytest.approx(1.0)

    def test_constant_target_degenerate(self):
        assert multivariate_r2([2.0] * 5, [[1, 2, 3, 4, 5]]) == 0.0

    def test_single_predictor_equals_pairwise(self):
        target = [1.0, 2.0, 3.0, 5.0]
        predictor = [1.0, 2.0, 3.0, 4.0]
        assert multivariate_r2(target, [predictor]) == pytest.approx(
            r_squared(target, predictor), abs=1e-12
        )

    def test_duplicate_predictor_equals_pairwise(self):
        # a rank-deficient design still gives the fit of its column span
        target = [1.0, 2.0, 3.0, 5.0, 8.0, 2.0]
        predictor = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert multivariate_r2(target, [predictor, predictor]) == pytest.approx(
            r_squared(target, predictor), abs=1e-12
        )

    def test_needs_enough_samples(self):
        with pytest.raises(ValidationError):
            multivariate_r2([1, 2, 3], [[1, 2, 3], [4, 5, 6]])


class TestCorrelationGraph:
    def test_identical_series_weight_zero(self):
        table = aligned_table(["a", "b"], [[1, 2, 3, 4], [2, 4, 6, 8]])
        g = correlation_graph(table)
        assert g.weights == (0.0,)

    def test_disjoint_overlap_weight_one(self):
        table = SeriesTable(
            ["a", "b"],
            [np.arange(4), np.arange(10, 14)],
            [np.arange(4.0), np.arange(4.0)],
        )
        assert correlation_graph(table).weights == (1.0,)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((3, 10))
        table = aligned_table(["a", "b", "c"], matrix)
        g = correlation_graph(table)
        for (i, j), w in zip(g.edges, g.weights):
            assert w == pytest.approx(1.0 - r_squared(matrix[i], matrix[j]), abs=1e-12)

    def test_weights_symmetric_in_unit_interval(self):
        rng = np.random.default_rng(5)
        table = aligned_table(list("abcde"), rng.random((5, 12)))
        g = correlation_graph(table)
        assert all(0.0 <= w <= 1.0 for w in g.weights)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((4, 9))
        names = ["a", "b", "c", "d"]
        g = correlation_graph(aligned_table(names, matrix))
        perm = [2, 0, 3, 1]
        permuted = correlation_graph(
            aligned_table([names[k] for k in perm], matrix[perm])
        )
        for (i, j), w in zip(g.edges, g.weights):
            pi, pj = perm.index(i), perm.index(j)
            assert permuted.weight_of(pi, pj) == pytest.approx(w, abs=1e-12)

    def test_short_overlap_weight_one(self):
        table = SeriesTable(
            ["a", "b"],
            [np.arange(3), np.arange(2, 5)],
            [np.asarray([1.0, 2.0, 3.0]), np.asarray([1.0, 5.0, 2.0])],
        )
        # overlap {2} below MIN_OVERLAP
        assert MIN_OVERLAP == 3
        assert correlation_graph(table).weights == (1.0,)

    def test_needs_two_series(self):
        with pytest.raises(ValidationError):
            correlation_graph(aligned_table(["a"], [[1.0, 2.0]]))

    def test_labels_carried(self):
        table = aligned_table(["x", "y"], [[1, 2, 3], [3, 1, 2]])
        assert correlation_graph(table).vertex_labels == ("x", "y")


class TestMetricGraph:
    def test_coincident_points(self):
        g = metric_graph([(1.0, 1.0), (1.0, 1.0)])
        assert g.weights == (0.0,)

    def test_unit_square(self):
        g = metric_graph([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert sorted(g.weights) == pytest.approx([1, 1, 1, 1, math.sqrt(2), math.sqrt(2)])

    def test_circle_diameter(self):
        pts = [
            (2 * math.cos(2 * math.pi * k / 30), 2 * math.sin(2 * math.pi * k / 30))
            for k in range(30)
        ]
        assert max(metric_graph(pts).weights) == pytest.approx(4.0, abs=1e-12)

    def test_coords_stored(self):
        pts = [(0.0, 0.0), (3.0, 4.0)]
        g = metric_graph(pts)
        assert g.vertex_coords == ((0.0, 0.0), (3.0, 4.0))
        assert g.weights == (5.0,)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            metric_graph([(0.0, 0.0)])

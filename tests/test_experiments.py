from __future__ import annotations

import math

import numpy as np
import pytest

from graphhom.builders import correlation_graph
from graphhom.errors import ValidationError
from graphhom.experiments import trial_rng
from graphhom.experiments.circle import CircleConfig, noisy_circle_trial, run_circle
from graphhom.experiments.multifit import (
    MultiFitConfig,
    evaluate_lists,
    multifit_trial,
    run_multifit,
)
from graphhom.experiments.weather import (
    WeatherConfig,
    accuracy_sweep,
    detect_expected_actual,
    detect_homology,
    disturbed_grid,
    grid_coords,
    interior_vertices,
    _step,
    run_disturbed_series,
    smoothing_matrix,
)
from graphhom.graphs import all_pairs_distances, grid_graph
from graphhom.series import SeriesTable, aligned_table

from oracles import threshold_subgraph


def weather_step(readings, dist, p, rng):
    """One update of the simulation from a distance matrix: smooth, add noise, smooth."""
    return _step(readings, smoothing_matrix(dist, p), rng)


def series_from_matrix(matrix: np.ndarray, cfg: WeatherConfig) -> SeriesTable:
    times = np.arange(matrix.shape[1], dtype=np.int64)
    return SeriesTable(
        [f"v{k}" for k in range(matrix.shape[0])],
        [times.copy() for _ in range(matrix.shape[0])],
        [matrix[k].copy() for k in range(matrix.shape[0])],
        coords=grid_coords(cfg),
    )


class TestWeatherStep:
    def test_constant_field_fixed_point(self):
        dist = all_pairs_distances(grid_graph(3, 3).with_uniform_weights(1.0))

        class ZeroRng:
            @staticmethod
            def standard_normal(n):
                return np.zeros(n)

        out = weather_step(np.full(9, 3.7), dist, 2.0, ZeroRng)
        assert out == pytest.approx(np.full(9, 3.7))

    def test_single_vertex_is_noise_only(self):
        dist = np.zeros((1, 1))

        class UnitRng:
            @staticmethod
            def standard_normal(n):
                return np.ones(n)

        out = weather_step(np.asarray([2.0]), dist, 2.0, UnitRng)
        assert out == pytest.approx([3.0])

    def test_two_by_two_hand_values(self):
        # p=1, zero noise, field (1,2,3,5): two smoothing passes evaluated by
        # hand with kernel weights self 3, adjacent 2, diagonal 1
        dist = all_pairs_distances(grid_graph(2, 2).with_uniform_weights(1.0))

        class ZeroRng:
            @staticmethod
            def standard_normal(n):
                return np.zeros(n)

        out = weather_step(np.asarray([1.0, 2.0, 3.0, 5.0]), dist, 1.0, ZeroRng)
        assert out == pytest.approx([2.625, 2.71875, 2.78125, 2.875], abs=1e-12)

    def test_mean_preserved_in_expectation(self):
        cfg = WeatherConfig(rows=4, cols=4, readings=2, iterations=1, seed=0)
        dist = all_pairs_distances(grid_graph(4, 4).with_uniform_weights(1.0))
        smooth = smoothing_matrix(dist, cfg.p)
        rng = np.random.default_rng(11)
        field = rng.standard_normal(16)
        drifts = []
        for _ in range(10_000):
            new = smooth @ (smooth @ field + rng.standard_normal(16))
            drifts.append(new.mean() - field.mean())
            field = new
        drifts = np.asarray(drifts)
        assert abs(drifts.mean()) <= 3 * drifts.std() / math.sqrt(len(drifts))


class TestDisturbedSeries:
    def test_w1_matches_undisturbed(self):
        cfg1 = WeatherConfig(rows=4, cols=4, readings=6, iterations=1, seed=5)
        series_a = run_disturbed_series(cfg1, 5, trial_rng(5, 0))
        series_b = run_disturbed_series(cfg1, 10, trial_rng(5, 0))
        # with w = 1 the dynamics ignore the planted vertex entirely
        for a, b in zip(series_a.values, series_b.values):
            assert a.tolist() == b.tolist()

    def test_disturbance_stretches_distances(self):
        cfg = WeatherConfig(
            rows=3, cols=3, readings=2, iterations=1, seed=0, disturbance_weight=2.0
        )
        center = 4
        dist = all_pairs_distances(disturbed_grid(cfg, center))
        # brute-force oracle over all simple paths of the 3x3 grid
        grid = grid_graph(3, 3)
        weight = {
            e: (2.0 if center in e else 1.0) for e in grid.edges
        }
        best = {v: math.inf for v in range(9)}

        def explore(v, seen, cost):
            best[v] = min(best[v], cost)
            for u in grid.neighbors(v):
                if u not in seen:
                    edge = (min(u, v), max(u, v))
                    explore(u, seen | {u}, cost + weight[edge])

        explore(center, {center}, 0.0)
        assert dist[center, 0] == best[0] == 3.0
        for v in range(9):
            assert dist[center, v] == pytest.approx(best[v])

    def test_boundary_vertex_rejected(self):
        cfg = WeatherConfig(rows=4, cols=4, readings=5, iterations=1, seed=0)
        with pytest.raises(ValidationError):
            run_disturbed_series(cfg, 0, trial_rng(0, 0))

    def test_reproducible_per_seed(self):
        cfg = WeatherConfig(rows=4, cols=4, readings=8, iterations=1, seed=9)
        a = run_disturbed_series(cfg, 5, trial_rng(9, 3))
        b = run_disturbed_series(cfg, 5, trial_rng(9, 3))
        c = run_disturbed_series(cfg, 5, trial_rng(9, 4))
        assert all(x.tolist() == y.tolist() for x, y in zip(a.values, b.values))
        assert any(x.tolist() != y.tolist() for x, y in zip(a.values, c.values))


class TestDetectExpectedActual:
    def test_zero_noise_ties_to_lowest_interior_index(self):
        cfg = WeatherConfig(rows=4, cols=4, readings=5, iterations=1, seed=0)
        dist = all_pairs_distances(grid_graph(4, 4).with_uniform_weights(1.0))
        smooth = smoothing_matrix(dist, cfg.p)
        readings = np.empty((16, 5))
        readings[:, 0] = np.linspace(0.0, 1.0, 16)
        for t in range(1, 5):
            readings[:, t] = smooth @ (smooth @ readings[:, t - 1])
        series = series_from_matrix(readings, cfg)
        assert detect_expected_actual(series, cfg) == interior_vertices(cfg)[0]

    def test_offset_vertex_wins(self):
        cfg = WeatherConfig(rows=3, cols=3, readings=6, iterations=1, seed=0)
        readings = np.zeros((9, 6))
        readings[4, 1:] = 10.0
        series = series_from_matrix(readings, cfg)
        assert detect_expected_actual(series, cfg) == 4

    def test_restriction_to_candidates(self):
        cfg = WeatherConfig(rows=3, cols=3, readings=6, iterations=1, seed=0)
        readings = np.zeros((9, 6))
        readings[4, 1:] = 10.0
        readings[1, 1:] = 5.0
        series = series_from_matrix(readings, cfg)
        assert detect_expected_actual(series, cfg, candidates=[1, 3]) == 1

    def test_scores_covariant_under_grid_transpose(self):
        from graphhom.experiments.weather import _expected_scores

        cfg = WeatherConfig(rows=4, cols=4, readings=7, iterations=1, seed=0)
        rng = np.random.default_rng(31)
        readings = rng.standard_normal((16, 7))
        scores = _expected_scores(series_from_matrix(readings, cfg), cfg)
        transpose = [c * 4 + r for r in range(4) for c in range(4)]
        transposed_scores = _expected_scores(
            series_from_matrix(readings[transpose], cfg), cfg
        )
        assert transposed_scores == pytest.approx(scores[transpose])


class TestDetectHomology:
    def planted_ring_series(self, cfg: WeatherConfig, center: int) -> SeriesTable:
        rng = np.random.default_rng(77)
        n = cfg.rows * cfg.cols
        row, col = divmod(center, cfg.cols)
        ring = [
            (row - 1) * cfg.cols + (col - 1),
            (row - 1) * cfg.cols + col,
            (row - 1) * cfg.cols + (col + 1),
            row * cfg.cols + (col + 1),
            (row + 1) * cfg.cols + (col + 1),
            (row + 1) * cfg.cols + col,
            (row + 1) * cfg.cols + (col - 1),
            row * cfg.cols + (col - 1),
        ]
        length = 160
        latent = rng.standard_normal((8, length))
        readings = 3.0 * rng.standard_normal((n, length))
        for k, vertex in enumerate(ring):
            readings[vertex] = latent[k] + latent[(k + 1) % 8]
        return series_from_matrix(readings, cfg)

    def test_ring_interior_detected_directly(self):
        cfg = WeatherConfig(rows=5, cols=5, readings=160, iterations=1, seed=0)
        series = self.planted_ring_series(cfg, 12)
        assert detect_homology(series, cfg, "cubical") == 12
        assert detect_homology(series, cfg, "flag") == 12

    def test_fallback_on_empty_diagram(self):
        cfg = WeatherConfig(rows=3, cols=3, readings=6, iterations=1, seed=0)
        readings = np.zeros((9, 6))
        readings[4, 1:] = 10.0
        # all series pairwise identical-ish: complete at 0, no degree-1 bars
        series = series_from_matrix(readings, cfg)
        assert detect_homology(series, cfg, "cubical") == detect_expected_actual(series, cfg)

    def test_fallback_on_empty_polygon_interior(self):
        # plant the correlation 5-cycle on geometrically collinear vertices:
        # its polygon has no strict interior, so detection falls back to the
        # residual model over the whole grid interior
        cfg = WeatherConfig(rows=5, cols=5, readings=160, iterations=1, seed=0)
        rng = np.random.default_rng(41)
        latent = rng.standard_normal((5, 160))
        readings = 3.0 * rng.standard_normal((25, 160))
        for k, vertex in enumerate([0, 1, 2, 3, 4]):  # top row, collinear
            readings[vertex] = latent[k] + latent[(k + 1) % 5]
        series = series_from_matrix(readings, cfg)
        assert detect_homology(series, cfg, "cubical") == detect_expected_actual(series, cfg)

    def test_methods_agree_on_shared_representative(self):
        cfg = WeatherConfig(rows=5, cols=5, readings=160, iterations=1, seed=0)
        series = self.planted_ring_series(cfg, 12)
        from graphhom.diagrams import longest_bar, project_chain
        from graphhom.engine import weighted_graph_persistence

        g = correlation_graph(series)
        bar_c = longest_bar(weighted_graph_persistence(g, "cubical").h1, span=(0, 1))
        bar_f = longest_bar(weighted_graph_persistence(g, "flag").h1, span=(0, 1))
        if project_chain(bar_c.representative) == project_chain(bar_f.representative):
            assert detect_homology(series, cfg, "cubical") == detect_homology(
                series, cfg, "flag"
            )


class TestMultiFit:
    def test_five_identical_lists(self):
        base = np.linspace(0.0, 1.0, 10)
        trial = evaluate_lists(np.vstack([base] * 5))
        assert trial.r2_avg == pytest.approx(1.0)
        assert trial.r2_mult == pytest.approx(1.0)
        assert trial.relative_increase == pytest.approx(0.0)
        assert trial.h1_length_pct == 0.0

    def test_h1_positive_implies_c5_stage(self):
        cfg = MultiFitConfig(iterations=1, seed=0)
        found = 0
        for i in range(4000):
            rng = trial_rng(123, i)
            lists = rng.random((5, 10))
            trial = evaluate_lists(lists)
            if trial.h1_length_pct <= 0:
                continue
            found += 1
            from graphhom.engine import weighted_graph_persistence

            table = aligned_table([f"x{k}" for k in range(5)], lists)
            g = correlation_graph(table)
            h1 = weighted_graph_persistence(g, "cubical").h1
            bar = max(h1.pairs, key=lambda p: p.death - p.birth)
            r = (bar.birth + min(bar.death, 1.0)) / 2.0
            stage = threshold_subgraph(g, r)
            degrees = sorted(len(stage.neighbors(v)) for v in range(5))
            assert stage.edge_count == 5 and degrees == [2, 2, 2, 2, 2]
            if found >= 3:
                break
        assert found >= 1

    def test_trial_values_in_range(self):
        cfg = MultiFitConfig(iterations=1, seed=1)
        for i in range(20):
            trial = multifit_trial(cfg, trial_rng(1, i))
            assert 0.0 <= trial.h1_length_pct <= 100.0
            assert 0.0 <= trial.r2_avg <= 1.0
            assert 0.0 <= trial.r2_mult <= 1.0

    def test_run_multifit_summary(self):
        cfg = MultiFitConfig(iterations=300, seed=7)
        out = run_multifit(cfg)
        summary = out["summary"]
        assert summary["iterations"] == 300
        assert summary["excluded"] == 0
        assert -1.0 <= summary["pearson_r"] <= 1.0
        assert summary["in_paper_regime"]


class TestCircle:
    def test_zero_noise_zero_distance(self):
        cfg = CircleConfig(noise_sigma=0.0, iterations=1, seed=0)
        assert noisy_circle_trial(cfg, trial_rng(0, 0)) == (0.0, 0.0)

    def test_distances_nonnegative_finite(self):
        cfg = CircleConfig(iterations=1, seed=3)
        for i in range(5):
            d_c, d_f = noisy_circle_trial(cfg, trial_rng(3, i))
            assert 0.0 <= d_c < math.inf
            assert 0.0 <= d_f < math.inf

    def test_run_circle_deterministic_and_pool_invariant(self):
        cfg = CircleConfig(iterations=6, seed=21)
        seq = run_circle(cfg, threads=1)
        par = run_circle(cfg, threads=2)
        assert seq == par

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CircleConfig(point_count=3)
        with pytest.raises(ValidationError):
            CircleConfig(noise_sigma=-1.0)


class TestAccuracySweep:
    def test_smoke_and_determinism(self):
        cfg = WeatherConfig(rows=4, cols=4, readings=10, iterations=3, seed=13)
        a = accuracy_sweep(cfg, [1.0, 6.0])
        b = accuracy_sweep(cfg, [1.0, 6.0])
        assert a == b
        assert {row["model"] for row in a["accuracy"]} == {
            "expected_actual",
            "cubical",
            "flag",
        }
        assert all(0.0 <= row["accuracy"] <= 1.0 for row in a["accuracy"])

    def test_chance_level_independence_at_w1(self):
        # with w = 1 the series do not depend on the planted vertex at all
        cfg = WeatherConfig(rows=4, cols=4, readings=8, iterations=2, seed=3)
        out = accuracy_sweep(cfg, [1.0])
        for trial in out["trials"]:
            cfg_trial = WeatherConfig(rows=4, cols=4, readings=8, iterations=2, seed=3)
            series = run_disturbed_series(
                cfg_trial, trial["planted"], trial_rng(3, trial["trial"])
            )
            # a different planted vertex yields the same readings
            other = [v for v in interior_vertices(cfg_trial) if v != trial["planted"]][0]
            series_other = run_disturbed_series(
                cfg_trial, other, trial_rng(3, trial["trial"])
            )
            for x, y in zip(series.values, series_other.values):
                assert x.tolist() == y.tolist()

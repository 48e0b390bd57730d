"""Grid reading simulation with a planted disturbance, and three detectors.

Readings evolve by distance-kernel smoothing, per-vertex N(0,1) noise, and a
second smoothing pass.  A disturbance reweights the edges at one interior
vertex, stretching shortest-path distances and decoupling it from its
neighborhood.  Detectors: expected-vs-actual residuals, and the interior of
the longest-lasting degree-1 generator of the correlation filtration
(cubical or flag), falling back to residuals on ties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..builders import CORRELATION_SPAN, correlation_graph
from ..diagrams import cycle_vertices, longest_bar
from ..engine import weighted_graph_persistence
from ..errors import ValidationError
from ..geometry import point_in_polygon
from ..graphs import all_pairs_distances, grid_graph
from ..series import SeriesTable, aligned_table
from . import run_trials, trial_rng

#: disturbance weights swept when none are given
W_VALUES = (1.0, 4.0, 8.0, 12.0)


@dataclass(frozen=True)
class WeatherConfig:
    rows: int = 8
    cols: int = 8
    p: float = 2.0
    readings: int = 50
    disturbance_weight: float = 1.0
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 3 or self.cols < 3:
            raise ValidationError("grid must be at least 3x3 so the interior is nonempty")
        if not self.p > 0:
            raise ValidationError("p must be positive")
        if self.readings < 2:
            raise ValidationError("need at least 2 readings")
        if not self.disturbance_weight >= 1:
            raise ValidationError("disturbance weight must be >= 1")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")


def interior_vertices(cfg: WeatherConfig) -> list[int]:
    return [
        r * cfg.cols + c
        for r in range(1, cfg.rows - 1)
        for c in range(1, cfg.cols - 1)
    ]


def grid_coords(cfg: WeatherConfig) -> list[tuple[float, float]]:
    return [
        (float(c), float(r)) for r in range(cfg.rows) for c in range(cfg.cols)
    ]


def smoothing_matrix(dist: np.ndarray, p: float) -> np.ndarray:
    """Row-normalized kernel (m_x - d(x, w) + 1)^p; row x weighs vertex w."""
    m = dist.max(axis=1, keepdims=True)
    kernel = (m - dist + 1.0) ** p
    return kernel / kernel.sum(axis=1, keepdims=True)


def _step(readings: np.ndarray, smooth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noisy = smooth @ readings + rng.standard_normal(readings.shape[0])
    return smooth @ noisy


def disturbed_grid(cfg: WeatherConfig, v: int):
    g = grid_graph(cfg.rows, cfg.cols).with_uniform_weights(1.0)
    if cfg.disturbance_weight != 1.0:
        g = g.reweight_edges(
            {(v, u): cfg.disturbance_weight for u in g.neighbors(v)}
        )
    return g


def run_disturbed_series(
    cfg: WeatherConfig, v: int, rng: np.random.Generator
) -> SeriesTable:
    """cfg.readings readings per vertex under the disturbance at interior v."""
    if v not in set(interior_vertices(cfg)):
        raise ValidationError(f"vertex {v} is not strictly interior to the grid")
    dist = all_pairs_distances(disturbed_grid(cfg, v))
    smooth = smoothing_matrix(dist, cfg.p)
    n = cfg.rows * cfg.cols
    readings = np.empty((n, cfg.readings))
    readings[:, 0] = rng.standard_normal(n)
    for t in range(1, cfg.readings):
        readings[:, t] = _step(readings[:, t - 1], smooth, rng)
    return aligned_table([f"v{k}" for k in range(n)], readings, grid_coords(cfg))


def _expected_scores(series: SeriesTable, cfg: WeatherConfig) -> np.ndarray:
    """Per-vertex sum of |expected - actual|, expectations under unit weights."""
    base = grid_graph(cfg.rows, cfg.cols).with_uniform_weights(1.0)
    smooth = smoothing_matrix(all_pairs_distances(base), cfg.p)
    readings = series.value_matrix()
    expected = smooth @ (smooth @ readings[:, :-1])
    return np.abs(expected - readings[:, 1:]).sum(axis=1)


def detect_expected_actual(
    series: SeriesTable, cfg: WeatherConfig, candidates: list[int] | None = None
) -> int:
    """Interior vertex with the largest residual score; ties to the lowest index."""
    scores = _expected_scores(series, cfg)
    pool = interior_vertices(cfg) if candidates is None else sorted(candidates)
    return max(pool, key=lambda x: (scores[x], -x))


def detect_homology(series: SeriesTable, cfg: WeatherConfig, method: str = "cubical") -> int:
    """Vertex inside the longest-lasting degree-1 generator; residual fallback.

    A single strictly-interior vertex wins outright; several are settled by
    the residual detector restricted to them; none (or an empty diagram)
    falls back to the residual detector over the whole grid interior.
    """
    if series.coords is None:
        raise ValidationError("detect_homology needs vertex coordinates")
    h1 = weighted_graph_persistence(correlation_graph(series), method).h1
    if not h1.pairs:
        return detect_expected_actual(series, cfg)
    bar = longest_bar(h1, span=CORRELATION_SPAN)
    inside: set[int] = set()
    for cycle in cycle_vertices(bar.representative):
        polygon = [series.coords[u] for u in cycle]
        inside.update(
            x
            for x in range(cfg.rows * cfg.cols)
            if point_in_polygon(series.coords[x], polygon)
        )
    if len(inside) == 1:
        return next(iter(inside))
    if inside:
        return detect_expected_actual(series, cfg, candidates=sorted(inside))
    return detect_expected_actual(series, cfg)


MODELS = ("expected_actual", "cubical", "flag")


def detect(series: SeriesTable, cfg: WeatherConfig, model: str) -> int:
    if model == "expected_actual":
        return detect_expected_actual(series, cfg)
    if model in ("cubical", "flag"):
        return detect_homology(series, cfg, method=model)
    raise ValidationError(f"unknown detection model {model!r}")


def _sweep_worker(cfg: WeatherConfig, i: int) -> dict:
    rng = trial_rng(cfg.seed, i)
    interior = interior_vertices(cfg)
    planted = interior[int(rng.integers(len(interior)))]
    series = run_disturbed_series(cfg, planted, rng)
    detected = {model: detect(series, cfg, model) for model in MODELS}
    return {"trial": i, "planted": planted, "detected": detected}


def accuracy_sweep(
    cfg: WeatherConfig,
    w_values: list[float],
    threads: int = 1,
) -> dict:
    """Detection accuracy per (disturbance weight, model); seed-deterministic."""
    table = []
    trials = []
    for w in w_values:
        cfg_w = replace(cfg, disturbance_weight=float(w))
        results = run_trials(_sweep_worker, cfg_w, cfg.iterations, threads)
        for model in MODELS:
            correct = sum(1 for r in results if r["detected"][model] == r["planted"])
            table.append(
                {"w": float(w), "model": model, "accuracy": correct / len(results)}
            )
        for r in results:
            trials.append({"w": float(w), **r})
    return {"accuracy": table, "trials": trials}

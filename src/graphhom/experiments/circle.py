"""Noisy-circle comparison: cubical vs flag bottleneck distance to the clean circle.

Each trial perturbs evenly spaced circle points with independent N(0, sigma)
noise per coordinate, builds the metric filtration of the perturbed cloud,
and measures how far its degree-1 diagram moved from the clean one, once with
discrete cubical homology and once with the flag complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..bottleneck import bottleneck
from ..builders import metric_graph
from ..diagrams import PersistenceDiagram
from ..engine import weighted_graph_persistence
from ..errors import ValidationError
from . import run_trials, trial_rng


@dataclass(frozen=True)
class CircleConfig:
    point_count: int = 30
    radius: float = 2.0
    noise_sigma: float = 0.5
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.point_count < 5:
            raise ValidationError("point_count must be >= 5")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not self.noise_sigma >= 0:
            raise ValidationError("noise_sigma must be >= 0")


def clean_points(cfg: CircleConfig) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(cfg.point_count) / cfg.point_count
    return cfg.radius * np.column_stack([np.cos(angles), np.sin(angles)])


@lru_cache(maxsize=8)
def _clean_diagrams(point_count: int, radius: float) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    g = metric_graph(clean_points(CircleConfig(point_count=point_count, radius=radius)))
    return (
        weighted_graph_persistence(g, "cubical").h1,
        weighted_graph_persistence(g, "flag").h1,
    )


def noisy_circle_trial(cfg: CircleConfig, rng: np.random.Generator) -> tuple[float, float]:
    """(bottleneck distance via cubical H1, via flag H1) for one noisy sample."""
    clean_cubical, clean_flag = _clean_diagrams(cfg.point_count, cfg.radius)
    pts = clean_points(cfg) + cfg.noise_sigma * rng.standard_normal((cfg.point_count, 2))
    g = metric_graph(pts)
    noisy_cubical = weighted_graph_persistence(g, "cubical").h1
    noisy_flag = weighted_graph_persistence(g, "flag").h1
    return bottleneck(clean_cubical, noisy_cubical), bottleneck(clean_flag, noisy_flag)


def _worker(cfg: CircleConfig, i: int) -> tuple[float, float]:
    return noisy_circle_trial(cfg, trial_rng(cfg.seed, i))


def run_circle(cfg: CircleConfig, threads: int = 1) -> dict:
    results = run_trials(_worker, cfg, cfg.iterations, threads)
    cubical = np.array([r[0] for r in results])
    flag = np.array([r[1] for r in results])
    wins = int((cubical < flag).sum())
    return {
        "trials": [
            {"trial": i, "d_cubical": float(c), "d_flag": float(f)}
            for i, (c, f) in enumerate(results)
        ],
        "summary": {
            "iterations": cfg.iterations,
            "mean_cubical": float(cubical.mean()),
            "mean_flag": float(flag.mean()),
            "cubical_wins": wins,
            "cubical_win_fraction": wins / cfg.iterations,
        },
    }

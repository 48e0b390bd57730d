"""Multivariate fit test: does lasting degree-1 homology mark group structure?

Each trial draws five uniform(0,1) lists, measures how long the correlation
filtration carries nontrivial degree-1 homology, and compares the mean
multivariate fit quality against the mean pairwise fit quality via the
relative increase (r2_mult - r2_avg) / r2_avg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..builders import CORRELATION_SPAN, correlation_graph, multivariate_r2, r_squared
from ..diagrams import nontrivial_length
from ..engine import weighted_graph_persistence
from ..errors import ValidationError
from ..series import aligned_table
from . import run_trials, trial_rng


@dataclass(frozen=True)
class MultiFitConfig:
    list_count: int = 5
    list_length: int = 10
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.list_length < 3:
            raise ValidationError("list_length must be >= 3")
        if self.list_count < 3:
            raise ValidationError("list_count must be >= 3")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")

    @property
    def in_paper_regime(self) -> bool:
        # with five vertices the only nontrivial H1 source is a full 5-cycle
        return self.list_count == 5


@dataclass(frozen=True)
class MultiFitTrial:
    h1_length_pct: float
    r2_avg: float
    r2_mult: float
    relative_increase: float | None  # None when r2_avg is 0 (trial excluded)


def evaluate_lists(lists: np.ndarray) -> MultiFitTrial:
    """Fit statistics and degree-1 persistence length for one batch of lists."""
    count = lists.shape[0]
    table = aligned_table([f"x{k}" for k in range(count)], lists)
    pair_r2 = [
        r_squared(lists[i], lists[j])
        for i in range(count)
        for j in range(i + 1, count)
    ]
    r2_avg = float(np.mean(pair_r2))
    r2_mult = float(
        np.mean(
            [
                multivariate_r2(lists[i], [lists[j] for j in range(count) if j != i])
                for i in range(count)
            ]
        )
    )
    h1 = weighted_graph_persistence(correlation_graph(table), "cubical").h1
    h1_length = nontrivial_length(h1, CORRELATION_SPAN)
    relative = (r2_mult - r2_avg) / r2_avg if r2_avg > 0 else None
    return MultiFitTrial(h1_length, r2_avg, r2_mult, relative)


def multifit_trial(cfg: MultiFitConfig, rng: np.random.Generator) -> MultiFitTrial:
    return evaluate_lists(rng.random((cfg.list_count, cfg.list_length)))


def _worker(cfg: MultiFitConfig, i: int) -> MultiFitTrial:
    return multifit_trial(cfg, trial_rng(cfg.seed, i))


def run_multifit(cfg: MultiFitConfig, threads: int = 1) -> dict:
    results = run_trials(_worker, cfg, cfg.iterations, threads)
    included = [t for t in results if t.relative_increase is not None]
    lengths = np.array([t.h1_length_pct for t in included])
    increases = np.array([t.relative_increase for t in included])
    if lengths.size < 2 or np.ptp(lengths) == 0.0 or np.ptp(increases) == 0.0:
        # degenerate batch (e.g. a tiny run with no nontrivial homology)
        correlation, p_value = 0.0, 1.0
    else:
        correlation, p_value = stats.pearsonr(lengths, increases)
    with_h1 = increases[lengths > 0]
    without_h1 = increases[lengths == 0]
    buckets = {}
    for lo in np.arange(0.0, lengths.max() + 0.5, 0.5) if lengths.size else []:
        mask = (lengths >= lo) & (lengths < lo + 0.5)
        if mask.any():
            buckets[f"{lo:.1f}"] = float(increases[mask].mean())
    return {
        "trials": [
            {
                "trial": i,
                "h1_length_pct": t.h1_length_pct,
                "r2_avg": t.r2_avg,
                "r2_mult": t.r2_mult,
                "relative_increase": t.relative_increase,
            }
            for i, t in enumerate(results)
        ],
        "summary": {
            "iterations": cfg.iterations,
            "excluded": len(results) - len(included),
            "pearson_r": float(correlation),
            "p_value": float(p_value),
            "mean_increase_h1_positive": float(with_h1.mean()) if with_h1.size else None,
            "mean_increase_h1_zero": float(without_h1.mean()) if without_h1.size else None,
            "h1_positive_count": int((lengths > 0).sum()),
            "bucket_means": buckets,
            "in_paper_regime": cfg.in_paper_regime,
        },
    }

"""Weighted complete graphs from data: correlation weights and metric weights.

The correlation rule gives edge (i, j) the weight 1 - R^2 of the linear fit
between series i and j on their overlapping time indices; a pair with
overlap below MIN_OVERLAP, or with a zero-variance side, gets weight exactly
1 and so connects only at the final stage.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .graphs import WeightedGraph, complete_graph
from .series import SeriesTable

#: fewest common time indices a pair needs for a fitted weight
MIN_OVERLAP = 3

#: the filtration range of correlation weights 1 - R^2
CORRELATION_SPAN = (0.0, 1.0)


def r_squared(x, y) -> float:
    """Squared Pearson correlation of two equal-length samples.

    Returns 0 when either sample has zero variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("r_squared needs two equal-length 1-d samples")
    if x.size < 2:
        raise ValidationError("r_squared needs at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = float(xc @ yc)
    return min(1.0, cov * cov / (vx * vy))


def multivariate_r2(target, predictors) -> float:
    """Coefficient of determination of OLS with intercept, clamped to [0, 1]."""
    y = np.asarray(target, dtype=float)
    xs = [np.asarray(p, dtype=float) for p in predictors]
    if any(p.shape != y.shape for p in xs) or y.ndim != 1:
        raise ValidationError("predictors must match the target length")
    if y.size <= len(xs) + 1:
        raise ValidationError("need more samples than predictors plus intercept")
    yc = y - y.mean()
    sst = float(yc @ yc)
    if sst == 0.0:
        return 0.0
    design = np.column_stack([np.ones_like(y)] + xs)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    residual = y - design @ coef
    ssr = float(residual @ residual)
    r2 = 1.0 - ssr / sst
    return min(1.0, max(0.0, r2))


def correlation_graph(table: SeriesTable) -> WeightedGraph:
    """Complete graph on the series with weight 1 - R^2 per pair.

    Pairs overlapping on fewer than MIN_OVERLAP indices get weight 1.
    """
    n = table.series_count
    if n < 2:
        raise ValidationError("correlation_graph needs at least 2 series")
    g = complete_graph(n)
    if table.is_aligned() and table.times[0].size >= MIN_OVERLAP:
        matrix = table.value_matrix()
        centered = matrix - matrix.mean(axis=1, keepdims=True)
        norms = np.einsum("ij,ij->i", centered, centered)
        covs = centered @ centered.T
        weights = []
        for i, j in g.edges:
            if norms[i] == 0.0 or norms[j] == 0.0:
                r2 = 0.0
            else:
                r2 = min(1.0, covs[i, j] ** 2 / (norms[i] * norms[j]))
            weights.append(1.0 - r2)
    else:
        weights = []
        for i, j in g.edges:
            xi, xj = table.overlap(i, j)
            if xi.size < MIN_OVERLAP:
                weights.append(1.0)
            else:
                weights.append(1.0 - r_squared(xi, xj))
    return WeightedGraph(
        n,
        g.edges,
        tuple(weights),
        vertex_labels=tuple(table.names),
        vertex_coords=tuple(table.coords) if table.coords is not None else None,
    )


def metric_graph(points) -> WeightedGraph:
    """Complete graph on planar points, weighted by Euclidean distance."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValidationError("metric_graph needs at least 2 points")
    g = complete_graph(len(pts))
    weights = tuple(
        math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) for i, j in g.edges
    )
    return WeightedGraph(len(pts), g.edges, weights, vertex_coords=tuple(pts))

"""Aligned collections of named scalar time series with missing-value support."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class SeriesTable:
    """One integer-indexed value series per name; indices strictly increasing.

    Missing values are simply absent indices.  Optional per-series planar
    coordinates survive into graphs built from the table.
    """

    names: list[str]
    times: list[np.ndarray]
    values: list[np.ndarray]
    coords: list[tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.times) == len(self.values)):
            raise ValidationError("names, times and values must align")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("series names must be unique")
        if self.coords is not None and len(self.coords) != len(self.names):
            raise ValidationError("coords must align with series")
        for k, (t, v) in enumerate(zip(self.times, self.values)):
            t = np.asarray(t, dtype=np.int64)
            v = np.asarray(v, dtype=float)
            if t.shape != v.shape or t.ndim != 1:
                raise ValidationError(f"series {self.names[k]!r}: times/values shape mismatch")
            if t.size > 1 and not (np.diff(t) > 0).all():
                raise ValidationError(
                    f"series {self.names[k]!r}: time indices must be strictly increasing"
                )
            self.times[k] = t
            self.values[k] = v

    @property
    def series_count(self) -> int:
        return len(self.names)

    def is_aligned(self) -> bool:
        """True when every series lives on one common time grid."""
        if not self.times:
            return True
        first = self.times[0]
        return all(t.shape == first.shape and (t == first).all() for t in self.times[1:])

    def value_matrix(self) -> np.ndarray:
        """(series x time) matrix; only valid for aligned tables."""
        if not self.is_aligned():
            raise ValidationError("value_matrix requires an aligned table")
        return np.vstack(self.values) if self.values else np.zeros((0, 0))

    def overlap(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Paired values of series i and j on their common time indices."""
        common, ia, ja = np.intersect1d(
            self.times[i], self.times[j], assume_unique=True, return_indices=True
        )
        del common
        return self.values[i][ia], self.values[j][ja]


def aligned_table(names, matrix, coords=None) -> SeriesTable:
    """SeriesTable for fully observed series on the time grid 0..T-1."""
    matrix = np.asarray(matrix, dtype=float)
    t = np.arange(matrix.shape[1], dtype=np.int64)
    return SeriesTable(
        list(names),
        [t.copy() for _ in range(matrix.shape[0])],
        [matrix[k].copy() for k in range(matrix.shape[0])],
        coords,
    )

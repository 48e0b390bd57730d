"""Persistence of discrete cubical homology over a weighted-graph filtration.

The chain complex of the final-stage graph is enumerated once; each cube gets
the filtration value at which it first exists (the max weight among its image
edges), and one global GF(2) column reduction of the filtered complex yields
the birth/death pairing.  The elder rule is realized by the basis order:
earlier-born columns win merges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .cubical import DEFAULT_CUBE_CAP, ChainComplexZ2, corner_pairs, enumerate_cubes
from .diagrams import INF, PersistenceDiagram, PersistencePair
from .errors import ValidationError
from .graphs import WeightedGraph


@dataclass
class FilteredComplex:
    """A chain complex plus a filtration value per basis cube.

    values[d][i] is the value of complex.basis[d][i].  Each basis[d] is in
    filtration order: sorted by (value, vertex tuple), so values[d] is
    non-decreasing and reduce() walks the boundary columns and rows as
    stored.  Faces never appear later than the cubes they bound, and 0-cubes
    sit at value 0.
    """

    complex: ChainComplexZ2
    values: list[list[float]]
    span: tuple[float, float]

    @property
    def max_dim(self) -> int:
        return self.complex.max_dim


def assign_filtration(
    g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP
) -> FilteredComplex:
    """Cubes up to max_dim+1, each at the max weight of its image edges (0-cubes at 0)."""
    if g.weights is None:
        raise ValidationError("filtration requires edge weights")
    # w[a, b]: weight of edge ab; a constant pair reads the diagonal's 0.0
    w = np.zeros((g.vertex_count, g.vertex_count))
    a, b = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    w[a, b] = w[b, a] = g.weights
    basis, values = [], []
    for d, cubes in enumerate(enumerate_cubes(g, max_dim + 1, cap=cap)):
        corners = np.array(cubes, dtype=np.intp).reshape(-1, 1 << d)
        vals = np.zeros(len(cubes))
        for side in corner_pairs(d):
            for x, y in side:
                np.maximum(vals, w[corners[:, x], corners[:, y]], out=vals)
        # cubes arrive sorted by vertex tuple, so a stable sort on the value
        # orders them by (value, vertex tuple)
        order = np.argsort(vals, kind="stable")
        values.append(vals[order].tolist())
        basis.append([cubes[i] for i in order.tolist()])
        del corners  # so it is not held while the boundary matrices are built
    hi = max(g.weights, default=0.0)
    return FilteredComplex(ChainComplexZ2(max_dim, basis), values, (0.0, hi))


def reduce(fc: FilteredComplex, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the filtration in the given dimension.

    Zero-length pairs are dropped; unpaired classes die at infinity.  Each
    dimension-1 pair keeps the representative cycle accumulated at birth.
    Columns are reduced in stored order, so a complex whose values[d]
    decrease anywhere is rejected.
    """
    if not 0 <= dim <= fc.max_dim:
        raise ValidationError(f"dimension {dim} outside filtered range 0..{fc.max_dim}")
    for vals in fc.values:
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValidationError("filtration values must be non-decreasing in basis order")
    basis_d = fc.complex.basis[dim]
    vals_d = fc.values[dim]

    # phase 1: reduce boundary[dim]; columns reducing to zero create classes
    births: list[tuple[int, float, tuple | None]] = []  # (column, value, representative)
    if dim == 0:
        births = [(i, 0.0, None) for i in range(len(basis_d))]
    else:
        pivots: dict[int, int] = {}
        chains: dict[int, int] = {}
        for i, col in enumerate(fc.complex.boundary[dim]):
            chain = 1 << i
            while col:
                p = col.bit_length() - 1
                if p not in pivots:
                    break
                col ^= pivots[p]
                chain ^= chains[p]
            if col:
                p = col.bit_length() - 1
                pivots[p] = col
                chains[p] = chain
            else:
                rep = None
                if dim == 1:
                    rep = tuple(basis_d[j] for j in gf2.rows_of_column(chain))
                births.append((i, vals_d[i], rep))

    birth_at: dict[int, tuple[float, tuple | None]] = {i: (v, r) for i, v, r in births}

    # phase 2: reduce boundary[dim+1]; committed pivots kill classes.  The
    # reduced column is itself a cycle whose youngest cube sits at the birth
    # value, so it is both a birth-stage representative and a boundary at the
    # death threshold; finite pairs carry it.
    pairs: list[PersistencePair] = []
    killed: set[int] = set()
    if dim + 1 < len(fc.complex.basis):
        vals_hi = fc.values[dim + 1]
        pivots = {}
        for j, col in enumerate(fc.complex.boundary[dim + 1]):
            col = gf2.reduce(col, pivots)
            if col == 0:
                continue
            p = col.bit_length() - 1
            pivots[p] = col
            if p not in birth_at:
                raise ValidationError("pivot landed on a non-creating column; basis unsorted?")
            killed.add(p)
            birth, _ = birth_at[p]
            if vals_hi[j] > birth:
                rep = None
                if dim == 1:
                    rep = tuple(basis_d[r] for r in gf2.rows_of_column(col))
                pairs.append(PersistencePair(birth, vals_hi[j], rep))

    for i, (birth, rep) in birth_at.items():
        if i not in killed:
            pairs.append(PersistencePair(birth, INF, rep))
    return PersistenceDiagram(dim, pairs, span=fc.span, method="cubical")

"""Persistence of discrete cubical homology over a weighted-graph filtration.

The chain complex of the final-stage graph is enumerated once; each cube gets
the filtration value at which it first exists (the max weight among its image
edges), and one global GF(2) column reduction of the filtered complex yields
the birth/death pairing.  The elder rule is realized by the sort order:
earlier-born columns win merges.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .cubical import (
    DEFAULT_CUBE_CAP,
    ChainComplexZ2,
    SingularCube,
    chain_complex,
)
from .diagrams import INF, PersistenceDiagram, PersistencePair
from .errors import ValidationError
from .graphs import WeightedGraph


@dataclass
class FilteredComplex:
    """A chain complex plus a filtration value per basis cube.

    values[d][i] is the value of complex.basis[d][i]; faces never appear
    later than the cubes they bound, and 0-cubes sit at value 0.
    """

    complex: ChainComplexZ2
    values: list[list[float]]
    span: tuple[float, float]

    @property
    def max_dim(self) -> int:
        return self.complex.max_dim


def cube_value(cube: SingularCube, g: WeightedGraph) -> float:
    """Max weight over the cube's distinct-endpoint image edges; 0 if none."""
    n = cube.dimension
    a = cube.assignment
    value = 0.0
    for v in range(1 << n):
        for i in range(n):
            u = v ^ (1 << i)
            if u > v and a[u] != a[v]:
                value = max(value, g.weight_of(a[u], a[v]))
    return value


def assign_filtration(
    g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP
) -> FilteredComplex:
    """Filtered cubical chain complex of a weighted graph, up to max_dim+1."""
    if g.weights is None:
        raise ValidationError("filtration requires edge weights")
    cx = chain_complex(g, max_dim, cap=cap)
    values = [[cube_value(c, g) for c in basis] for basis in cx.basis]
    hi = max((w for w in g.weights), default=0.0)
    return FilteredComplex(cx, values, (0.0, hi))


def _sorted_order(fc: FilteredComplex, d: int) -> list[int]:
    vals = fc.values[d]
    return sorted(range(len(vals)), key=lambda i: (vals[i], fc.complex.basis[d][i].assignment))


def reduce(fc: FilteredComplex, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the filtration in the given dimension.

    Zero-length pairs are dropped; unpaired classes die at infinity.  Each
    dimension-1 pair keeps the representative cycle accumulated at birth.
    """
    if not 0 <= dim <= fc.max_dim:
        raise ValidationError(f"dimension {dim} outside filtered range 0..{fc.max_dim}")
    order_d = _sorted_order(fc, dim)
    pos_d = {c: i for i, c in enumerate(order_d)}
    vals_d = fc.values[dim]

    # phase 1: reduce boundary[dim]; columns reducing to zero create classes
    births: list[tuple[int, float, tuple | None]] = []  # (sorted pos, value, representative)
    if dim == 0:
        for i, c in enumerate(order_d):
            births.append((i, 0.0, None))
    else:
        pos_low = {c: i for i, c in enumerate(_sorted_order(fc, dim - 1))}
        bd = fc.complex.boundary[dim]
        basis_d = fc.complex.basis[dim]
        pivots: dict[int, int] = {}
        chains: dict[int, int] = {}
        for i, c in enumerate(order_d):
            col = _permute_column(bd[c], pos_low)
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
                    rep = tuple(
                        basis_d[order_d[j]].assignment
                        for j in gf2.rows_of_column(chain)
                    )
                births.append((i, vals_d[c], rep))

    birth_at: dict[int, tuple[float, tuple | None]] = {i: (v, r) for i, v, r in births}

    # phase 2: reduce boundary[dim+1]; committed pivots kill classes.  The
    # reduced column is itself a cycle whose youngest cube sits at the birth
    # value, so it is both a birth-stage representative and a boundary at the
    # death threshold; finite pairs carry it.
    pairs: list[PersistencePair] = []
    killed: set[int] = set()
    if dim + 1 < len(fc.complex.basis):
        basis_d = fc.complex.basis[dim]
        order_hi = _sorted_order(fc, dim + 1)
        vals_hi = fc.values[dim + 1]
        bd_hi = fc.complex.boundary[dim + 1]
        reducer = gf2.ColumnReducer()
        for c in order_hi:
            col = reducer.reduce(_permute_column(bd_hi[c], pos_d))
            if col == 0:
                continue
            p = col.bit_length() - 1
            reducer.pivots[p] = col
            if p not in birth_at:
                raise ValidationError("pivot landed on a non-creating column; basis unsorted?")
            killed.add(p)
            birth, _ = birth_at[p]
            if vals_hi[c] > birth:
                rep = None
                if dim == 1:
                    rep = tuple(
                        basis_d[order_d[j]].assignment for j in gf2.rows_of_column(col)
                    )
                pairs.append(PersistencePair(birth, vals_hi[c], rep))

    for i, (birth, rep) in birth_at.items():
        if i not in killed:
            pairs.append(PersistencePair(birth, INF, rep))
    return PersistenceDiagram(dim, pairs, span=fc.span, method="cubical")


def _permute_column(col: int, new_pos: dict[int, int]) -> int:
    out = 0
    while col:
        low = col & -col
        out |= 1 << new_pos[low.bit_length() - 1]
        col ^= low
    return out


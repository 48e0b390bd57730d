"""Discrete cubical homology over Z/2.

A singular n-cube in a graph G is a graph map from the discrete n-cube into
G, stored as the plain tuple of its 2^n vertices.  Tuple entries are indexed
by bit-vectors (x_1, ..., x_n) packed with x_1 as the least significant bit,
so a tuple of length 2^n is an n-cube.  Faces fix one coordinate, and the
boundary of a cube is the mod-2 sum of its non-degenerate faces.  Homology is
the kernel-mod-image of the resulting chain complex of non-degenerate cubes;
its Betti numbers are the bars that never die in a filtration ending at G.
The engine gives degrees 0 and 1 without a cube, persistence the rest.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import gf2
from .diagrams import INF
from .engine import weighted_graph_persistence
from .errors import ResourceCapError, ValidationError
from .graphs import WeightedGraph

NEGATIVE = 0
POSITIVE = 1

#: Default cap on the number of cubes enumerated in any single dimension.
DEFAULT_CUBE_CAP = 5_000_000


@functools.cache
def corner_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per coordinate i = 0..n-1, the corner pairs (x, x | 1 << i) with bit i of x clear.

    Pairs run in increasing x, so side NEGATIVE (POSITIVE) of coordinate i's
    pairs lists the corners of the face fixing x_(i+1) to 0 (1) in that
    face's own corner order.
    """
    return tuple(
        tuple((x, x | 1 << i) for x in range(1 << n) if not x >> i & 1) for i in range(n)
    )


def _dimension(cube: tuple[int, ...]) -> int:
    """n for a tuple of 2^n vertices; ValidationError for any other length."""
    size = len(cube)
    if size == 0 or size & (size - 1):
        raise ValidationError(f"a cube needs 2^n vertices, got {size}")
    return size.bit_length() - 1


def face(cube: tuple[int, ...], i: int, sign: int) -> tuple[int, ...]:
    """The (n-1)-cube with coordinate i fixed to 0 (NEGATIVE) or 1 (POSITIVE).

    i is 1-based, matching the usual face-map indexing.
    """
    n = _dimension(cube)
    if not 1 <= i <= n:
        raise ValidationError(f"face index {i} out of range 1..{n}")
    if sign not in (NEGATIVE, POSITIVE):
        raise ValidationError("sign must be NEGATIVE (0) or POSITIVE (1)")
    return tuple(cube[pair[sign]] for pair in corner_pairs(n)[i - 1])


def is_degenerate(cube: tuple[int, ...]) -> bool:
    """True iff two opposite faces coincide; 0-cubes are never degenerate."""
    return any(
        all(cube[x] == cube[y] for x, y in pairs) for pairs in corner_pairs(_dimension(cube))
    )


def enumerate_cubes(
    g: WeightedGraph,
    max_dim: int,
    cap: int = DEFAULT_CUBE_CAP,
) -> list[list[tuple[int, ...]]]:
    """All non-degenerate cubes of g per dimension 0..max_dim.

    An n-cube is a pair of (n-1)-cubes that are pointwise adjacent-or-equal,
    so each dimension is built from the previous one (including its
    degenerate members) instead of brute-forcing |V|^(2^n) assignments.
    Each dimension's list is sorted lexicographically on the vertex tuple;
    assign_filtration re-sorts by filtration value with this order breaking
    ties.  Raises ResourceCapError when any dimension would exceed `cap`
    cubes.
    """
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    masks = g.neighbor_masks()
    # every_cube holds every cube of the current dimension, degenerate or not
    every_cube: list[tuple[int, ...]] = [(v,) for v in range(g.vertex_count)]
    result = [every_cube]
    for dim in range(1, max_dim + 1):
        prev = every_cube
        prev_set = set(prev)
        nxt: list[tuple[int, ...]] = []
        half = 1 << (dim - 1)
        for a0 in prev:
            # candidate upper halves: pointwise closed neighborhoods of a0
            compatible = [masks[a0[j]] | (1 << a0[j]) for j in range(half)]
            count = 1
            for m in compatible:
                count *= m.bit_count()
                if count > len(prev):
                    break
            if count <= len(prev):
                for a1 in itertools.product(*[gf2.rows_of_column(m) for m in compatible]):
                    if dim == 1 or a1 in prev_set:
                        nxt.append(a0 + a1)
            else:
                for a1 in prev:
                    if all((compatible[j] >> a1[j]) & 1 for j in range(half)):
                        nxt.append(a0 + a1)
            if len(nxt) > cap:
                raise ResourceCapError(
                    f"more than {cap} cubes in dimension {dim}; "
                    "raise the cap or lower max_dim"
                )
        nxt.sort()
        every_cube = nxt
        result.append([c for c in nxt if not is_degenerate(c)])
    return result


@dataclass
class ChainComplexZ2:
    """Per-dimension bases of non-degenerate cubes and GF(2) boundary matrices.

    boundary[d] maps basis[d] to basis[d-1]: column j is basis[d][j] and row
    i is basis[d-1][i], so both follow the order the bases are given in.
    boundary[0] is the zero matrix.
    """

    max_dim: int
    basis: list[list[tuple[int, ...]]]
    boundary: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.boundary:
            self.boundary = [[0] * len(self.basis[0])]
            for d in range(1, len(self.basis)):
                self.boundary.append(boundary_matrix(self.basis, d))


def boundary_matrix(basis: list[list[tuple[int, ...]]], d: int) -> list[int]:
    """Column per d-cube: mod-2 sum of its faces, degenerate faces dropped."""
    if d < 1:
        raise ValidationError("boundary_matrix requires d >= 1")
    if d >= len(basis):
        raise ValidationError(f"no dimension-{d} basis available")
    row_index = {c: i for i, c in enumerate(basis[d - 1])}
    sides = [
        tuple(pair[sign] for pair in pairs)
        for pairs in corner_pairs(d)
        for sign in (NEGATIVE, POSITIVE)
    ]
    columns = []
    for cube in basis[d]:
        col = 0
        for side in sides:
            f = tuple([cube[x] for x in side])
            row = row_index.get(f)
            if row is not None:
                col ^= 1 << row
            elif not is_degenerate(f):
                raise ValidationError(f"face {f} of {cube} missing from basis")
        columns.append(col)
    return columns


def chain_complex(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP) -> ChainComplexZ2:
    basis = enumerate_cubes(g, max_dim + 1, cap=cap)
    return ChainComplexZ2(max_dim, basis)


def betti_numbers(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP) -> list[int]:
    """beta_0..beta_max_dim: the bars that never die when every edge enters at 1.0.

    (Zomorodian and Carlsson, "Computing persistent homology", DCG 2005.)
    Degrees 0 and 1 come from the engine; degrees >= 2 from persistence.reduce
    over the cubes up to max_dim + 1, whose enumeration `cap` bounds.
    """
    from .persistence import assign_filtration, reduce

    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    g = g.with_uniform_weights(1.0)
    result = weighted_graph_persistence(g)
    diagrams = [result.h0, result.h1][: max_dim + 1]
    if max_dim >= 2:
        fc = assign_filtration(g, max_dim, cap=cap)
        diagrams += [reduce(fc, d) for d in range(2, max_dim + 1)]
    return [sum(p.death == INF for p in diagram.pairs) for diagram in diagrams]

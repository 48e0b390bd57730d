"""Discrete cubical homology over Z/2.

A singular n-cube in a graph G is a graph map from the discrete n-cube into
G, stored as a vertex assignment of length 2^n.  Assignment entries are
indexed by bit-vectors (x_1, ..., x_n) packed with x_1 as the least
significant bit; faces fix one coordinate, and the boundary of a cube is the
mod-2 sum of its non-degenerate faces.  Homology is the kernel-mod-image of
the resulting chain complex of non-degenerate cubes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import gf2
from .errors import ResourceCapError, ValidationError
from .graphs import WeightedGraph

NEGATIVE = 0
POSITIVE = 1

#: Default cap on the number of cubes enumerated in any single dimension.
DEFAULT_CUBE_CAP = 5_000_000


@dataclass(frozen=True)
class SingularCube:
    dimension: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != 1 << self.dimension:
            raise ValidationError(
                f"a {self.dimension}-cube needs {1 << self.dimension} assignment entries, "
                f"got {len(self.assignment)}"
            )


def face(cube: SingularCube, i: int, sign: int) -> SingularCube:
    """The (n-1)-cube with coordinate i fixed to 0 (NEGATIVE) or 1 (POSITIVE).

    i is 1-based, matching the usual face-map indexing.
    """
    n = cube.dimension
    if not 1 <= i <= n:
        raise ValidationError(f"face index {i} out of range 1..{n}")
    if sign not in (NEGATIVE, POSITIVE):
        raise ValidationError("sign must be NEGATIVE (0) or POSITIVE (1)")
    a = cube.assignment
    low_mask = (1 << (i - 1)) - 1
    picked = tuple(
        a[(j & low_mask) | (sign << (i - 1)) | ((j >> (i - 1)) << i)]
        for j in range(1 << (n - 1))
    )
    return SingularCube(n - 1, picked)


def is_degenerate(cube: SingularCube) -> bool:
    """True iff two opposite faces coincide; 0-cubes are never degenerate."""
    n = cube.dimension
    a = cube.assignment
    for i in range(1, n + 1):
        low_mask = (1 << (i - 1)) - 1
        bit = 1 << (i - 1)
        for j in range(1 << (n - 1)):
            src = (j & low_mask) | ((j >> (i - 1)) << i)
            if a[src] != a[src | bit]:
                break
        else:
            return True
    return False


def enumerate_cubes(
    g: WeightedGraph,
    max_dim: int,
    cap: int = DEFAULT_CUBE_CAP,
) -> list[list[SingularCube]]:
    """All non-degenerate cubes of g per dimension 0..max_dim, in canonical order.

    An n-cube is a pair of (n-1)-cubes that are pointwise adjacent-or-equal,
    so each dimension is built from the previous one (including its
    degenerate members) instead of brute-forcing |V|^(2^n) assignments.
    Canonical order is lexicographic on the assignment.  Raises
    ResourceCapError when any dimension would exceed `cap` cubes.
    """
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    masks = g.neighbor_masks()
    # all_assignments[d] holds every d-cube assignment, degenerate or not
    all_assignments: list[tuple[int, ...]] = [(v,) for v in range(g.vertex_count)]
    result: list[list[SingularCube]] = [
        [SingularCube(0, a) for a in all_assignments]
    ]
    for dim in range(1, max_dim + 1):
        prev = all_assignments
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
        all_assignments = nxt
        result.append(
            [
                c
                for a in nxt
                if not is_degenerate(c := SingularCube(dim, a))
            ]
        )
    return result


@dataclass
class ChainComplexZ2:
    """Per-dimension bases of non-degenerate cubes and GF(2) boundary matrices.

    boundary[d] maps basis[d] to basis[d-1], one bitset column per d-cube;
    boundary[0] is the zero matrix.
    """

    max_dim: int
    basis: list[list[SingularCube]]
    boundary: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.boundary:
            self.boundary = [[0] * len(self.basis[0])]
            for d in range(1, len(self.basis)):
                self.boundary.append(boundary_matrix(self.basis, d))


def boundary_matrix(basis: list[list[SingularCube]], d: int) -> list[int]:
    """Column per d-cube: mod-2 sum of its faces, degenerate faces dropped."""
    if d < 1:
        raise ValidationError("boundary_matrix requires d >= 1")
    if d >= len(basis):
        raise ValidationError(f"no dimension-{d} basis available")
    row_index = {c.assignment: i for i, c in enumerate(basis[d - 1])}
    columns = []
    for cube in basis[d]:
        col = 0
        for i in range(1, d + 1):
            for sign in (NEGATIVE, POSITIVE):
                f = face(cube, i, sign)
                if is_degenerate(f):
                    continue
                try:
                    col ^= 1 << row_index[f.assignment]
                except KeyError:
                    raise ValidationError(
                        f"face {f.assignment} of {cube.assignment} missing from basis"
                    ) from None
        columns.append(col)
    return columns


def chain_complex(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP) -> ChainComplexZ2:
    basis = enumerate_cubes(g, max_dim + 1, cap=cap)
    return ChainComplexZ2(max_dim, basis)


def betti_numbers(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CUBE_CAP) -> list[int]:
    """Betti numbers beta_0..beta_max_dim of the discrete cubical complex.

    beta_d = dim ker boundary[d] - rank boundary[d+1] over GF(2).
    """
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    cx = chain_complex(g, max_dim, cap=cap)
    ranks = [gf2.rank(m) for m in cx.boundary]
    betti = []
    for d in range(max_dim + 1):
        kernel = len(cx.basis[d]) - ranks[d]
        betti.append(kernel - ranks[d + 1])
    return betti

"""Test oracles: reference code the graphhom package is checked against.

None of it runs in the production path.  The sections are:

* textbook simplex-wise persistence, the oracle for graphhom.engine.
  Simplices are capped at dimension 2 (vertices, edges, triangles); an edge
  enters at its weight and a triangle at the max of its three edge weights.
  Persistence is the standard single-matrix GF(2) column reduction over the
  simplices sorted by (value, dimension, lexicographic).  That is flag-complex
  persistence.  With ``squares=True`` every 4-cycle also enters as a 2-cell,
  at the max of its four edge weights; the degree-0/1 diagrams are then those
  of discrete cubical persistence;
* stage-wise Betti numbers and the diagram wrapper over the cube-level
  reduction in graphhom.persistence;
* a brute-force bottleneck distance over every matching;
* graph maps, components, eccentricity and threshold subgraphs;
* GF(2) helpers: columns from rows, span membership, matrix times column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from graphhom import gf2
from graphhom.cubical import DEFAULT_CUBE_CAP
from graphhom.diagrams import INF, PersistenceDiagram, PersistencePair
from graphhom.errors import ValidationError
from graphhom.gf2 import rows_of_column
from graphhom.graphs import WeightedGraph, all_pairs_distances
from graphhom.persistence import FilteredComplex, assign_filtration, reduce

Simplex = tuple[int, ...]


def triangles(g: WeightedGraph) -> list[tuple[Simplex, float]]:
    """All 3-cliques with their max pairwise weight, in lexicographic order.

    Unweighted graphs get value 0 for every triangle.
    """
    masks = g.neighbor_masks()
    out = []
    for u, v in g.edges:
        common = (masks[u] & masks[v]) >> (v + 1)
        while common:
            low = common & -common
            x = low.bit_length() + v
            common ^= low
            if g.weights is None:
                value = 0.0
            else:
                value = max(g.weight_of(u, v), g.weight_of(u, x), g.weight_of(v, x))
            out.append(((u, v, x), value))
    out.sort()
    return out


def four_cycles(g: WeightedGraph) -> list[tuple[Simplex, float]]:
    """All 4-cycles a-b-c-d-a with their max edge weight, in lexicographic order.

    Each cycle appears once, as (a, b, c, d) with a its smallest vertex and
    b < d; diagonals may be present.  Requires edge weights.
    """
    masks = g.neighbor_masks()
    weight = dict(zip(g.edges, g.weights))
    out = []
    for a in range(g.vertex_count):
        for c in range(a + 1, g.vertex_count):
            common = rows_of_column((masks[a] & masks[c]) >> (a + 1) << (a + 1))
            for i, b in enumerate(common):
                for d in common[i + 1:]:
                    cycle = (a, b, c, d)
                    value = max(weight[e] for e in _cycle_edges(cycle))
                    out.append((cycle, value))
    out.sort()
    return out


def _cycle_edges(cycle: Simplex) -> list[Simplex]:
    """Edges of the 4-cycle (a, b, c, d), a its smallest vertex."""
    a, b, c, d = cycle
    return [(a, b), (a, d), (min(b, c), max(b, c)), (min(c, d), max(c, d))]


def _facets(simplex: Simplex) -> list[Simplex]:
    if len(simplex) == 4:
        return _cycle_edges(simplex)
    if len(simplex) == 1:
        return []
    return [simplex[:k] + simplex[k + 1:] for k in range(len(simplex))]


@dataclass
class FlagFiltration:
    """Simplices up to dimension 2, sorted by (value, dimension, lexicographic)."""

    simplices: list[tuple[float, Simplex]]

    @property
    def size(self) -> int:
        return len(self.simplices)


def build_flag_filtration(
    g: WeightedGraph, max_dim: int = 1, squares: bool = False
) -> FlagFiltration:
    if g.weights is None:
        raise ValidationError("flag filtration requires edge weights")
    entries: list[tuple[float, int, Simplex]] = [(0.0, 0, (v,)) for v in range(g.vertex_count)]
    entries += [(w, 1, e) for e, w in zip(g.edges, g.weights)]
    if max_dim >= 1:
        entries += [(value, 2, tri) for tri, value in triangles(g)]
        if squares:
            entries += [(value, 2, cycle) for cycle, value in four_cycles(g)]
    entries.sort()
    return FlagFiltration([(value, simplex) for value, _, simplex in entries])


def flag_persistence(
    g: WeightedGraph, max_dim: int = 1, squares: bool = False
) -> list[PersistenceDiagram]:
    """H0..H_max_dim diagrams of the flag complex over GF(2); max_dim <= 1.

    With squares=True, 4-cycles are 2-cells too (cubical persistence).
    """
    if not 0 <= max_dim <= 1:
        raise ValidationError("flag persistence supports max_dim 0 or 1 only")
    filtration = build_flag_filtration(g, max_dim, squares)
    position = {simplex: i for i, (_, simplex) in enumerate(filtration.simplices)}
    values = [value for value, _ in filtration.simplices]

    # pivot row -> reduced column.  A killer 2-cell's reduced column is a
    # cycle whose youngest edge is the birth edge: it represents the finite
    # pair it closes.  Infinite pairs keep the cycle accumulated when their
    # edge column reduced to zero.
    pivots: dict[int, int] = {}
    owner: dict[int, int] = {}
    edge_chains: dict[int, int] = {}
    positive: list[bool] = []
    killer_of: dict[int, int] = {}
    birth_reps: dict[int, tuple] = {}
    death_reps: dict[int, tuple] = {}

    for j, (_, simplex) in enumerate(filtration.simplices):
        col = 0
        for facet in _facets(simplex):
            col |= 1 << position[facet]
        is_edge = len(simplex) == 2
        chain = 1 << j if is_edge else 0
        while col:
            p = col.bit_length() - 1
            if p not in pivots:
                break
            if is_edge:
                chain ^= edge_chains[owner[p]]
            col ^= pivots[p]
        if col:
            p = col.bit_length() - 1
            pivots[p] = col
            owner[p] = j
            positive.append(False)
            killer_of[p] = j
            if len(simplex) >= 3:
                death_reps[p] = tuple(filtration.simplices[i][1] for i in rows_of_column(col))
        else:
            positive.append(True)
            if is_edge:
                birth_reps[j] = tuple(filtration.simplices[i][1] for i in rows_of_column(chain))
        if is_edge:
            edge_chains[j] = chain

    diagrams = []
    span = (0.0, max(values) if values else 0.0)
    method = "cubical" if squares else "flag"
    for d in range(max_dim + 1):
        pairs = []
        for i, (_, simplex) in enumerate(filtration.simplices):
            if len(simplex) != d + 1 or not positive[i]:
                continue
            j = killer_of.get(i)
            if j is None:
                pairs.append(PersistencePair(values[i], INF, birth_reps.get(i)))
            elif values[j] > values[i]:
                pairs.append(PersistencePair(values[i], values[j], death_reps.get(i)))
        diagrams.append(PersistenceDiagram(d, pairs, span=span, method=method))
    return diagrams


# -- cube-level reduction: stage-wise Betti numbers ---------------------------


def persistence_diagrams(
    g: WeightedGraph, max_dim: int = 1, cap: int = DEFAULT_CUBE_CAP
) -> list[PersistenceDiagram]:
    """Filtered complex plus graphhom.persistence.reduce() per dimension."""
    fc = assign_filtration(g, max_dim, cap=cap)
    return [reduce(fc, d) for d in range(max_dim + 1)]


def betti_at(fc: FilteredComplex, r: float, dim: int) -> int:
    """Betti number of the filtration stage at value <= r, recomputed from scratch.

    The stage-wise oracle for reduce(): it must equal the number of diagram
    pairs with birth <= r < death.
    """
    if not 0 <= dim <= fc.max_dim:
        raise ValidationError(f"dimension {dim} outside filtered range 0..{fc.max_dim}")
    alive = [i for i, v in enumerate(fc.values[dim]) if v <= r]
    if not alive:
        return 0
    rank_d = 0
    if dim > 0:
        # faces of alive cubes are themselves alive by value monotonicity
        bd = fc.complex.boundary[dim]
        rank_d = gf2.rank(bd[i] for i in alive)
    rank_hi = 0
    if dim + 1 < len(fc.complex.basis):
        bd_hi = fc.complex.boundary[dim + 1]
        rank_hi = gf2.rank(bd_hi[j] for j, v in enumerate(fc.values[dim + 1]) if v <= r)
    return len(alive) - rank_d - rank_hi


def count_alive_at(diag: PersistenceDiagram, r: float) -> int:
    """Pairs of the diagram with birth <= r < death."""
    return sum(1 for p in diag.pairs if p.birth <= r < p.death)


# -- brute-force bottleneck ---------------------------------------------------


def _linf(a, b) -> float:
    db = abs(a[0] - b[0])
    if math.isinf(a[1]) or math.isinf(b[1]):
        dd = 0.0 if math.isinf(a[1]) and math.isinf(b[1]) else math.inf
    else:
        dd = abs(a[1] - b[1])
    return max(db, dd)


def _half_persistence(a) -> float:
    return math.inf if math.isinf(a[1]) else (a[1] - a[0]) / 2.0


def matching_cost(
    matching: list[tuple[int, int]],
    p: PersistenceDiagram,
    q: PersistenceDiagram,
) -> float:
    """Cost of a matching given as (index into p, index into q) pairs.

    Max of the matched L-infinity distances and the half-persistences of the
    unmatched points on either side; 0 when everything is empty.
    """
    pp = p.births_deaths()
    qq = q.births_deaths()
    matched_p = {i for i, _ in matching}
    matched_q = {j for _, j in matching}
    if len(matched_p) != len(matching) or len(matched_q) != len(matching):
        raise ValidationError("matching must be injective on both sides")
    for i, j in matching:
        if not (0 <= i < len(pp) and 0 <= j < len(qq)):
            raise ValidationError("matching index out of range")
    cost = 0.0
    for i, j in matching:
        cost = max(cost, _linf(pp[i], qq[j]))
    for i, a in enumerate(pp):
        if i not in matched_p:
            cost = max(cost, _half_persistence(a))
    for j, b in enumerate(qq):
        if j not in matched_q:
            cost = max(cost, _half_persistence(b))
    return cost


def bottleneck_bruteforce(p: PersistenceDiagram, q: PersistenceDiagram) -> float:
    """Exact minimum over all matchings by exhaustive enumeration; |P|+|Q| <= 8."""
    pp = p.births_deaths()
    qq = q.births_deaths()
    if len(pp) + len(qq) > 8:
        raise ValidationError("brute force capped at 8 points total")
    best = math.inf
    q_indices = list(range(len(qq)))
    for k in range(min(len(pp), len(qq)) + 1):
        for p_subset in itertools.combinations(range(len(pp)), k):
            for q_perm in itertools.permutations(q_indices, k):
                best = min(best, matching_cost(list(zip(p_subset, q_perm)), p, q))
    return best


# -- graphs -------------------------------------------------------------------


def _adjacent_or_equal(g: WeightedGraph, u: int, v: int) -> bool:
    return u == v or (g.neighbor_masks()[u] >> v) & 1 == 1


@dataclass(frozen=True)
class GraphMap:
    source: WeightedGraph
    target: WeightedGraph
    assignment: tuple[int, ...]


def is_graph_map(f: GraphMap) -> bool:
    """True iff f sends every source edge to a target edge or a single vertex."""
    if len(f.assignment) != f.source.vertex_count:
        raise ValidationError("assignment length must equal source vertex count")
    for x in f.assignment:
        if not 0 <= x < f.target.vertex_count:
            raise ValidationError(f"assignment value {x} out of range")
    return all(
        _adjacent_or_equal(f.target, f.assignment[u], f.assignment[v])
        for u, v in f.source.edges
    )


def cube_is_valid(a: tuple[int, ...], g: WeightedGraph) -> bool:
    """True iff the vertex tuple defines a graph map from the n-cube into g."""
    n = len(a).bit_length() - 1
    if len(a) != 1 << n:
        raise ValidationError(f"a cube needs 2^n vertices, got {len(a)}")
    for x in a:
        if not 0 <= x < g.vertex_count:
            raise ValidationError(f"assignment value {x} out of range")
    for v in range(1 << n):
        for i in range(n):
            u = v ^ (1 << i)
            if u > v and not _adjacent_or_equal(g, a[v], a[u]):
                return False
    return True


def connected_components(g: WeightedGraph) -> list[int]:
    """Component id per vertex via union-find; ids are the minimal member."""
    parent = list(range(g.vertex_count))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return [find(v) for v in range(g.vertex_count)]


def eccentricity(g: WeightedGraph, x: int) -> float:
    """Max distance from x; raises on a disconnected graph."""
    row = all_pairs_distances(g)[x]
    if np.isinf(row).any():
        raise ValidationError("eccentricity is undefined on a disconnected graph")
    return float(row.max())


def threshold_subgraph(g: WeightedGraph, r: float) -> WeightedGraph:
    """Subgraph on all vertices with edges of weight <= r."""
    if g.weights is None:
        raise ValidationError("threshold requires edge weights")
    keep = [i for i, w in enumerate(g.weights) if w <= r]
    return WeightedGraph(
        g.vertex_count,
        tuple(g.edges[i] for i in keep),
        tuple(g.weights[i] for i in keep),
        g.vertex_labels,
        g.vertex_coords,
    )


# -- GF(2) --------------------------------------------------------------------


def column_from_rows(rows) -> int:
    col = 0
    for r in rows:
        col ^= 1 << r
    return col


def in_span(columns, target: int) -> bool:
    """True iff target lies in the GF(2) span of the given columns."""
    pivots: dict[int, int] = {}
    for col in columns:
        col = gf2.reduce(col, pivots)
        if col:
            pivots[col.bit_length() - 1] = col
    return gf2.reduce(target, pivots) == 0


def mul_column(columns: list[int], col: int) -> int:
    """The matrix with these columns applied to a column vector over them."""
    out = 0
    for k in rows_of_column(col):
        out ^= columns[k]
    return out

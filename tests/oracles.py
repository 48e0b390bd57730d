"""Textbook simplex-wise persistence: the test oracle for graphhom.engine.

Simplices are capped at dimension 2 (vertices, edges, triangles); an edge
enters at its weight and a triangle at the max of its three edge weights.
Persistence is the standard single-matrix GF(2) column reduction over the
simplices sorted by (value, dimension, lexicographic).  That is flag-complex
persistence.  With ``squares=True`` every 4-cycle also enters as a 2-cell, at
the max of its four edge weights; the degree-0/1 diagrams are then those of
discrete cubical persistence.
"""

from __future__ import annotations

from dataclasses import dataclass

from graphhom.diagrams import INF, PersistenceDiagram, PersistencePair
from graphhom.errors import ValidationError
from graphhom.gf2 import rows_of_column
from graphhom.graphs import WeightedGraph

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

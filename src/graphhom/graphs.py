"""Reflexive weighted graphs and the standard constructions on them.

Vertices are dense integers 0..n-1; labels and planar coordinates are side
tables.  Graphs are reflexive by convention: every vertex is implicitly
adjacent to itself and loops are never stored, so a graph map may send an
edge to a single vertex.  All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import ValidationError
from .gf2 import rows_of_column

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValidationError(f"self-loop ({u},{u}) is implicit and must not be stored")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected reflexive graph with optional edge weights.

    edges are canonical (u < v) and sorted; weights, when present, align with
    edges and must be finite and >= 0.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    weights: tuple[float, ...] | None = None
    vertex_labels: tuple[str, ...] | None = None
    vertex_coords: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValidationError("vertex_count must be nonnegative")
        norm = [(u, v) if u < v else (v, u) for u, v in self.edges]
        order = sorted(range(len(norm)), key=norm.__getitem__)
        edges = tuple([norm[i] for i in order])
        prev = None
        for e in edges:  # after the sort, duplicates are adjacent
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop ({u},{u}) is implicit and must not be stored")
            if u < 0 or v >= n:
                raise ValidationError(f"edge {e} out of range for {n} vertices")
            if e == prev:
                raise ValidationError(f"duplicate edge {e}")
            prev = e
        object.__setattr__(self, "edges", edges)
        if self.weights is not None:
            ws = self.weights
            if len(ws) != len(edges):
                raise ValidationError("weights must align with edges")
            for w in ws:
                if not (isinstance(w, (int, float)) and 0 <= w < math.inf):
                    raise ValidationError(f"edge weight {w!r} must be finite and >= 0")
            object.__setattr__(self, "weights", tuple([float(ws[i]) for i in order]))
        if self.vertex_labels is not None and len(self.vertex_labels) != n:
            raise ValidationError("vertex_labels must have one entry per vertex")
        if self.vertex_coords is not None and len(self.vertex_coords) != n:
            raise ValidationError("vertex_coords must have one entry per vertex")

    # -- views ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_index(self) -> dict[Edge, int]:
        cached = getattr(self, "_edge_index", None)
        if cached is None:
            cached = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_edge_index", cached)
        return cached

    def neighbor_masks(self) -> list[int]:
        """Adjacency as one int bitset per vertex (self bit not set)."""
        cached = getattr(self, "_neighbor_masks", None)
        if cached is None:
            masks = [0] * self.vertex_count
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            cached = masks
            object.__setattr__(self, "_neighbor_masks", cached)
        return cached

    def neighbors(self, v: int) -> list[int]:
        return rows_of_column(self.neighbor_masks()[v])

    def weight_of(self, u: int, v: int) -> float:
        if self.weights is None:
            raise ValidationError("graph has no edge weights")
        return self.weights[self.edge_index()[normalize_edge(u, v)]]

    # -- derived graphs --------------------------------------------------

    def with_weights(self, weights) -> "WeightedGraph":
        return WeightedGraph(
            self.vertex_count,
            self.edges,
            tuple(float(w) for w in weights),
            self.vertex_labels,
            self.vertex_coords,
        )

    def with_uniform_weights(self, w: float = 1.0) -> "WeightedGraph":
        return self.with_weights([w] * self.edge_count)

    def reweight_edges(self, new_weights: dict[Edge, float]) -> "WeightedGraph":
        if self.weights is None:
            raise ValidationError("graph has no edge weights to modify")
        idx = self.edge_index()
        weights = list(self.weights)
        for (u, v), w in new_weights.items():
            weights[idx[normalize_edge(u, v)]] = float(w)
        return self.with_weights(weights)


# -- standard constructions ------------------------------------------------


def line_graph(n: int) -> WeightedGraph:
    """Path with vertices 0..n and edges (i, i+1)."""
    if n < 0:
        raise ValidationError("line_graph requires n >= 0")
    return WeightedGraph(n + 1, tuple((i, i + 1) for i in range(n)))


def cycle_graph(n: int) -> WeightedGraph:
    """Cycle with vertices 0..n-1 and edges (i, i+1 mod n)."""
    if n < 3:
        raise ValidationError("cycle_graph requires n >= 3")
    return WeightedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def box_product(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Box product: edge iff one coordinate equal, the other adjacent.

    Vertex (v, w) is indexed v * h.vertex_count + w.
    """
    hn = h.vertex_count
    edges = []
    for v in range(g.vertex_count):
        for wu, wv in h.edges:
            edges.append((v * hn + wu, v * hn + wv))
    for gu, gv in g.edges:
        for w in range(hn):
            edges.append((gu * hn + w, gv * hn + w))
    return WeightedGraph(g.vertex_count * hn, tuple(edges))


def hypercube(n: int) -> WeightedGraph:
    """Discrete n-cube: 2^n bit-vector vertices, edges at Hamming distance 1."""
    if n < 0:
        raise ValidationError("hypercube requires n >= 0")
    edges = []
    for v in range(1 << n):
        for i in range(n):
            u = v ^ (1 << i)
            if u > v:
                edges.append((v, u))
    return WeightedGraph(1 << n, tuple(edges))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """rows x cols lattice; vertex (r, c) is indexed r * cols + c."""
    if rows < 1 or cols < 1:
        raise ValidationError("grid_graph requires positive dimensions")
    return box_product(line_graph(rows - 1), line_graph(cols - 1))


def greene_sphere() -> WeightedGraph:
    """The 10-vertex graph with a single two-dimensional hole.

    Vertex 0 is the apex, 1..4 and 5..8 the two middle layers, 9 the bottom.
    """
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges += [(1, 5), (1, 6), (2, 5), (2, 7), (3, 6), (3, 8), (4, 7), (4, 8)]
    edges += [(5, 9), (6, 9), (7, 9), (8, 9)]
    return WeightedGraph(10, tuple(edges))


def complete_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


# -- distances -------------------------------------------------------------


def all_pairs_distances(g: WeightedGraph) -> np.ndarray:
    """Weighted shortest-path distance matrix; inf for disconnected pairs.

    Unit weights are assumed when the graph carries none.
    """
    n = g.vertex_count
    if n == 0:
        return np.zeros((0, 0))
    if g.edge_count == 0:
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        return dist
    us = np.fromiter((e[0] for e in g.edges), dtype=np.intp)
    vs = np.fromiter((e[1] for e in g.edges), dtype=np.intp)
    if g.weights is None:
        ws = np.ones(len(us))
    else:
        ws = np.asarray(g.weights, dtype=float)
    mat = csr_matrix((np.concatenate([ws, ws]), (np.concatenate([us, vs]), np.concatenate([vs, us]))), shape=(n, n))
    dist = shortest_path(mat, method="D", directed=False)
    np.fill_diagonal(dist, 0.0)
    return dist


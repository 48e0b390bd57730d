"""Fast H0/H1 persistence of a weighted graph, on the undirected edge space.

Over Z/2 the boundary of any singular 2-cube collapses to one of: zero, an
oriented-edge pair [uv]+[vu], an oriented triangle, or an oriented
quadrilateral; the pairs are themselves boundaries at the same filtration
value as their edge.  Quotienting them out leaves the complex "vertices +
undirected edges + (triangles and 4-cycles)", whose H0/H1 diagrams (zero bars
dropped) coincide with the cubical ones.  With triangles only, the same sweep
computes flag-complex persistence.  Two prunes keep it fast:

* a 2-cell arriving while no class is alive lies in the current pivot span
  and is skipped unreduced;
* a 4-cycle with an already-arrived diagonal is the sum of two
  already-available triangles and is never emitted.

A cycle-creating edge records only its birth value.  Representatives of
finite bars are the reduced 2-cell columns; the tree-path cycles of bars that
never die are built after the sweep, once per such bar, from the final
spanning forest.

The cube-level reduction in graphhom.persistence is the reference
implementation; the two are asserted equal in the test suite, as is the flag
sweep with a textbook simplex-wise reduction kept with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import INF, PersistenceDiagram, PersistencePair
from .errors import InternalError, ValidationError
from .gf2 import rows_of_column
from .graphs import WeightedGraph

METHOD_CUBICAL = "cubical"
METHOD_FLAG = "flag"


@dataclass
class GraphPersistence:
    h0: PersistenceDiagram
    h1: PersistenceDiagram
    #: component merge events as (value, u, v), in filtration order
    merges: list[tuple[float, int, int]]


def weighted_graph_persistence(
    g: WeightedGraph, method: str = METHOD_CUBICAL
) -> GraphPersistence:
    if g.weights is None:
        raise ValidationError("persistence requires edge weights")
    if method not in (METHOD_CUBICAL, METHOD_FLAG):
        raise ValidationError(f"unknown method {method!r}")
    n = g.vertex_count
    order = sorted(range(g.edge_count), key=lambda i: (g.weights[i], g.edges[i]))
    edge_pos: dict[tuple[int, int], int] = {}
    span = (0.0, max(g.weights, default=0.0))

    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    forest: list[list[int]] = [[] for _ in range(n)]

    def forest_path(src: int, dst: int) -> list[int]:
        prev = {src: src}
        queue = [src]
        for cur in queue:
            if cur == dst:
                break
            for nxt in forest[cur]:
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    adj = [0] * n
    merges: list[tuple[float, int, int]] = []
    h0_pairs: list[PersistencePair] = []
    births: dict[int, float] = {}  # edge order pos -> birth value
    h1_pairs: list[PersistencePair] = []
    pivots: dict[int, int] = {}
    ordered_edges: list[tuple[int, int]] = []
    alive = 0

    for pos, ei in enumerate(order):
        u, v = g.edges[ei]
        w = g.weights[ei]
        edge_pos[(u, v)] = pos
        ordered_edges.append((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if find(u) != find(v):
            parent[find(u)] = find(v)
            forest[u].append(v)
            forest[v].append(u)
            merges.append((w, u, v))
            if w > 0.0:
                h0_pairs.append(PersistencePair(0.0, w))
            continue
        # cycle-creating edge: a class is born
        births[pos] = w
        alive += 1
        for col in _two_cells(u, v, adj, edge_pos, method):
            while col:
                p = col.bit_length() - 1
                if p not in pivots:
                    break
                col ^= pivots[p]
            if not col:
                continue
            p = col.bit_length() - 1
            pivots[p] = col
            alive -= 1
            if p not in births:
                raise InternalError("2-cell pivot landed on a tree edge")
            birth = births.pop(p)
            if w > birth:
                # the reduced column is a birth-stage cycle (its youngest
                # edge is the birth edge) and a boundary at this death
                rep = tuple(ordered_edges[b] for b in rows_of_column(col))
                h1_pairs.append(PersistencePair(birth, w, rep))
            if alive == 0:
                break

    # The forest only ever joins separate trees, so the u-v tree path now is
    # the one present when the class was born: the birth-stage cycle.
    for pos, birth in births.items():
        u, v = ordered_edges[pos]
        path = forest_path(u, v)
        rep = tuple(zip(path, path[1:])) + ((v, u),)
        h1_pairs.append(PersistencePair(birth, INF, rep))
    roots = {find(x) for x in range(n)}
    h0_pairs.extend(PersistencePair(0.0, INF) for _ in roots)

    return GraphPersistence(
        PersistenceDiagram(0, h0_pairs, span=span, method=method),
        PersistenceDiagram(1, h1_pairs, span=span, method=method),
        merges,
    )


def flag_persistence(g: WeightedGraph, max_dim: int = 1) -> list[PersistenceDiagram]:
    """H0..H_max_dim diagrams of the flag (clique) complex over GF(2); max_dim <= 1."""
    if not 0 <= max_dim <= 1:
        raise ValidationError("flag persistence supports max_dim 0 or 1 only")
    result = weighted_graph_persistence(g, METHOD_FLAG)
    return [result.h0, result.h1][: max_dim + 1]


def _two_cells(a: int, b: int, adj: list[int], edge_pos: dict, method: str):
    """Columns of the 2-cells whose last-arrived edge is (a, b), in canonical order.

    Triangles come first, then (for the cubical method) the 4-cycles through
    (a, b) with both diagonals absent.  Bits are edge arrival positions.
    """
    f_bit = 1 << edge_pos[(a, b) if a < b else (b, a)]
    common = adj[a] & adj[b]
    while common:
        low = common & -common
        x = low.bit_length() - 1
        common ^= low
        yield (
            f_bit
            | 1 << edge_pos[(a, x) if a < x else (x, a)]
            | 1 << edge_pos[(b, x) if b < x else (x, b)]
        )
    if method != METHOD_CUBICAL:
        return
    ends = (1 << a) | (1 << b)
    cand_x = adj[a] & ~adj[b] & ~ends
    cand_y_all = adj[b] & ~adj[a] & ~ends
    while cand_x:
        low = cand_x & -cand_x
        x = low.bit_length() - 1
        cand_x ^= low
        xa_bit = 1 << edge_pos[(a, x) if a < x else (x, a)]
        ys = adj[x] & cand_y_all
        while ys:
            low_y = ys & -ys
            y = low_y.bit_length() - 1
            ys ^= low_y
            yield (
                f_bit
                | xa_bit
                | 1 << edge_pos[(b, y) if b < y else (y, b)]
                | 1 << edge_pos[(x, y) if x < y else (y, x)]
            )

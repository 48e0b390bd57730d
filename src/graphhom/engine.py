"""Fast H0/H1 persistence of a weighted graph, on the undirected edge space.

Over Z/2 the boundary of any singular 2-cube collapses to one of: zero, an
oriented-edge pair [uv]+[vu], an oriented triangle, or an oriented
quadrilateral; the pairs are themselves boundaries at the same filtration
value as their edge.  Quotienting them out leaves the complex "vertices +
undirected edges + (triangles and 4-cycles)", whose H0/H1 diagrams (zero bars
dropped) coincide with the cubical ones.  With triangles only, the same sweep
computes flag-complex persistence.

The sweep keeps, for each live H1 class, a cocycle: a 0/1 value on the edges
that is 1 on the class's birth edge and 0 on every older live class
(de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011; Bauer, "Ripser", JACT 2021).  A 2-cell
that no live cocycle sums to 1 on reduces to zero, so it is never built.  The
lowest 2-cell that some cocycle sums to 1 on kills the youngest such class;
only its column is built and reduced, and that class's cocycle is added to
the other hit ones.  A 4-cycle with an already-arrived diagonal is the sum of
two already-available triangles and is never considered.

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
from .gf2 import reduce, rows_of_column
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
    at: list[dict[int, int]] = [{} for _ in range(n)]  # at[a][b]: arrival of edge ab
    merges: list[tuple[float, int, int]] = []
    h0_pairs: list[PersistencePair] = []
    h1_pairs: list[PersistencePair] = []
    pivots: dict[int, int] = {}
    ordered_edges: list[tuple[int, int]] = []
    # live H1 classes by birth edge position, oldest first, and their
    # cocycles as {vertex: mask of the neighbours w with edge (vertex, w) in it}
    births: dict[int, float] = {}
    cocycles: dict[int, dict[int, int]] = {}

    def kill(col: int, hit: list[int], w: float) -> None:
        """The 2-cell with boundary col kills the youngest of the classes it hits.

        hit lists those classes oldest first.  The others get the killed
        class's cocycle added, which makes them 0 on this cell.
        """
        col = reduce(col, pivots)
        p = hit[-1]
        if col.bit_length() - 1 != p:
            raise InternalError("a killing 2-cell did not reduce to its class's birth edge")
        pivots[p] = col
        z = cocycles.pop(p)
        for q in hit[:-1]:
            zq = cocycles[q]
            for a, m in z.items():
                zq[a] = zq.get(a, 0) ^ m
        birth = births.pop(p)
        if w > birth:
            # the reduced column is a birth-stage cycle (its youngest edge is
            # the birth edge) and a boundary at this death
            rep = tuple(ordered_edges[b] for b in rows_of_column(col))
            h1_pairs.append(PersistencePair(birth, w, rep))

    def scan(u: int, v: int, a: int, base: int, flip: int, cells: int, w: float) -> None:
        """Kill with the 2-cells t in cells, lowest first, until none is hit.

        Cell t has boundary base + at + vt, and base is uv or uv + ux with
        flip = {v} or {v, x}; so z sums to z(at) + z(vt) + |z[u] & flip| on it.
        """
        while cells and cocycles:
            hits = {}
            for p, z in cocycles.items():
                m = (z.get(a, 0) ^ z.get(v, 0)) & cells
                if (z.get(u, 0) & flip).bit_count() & 1:
                    m ^= cells
                if m:
                    hits[p] = m
            if not hits:
                return
            low = min(m & -m for m in hits.values())
            t = low.bit_length() - 1
            kill(base | 1 << at[a][t] | 1 << at[v][t], [p for p, m in hits.items() if m & low], w)
            cells &= -(low << 1)

    for pos, ei in enumerate(order):
        u, v = g.edges[ei]
        w = g.weights[ei]
        at[u][v] = at[v][u] = pos
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
        # cycle-creating edge: a class is born, and older cocycles are 0 on uv
        births[pos] = w
        cocycles[pos] = {u: 1 << v, v: 1 << u}
        common = adj[u] & adj[v]
        if common:
            # every triangle hits the newborn, so the lowest one kills it; an
            # older cocycle, 0 on uv, hits it when it is 1 on one of ux, vx
            low = common & -common
            x = low.bit_length() - 1
            hit = [pos]
            if len(cocycles) > 1:
                hit[:0] = [p for p, z in cocycles.items() if (z.get(u, 0) ^ z.get(v, 0)) & low]
            kill(1 << pos | 1 << at[u][x] | 1 << at[v][x], hit, w)
            if cocycles:
                scan(u, v, u, 1 << pos, 1 << v, common ^ low, w)
        if method != METHOD_CUBICAL or not cocycles:
            continue
        # 4-cycles (u, x, y, v) with both diagonals absent.  A cocycle z with
        # z(uv) = 0 sums to 1 on one only if x is on an edge of z or adj[x]
        # meets z[v]; the scans only add cocycles to each other, so the x
        # found here cover every later hit.
        ends = (1 << u) | (1 << v)
        cand_x = adj[u] & ~adj[v] & ~ends
        cand_y = adj[v] & ~adj[u] & ~ends
        xs = 0
        for z in cocycles.values():
            if z.get(u, 0) >> v & 1:
                xs = cand_x
                break
            for m in z.values():
                xs |= m
            for y in rows_of_column(z.get(v, 0) & cand_y):
                xs |= adj[y]
        for x in rows_of_column(xs & cand_x):
            scan(u, v, x, 1 << pos | 1 << at[u][x], 1 << v | 1 << x, adj[x] & cand_y, w)

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


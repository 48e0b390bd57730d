"""Bottleneck distance between persistence diagrams.

The distance is the min over partial matchings of the max per-point cost,
where unmatched points pay half their persistence.  The exact infimum is
attained on the finite candidate set of all pairwise L-infinity distances and
half-persistences, so a binary search with a bipartite feasibility matching
gives the exact value.  Infinite-death points must be equinumerous (else the
distance is infinite) and are matched among themselves by sorted births.
"""

from __future__ import annotations

import math

from .diagrams import PersistenceDiagram

Point = tuple[float, float]


def _linf(a: Point, b: Point) -> float:
    db = abs(a[0] - b[0])
    if math.isinf(a[1]) or math.isinf(b[1]):
        dd = 0.0 if math.isinf(a[1]) and math.isinf(b[1]) else math.inf
    else:
        dd = abs(a[1] - b[1])
    return max(db, dd)


def _half_persistence(a: Point) -> float:
    return math.inf if math.isinf(a[1]) else (a[1] - a[0]) / 2.0


def bottleneck(p: PersistenceDiagram, q: PersistenceDiagram) -> float:
    pp = p.births_deaths()
    qq = q.births_deaths()
    p_inf = sorted(b for b, d in pp if math.isinf(d))
    q_inf = sorted(b for b, d in qq if math.isinf(d))
    if len(p_inf) != len(q_inf):
        return math.inf
    inf_cost = max((abs(a - b) for a, b in zip(p_inf, q_inf)), default=0.0)
    p_fin = [(b, d) for b, d in pp if not math.isinf(d)]
    q_fin = [(b, d) for b, d in qq if not math.isinf(d)]
    return max(inf_cost, _finite_bottleneck(p_fin, q_fin))


def _finite_bottleneck(pp: list[Point], qq: list[Point]) -> float:
    if not pp and not qq:
        return 0.0
    candidates = {0.0}
    candidates.update(_half_persistence(a) for a in pp)
    candidates.update(_half_persistence(b) for b in qq)
    candidates.update(_linf(a, b) for a in pp for b in qq)
    ordered = sorted(candidates)
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(pp, qq, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _feasible(pp: list[Point], qq: list[Point], c: float) -> bool:
    """Perfect matching test on the diagonal-augmented bipartite graph.

    Left: P points then diagonal slots for Q; right: Q points then diagonal
    slots for P.  A point may take the diagonal iff its half-persistence fits
    under c; diagonal-diagonal is free.
    """
    np_, nq = len(pp), len(qq)
    size = np_ + nq
    adjacency: list[list[int]] = []
    for i, a in enumerate(pp):
        row = [j for j, b in enumerate(qq) if _linf(a, b) <= c]
        if _half_persistence(a) <= c:
            row.append(nq + i)
        adjacency.append(row)
    for j, b in enumerate(qq):
        row = list(range(nq, size))
        if _half_persistence(b) <= c:
            row.insert(0, j)
        adjacency.append(row)

    match_right: dict[int, int] = {}
    match_left: dict[int, int] = {}

    def augment(root: int) -> bool:
        # iterative alternating-path search; recursion would not survive
        # diagrams with hundreds of points
        seen = [False] * size
        parent_right: dict[int, int] = {}
        stack = [(root, iter(adjacency[root]))]
        while stack:
            left, rights = stack[-1]
            pushed = False
            for right in rights:
                if seen[right]:
                    continue
                seen[right] = True
                parent_right[right] = left
                if right not in match_right:
                    r = right
                    while True:
                        owner = parent_right[r]
                        previous = match_left.get(owner)
                        match_right[r] = owner
                        match_left[owner] = r
                        if previous is None:
                            return True
                        r = previous
                stack.append((match_right[right], iter(adjacency[match_right[right]])))
                pushed = True
                break
            if not pushed:
                stack.pop()
        return False

    return all(augment(left) for left in range(size) if left not in match_left)


"""Persistence diagrams: the value type, interval statistics, and cycle reports.

A diagram is a multiset of (birth, death) pairs for one homology dimension;
deaths may be infinite.  Dimension-1 pairs may carry a representative cycle
stored as oriented vertex pairs.  Equality is multiset equality on the pairs;
representatives and metadata are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError

INF = math.inf

#: A representative 1-chain: oriented vertex pairs, interpreted mod 2.
Chain = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PersistencePair:
    birth: float
    death: float
    representative: Chain | None = None

    def __post_init__(self) -> None:
        if self.death < self.birth:
            raise ValidationError(f"death {self.death} before birth {self.birth}")

    @property
    def length(self) -> float:
        return self.death - self.birth

    def effective_death(self, span_end: float) -> float:
        return span_end if math.isinf(self.death) else self.death


@dataclass
class PersistenceDiagram:
    dimension: int
    pairs: list[PersistencePair] = field(default_factory=list)
    span: tuple[float, float] | None = None
    method: str | None = None

    def __post_init__(self) -> None:
        self.pairs.sort(key=_pair_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return self.dimension == other.dimension and sorted(
            (p.birth, p.death) for p in self.pairs
        ) == sorted((p.birth, p.death) for p in other.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def births_deaths(self) -> list[tuple[float, float]]:
        return [(p.birth, p.death) for p in self.pairs]


def _pair_key(p: PersistencePair):
    return (p.birth, p.death, p.representative or ())


def nontrivial_length(diag: PersistenceDiagram, span: tuple[float, float]) -> float:
    """Percentage of the span covered by the union of [birth, death) intervals."""
    lo, hi = span
    if not lo < hi:
        raise ValidationError("span low must be below span high")
    intervals = []
    for p in diag.pairs:
        b = max(p.birth, lo)
        d = min(p.effective_death(hi), hi)
        if d > b:
            intervals.append((b, d))
    intervals.sort()
    covered = 0.0
    cur_lo, cur_hi = None, None
    for b, d in intervals:
        if cur_hi is None or b > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = b, d
        else:
            cur_hi = max(cur_hi, d)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return 100.0 * covered / (hi - lo)


def longest_bar(
    diag: PersistenceDiagram, span: tuple[float, float] | None = None
) -> PersistencePair:
    """The pair maximizing death - birth.

    Infinite deaths count as the span end.  Ties break toward the earlier
    birth, then the canonical representative order.
    """
    if not diag.pairs:
        raise ValidationError("longest_bar of an empty diagram")
    span = span if span is not None else diag.span
    if span is None:
        if any(math.isinf(p.death) for p in diag.pairs):
            raise ValidationError("diagram has infinite bars but no span")
        end = max(p.death for p in diag.pairs)
    else:
        end = span[1]

    def length(p: PersistencePair) -> float:
        return p.effective_death(end) - p.birth

    best = max(length(p) for p in diag.pairs)
    # equal-length ties must not hinge on subtraction rounding
    contenders = [
        p for p in diag.pairs if math.isclose(length(p), best, rel_tol=1e-12, abs_tol=1e-15)
    ]
    return min(contenders, key=lambda p: (p.birth, p.representative or ()))


def project_chain(chain) -> set[tuple[int, int]]:
    """Oriented 1-cubes -> undirected edge set, mod 2."""
    edges: set[tuple[int, int]] = set()
    for u, v in chain:
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        edges.symmetric_difference_update({e})
    return edges


def cycle_vertices(chain) -> list[list[int]]:
    """Decompose a representative 1-cycle into simple cycles (vertex sequences).

    The chain's mod-2 projection must have all vertex degrees even.  Cycles
    come out in a deterministic order, each starting at its minimal vertex and
    walking toward that vertex's smaller neighbor.
    """
    edges = project_chain(chain)
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    for v, nbrs in adjacency.items():
        if len(nbrs) % 2 != 0:
            raise ValidationError(f"vertex {v} has odd degree; chain is not a cycle")
    cycles = []
    while edges:
        # walk greedily from the minimal vertex until a path vertex repeats,
        # extract that simple cycle, then restart on the remaining edges
        start = min(u for e in edges for u in e)
        path = [start]
        seen = {start: 0}
        used: set[tuple[int, int]] = set()
        while True:
            cur = path[-1]
            nxt = min(
                v
                for v in adjacency[cur]
                if (e := (min(cur, v), max(cur, v))) in edges and e not in used
            )
            used.add((min(cur, nxt), max(cur, nxt)))
            if nxt in seen:
                cycle = path[seen[nxt]:]
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    edges.discard((min(a, b), max(a, b)))
                cycles.append(_canonical_cycle(cycle))
                break
            seen[nxt] = len(path)
            path.append(nxt)
    cycles.sort(key=lambda c: (c[0], len(c), c))
    return cycles


def _canonical_cycle(cycle: list[int]) -> list[int]:
    """Rotate to start at the minimal vertex, direction toward its smaller neighbor."""
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    if len(rotated) > 2 and rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return rotated

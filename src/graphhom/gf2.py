"""GF(2) column linear algebra on Python-int bitsets.

A column is an int whose bit i corresponds to row i.  This keeps XOR, the
only arithmetic we need, at C speed without a dense matrix dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def column_from_rows(rows) -> int:
    col = 0
    for r in rows:
        col ^= 1 << r
    return col


def rows_of_column(col: int) -> list[int]:
    rows = []
    while col:
        low = col & -col
        rows.append(low.bit_length() - 1)
        col ^= low
    return rows


@dataclass
class GF2Matrix:
    """Sparse GF(2) matrix stored column-wise as int bitsets."""

    num_rows: int
    columns: list[int] = field(default_factory=list)

    def rank(self) -> int:
        return rank(self.columns)

    def mul_column(self, col: int) -> int:
        """Apply the matrix to a column vector (bitset over self's columns)."""
        out = 0
        while col:
            low = col & -col
            out ^= self.columns[low.bit_length() - 1]
            col ^= low
        return out


class ColumnReducer:
    """Incremental column elimination keyed by the highest set bit (pivot).

    add() reduces a column against the committed pivots and either commits it
    (returns its pivot row) or reports linear dependence (returns None).
    """

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}

    def reduce(self, col: int) -> int:
        pivots = self.pivots
        while col:
            p = col.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                return col
            col ^= other
        return 0

    def add(self, col: int) -> int | None:
        col = self.reduce(col)
        if col == 0:
            return None
        p = col.bit_length() - 1
        self.pivots[p] = col
        return p

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(columns) -> int:
    red = ColumnReducer()
    for col in columns:
        red.add(col)
    return red.rank


def in_span(columns, target: int) -> bool:
    """True iff target lies in the GF(2) span of the given columns."""
    red = ColumnReducer()
    for col in columns:
        red.add(col)
    return red.reduce(target) == 0

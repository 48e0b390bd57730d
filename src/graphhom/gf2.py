"""GF(2) column linear algebra on Python-int bitsets.

A column is an int whose bit i corresponds to row i, and a matrix is a plain
list of columns.  This keeps XOR, the only arithmetic we need, at C speed
without a dense matrix dependency.
"""

from __future__ import annotations


def rows_of_column(col: int) -> list[int]:
    rows = []
    while col:
        low = col & -col
        rows.append(low.bit_length() - 1)
        col ^= low
    return rows


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


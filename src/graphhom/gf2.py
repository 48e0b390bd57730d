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


def reduce(col: int, pivots: dict[int, int]) -> int:
    """col reduced against columns keyed by their highest set bit (pivot).

    Returns 0 iff col lies in the span of the pivot columns; otherwise the
    result's pivot is not among the keys, and the caller may commit it.
    """
    while col:
        other = pivots.get(col.bit_length() - 1)
        if other is None:
            return col
        col ^= other
    return 0


def rank(columns) -> int:
    pivots: dict[int, int] = {}
    for col in columns:
        col = reduce(col, pivots)
        if col:
            pivots[col.bit_length() - 1] = col
    return len(pivots)

from __future__ import annotations

import random

from graphhom import gf2

from oracles import column_from_rows, in_span, mul_column


def test_column_round_trip():
    col = column_from_rows([0, 3, 7])
    assert gf2.rows_of_column(col) == [0, 3, 7]


def test_rank_simple():
    cols = [0b001, 0b010, 0b011]
    assert gf2.rank(cols) == 2


def test_rank_identity():
    assert gf2.rank([1 << i for i in range(5)]) == 5


def test_in_span():
    cols = [0b101, 0b011]
    assert in_span(cols, 0b110)
    assert not in_span(cols, 0b100)


def test_reducer_detects_dependence():
    pivots: dict[int, int] = {}
    for col in (0b11, 0b10):
        col = gf2.reduce(col, pivots)
        assert col != 0
        pivots[col.bit_length() - 1] = col
    assert gf2.reduce(0b01, pivots) == 0


def test_rank_matches_row_elimination():
    rng = random.Random(5)
    for _ in range(50):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        columns = [
            sum(matrix[r][c] << r for r in range(rows)) for c in range(cols)
        ]
        # independent oracle: Gaussian elimination on row vectors
        work = [sum(matrix[r][c] << c for c in range(cols)) for r in range(rows)]
        rank = 0
        for pivot_col in range(cols):
            pivot_row = next(
                (r for r in range(rank, rows) if (work[r] >> pivot_col) & 1), None
            )
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            for r in range(rows):
                if r != rank and (work[r] >> pivot_col) & 1:
                    work[r] ^= work[rank]
            rank += 1
        assert gf2.rank(columns) == rank


def test_matrix_mul_column():
    assert mul_column([0b011, 0b110], 0b11) == 0b011 ^ 0b110

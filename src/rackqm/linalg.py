"""Exact rational linear algebra: rank and sparse integer products.

No floating point anywhere; entries are Python ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["exact_rank", "sparse_rows", "sparse_matmul", "is_zero_matrix"]


def exact_rank(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [list(map(Fraction, row)) for row in matrix if any(row)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pivot
                row_r, row_p = rows[r], rows[rank]
                for c in range(col, cols):
                    if row_p[c]:
                        row_r[c] -= factor * row_p[c]
        rank += 1
        if rank == len(rows):
            break
    return rank


def sparse_rows(matrix: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """Row-wise sparse view {column: value} of an integer matrix."""
    return [
        {j: v for j, v in enumerate(row) if v}
        for row in matrix
    ]


def sparse_matmul(
    a_rows: list[dict[int, int]], b_rows: list[dict[int, int]], b_cols: int
) -> list[dict[int, int]]:
    """Product of sparse-row integer matrices (a: m x k, b: k x n)."""
    out: list[dict[int, int]] = []
    for row in a_rows:
        acc: dict[int, int] = {}
        for k, va in row.items():
            for j, vb in b_rows[k].items():
                acc[j] = acc.get(j, 0) + va * vb
        out.append({j: v for j, v in acc.items() if v})
    return out


def is_zero_matrix(rows: list[dict[int, int]]) -> bool:
    return all(not row for row in rows)

"""Exact rational linear algebra on sparse rows.

A matrix is a sequence of rows ``{column position: nonzero coefficient}``;
the column count is known to the caller and never stored.  No floating point
anywhere; entries are Python ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

__all__ = ["exact_rank", "sparse_matmul"]


def exact_rank(rows: Sequence[Mapping[int, int | Fraction]]) -> int:
    """Rank over the rationals by elimination on sparse rows.

    Each row is reduced against the pivots met so far, keyed by their leading
    (smallest) column and scaled to lead with 1; a row that does not reduce
    to zero becomes the pivot of its leading column.  Zero entries in the
    input are ignored and the input rows are not modified.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {j: v for j, v in given.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                pivots[lead] = {j: Fraction(v, scale) for j, v in row.items()}
                break
            factor = row[lead]
            for j, v in pivot.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


def sparse_matmul(
    a_rows: Sequence[Mapping[int, int]], b_rows: Sequence[Mapping[int, int]]
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

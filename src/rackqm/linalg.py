"""Exact linear algebra on sparse integer rows.

A matrix is a sequence of rows ``{column position: nonzero coefficient}``;
the column count is known to the caller and never stored.  No floating point
anywhere; entries are Python ints.  Ranks are over the rationals and come
from fraction-free elimination that keeps every pivot primitive (coprime
entries).  A caller with rational rows scales each row to an integer row
first, which leaves its span over the rationals unchanged.

For any prime p a rank mod p never exceeds the rank over the rationals:
r integer rows that are independent mod p have an r x r minor that is
nonzero mod p, hence a nonzero integer.  So a caller that has proved
``rank <= limit`` settles the rank at ``limit`` as soon as a screen mod p
holds ``limit`` pivots.  The two private screens here, mod 2 on int
bitmasks and mod 3 on bitsliced pairs of them, read rows from an iterable
and stop at ``limit``; ``cochain.cohomology_dims`` runs them in the order
2, 3 and only then ``exact_rank``, which itself eliminates over the
integers alone.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence

__all__ = ["exact_rank", "sparse_matmul"]


def exact_rank(rows: Sequence[Mapping[int, int]], limit: int | None = None) -> int:
    """Rank over the rationals by fraction-free elimination on sparse rows,
    or ``min(rank, limit)`` when a ``limit`` is given.

    Each nonempty row is reduced against the pivots met so far, keyed by their
    last (largest) column: with ``a, b`` the pivot's and the row's entries in
    that column divided by their gcd, ``row := a*row - b*pivot``, and a row
    scaled by ``a != 1`` is divided by its content (the gcd of its entries).
    A step with ``a == 1`` only subtracts, so its content check is left to
    the end: a row that does not reduce to zero becomes, primitive and
    positive in its last column, the pivot of that column.  Keying by the
    last column rather than the first keeps the fill-in of coboundary rows
    lower (R5's degree-4 quandle coboundary takes 37,649 reduction steps
    instead of 65,653); the rank does not depend on the order.  Empty rows
    are skipped, zero entries in the input are ignored and the input rows
    are not modified.

    With a ``limit`` the elimination returns as soon as it holds ``limit``
    pivots, leaving the rows after the last one unread; ``limit == 0``
    returns 0 without reading any row.  A caller that has proved
    ``rank <= limit`` thus gets the exact rank without reducing the rows
    after the last pivot to zero.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if limit == 0:
        return 0
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        if not given:
            continue
        row = {j: v for j, v in given.items() if v}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                c = gcd(*row.values())
                if row[lead] < 0:
                    c = -c
                if c != 1:
                    row = {j: v // c for j, v in row.items()}
                pivots[lead] = row
                if len(pivots) == limit:
                    return limit
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in pivot.items():
                w = row.get(j, 0) - b * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            if a != 1 and row:
                c = gcd(*row.values())
                if c != 1:
                    row = {j: v // c for j, v in row.items()}
    return len(pivots)


def _rank_mod_2_reaches(masks: Iterable[int], limit: int) -> bool:
    """Whether the rows, given as int bitmasks of their odd entries, hold
    ``limit`` rows independent mod 2.  Each mask is reduced by xor against
    the pivots met so far, keyed like the integer pivots by their last
    column; no mask is read after the ``limit``-th pivot."""
    pivots: dict[int, int] = {}
    for mask in masks:
        while mask:
            lead = mask.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = mask
                if len(pivots) == limit:
                    return True
                break
            mask ^= pivot
    return False


def _rank_mod_3_reaches(rows: Iterable[Mapping[int, int]], limit: int) -> bool:
    """Whether the rows hold ``limit`` rows independent mod 3, bitsliced: a
    row mod 3 is the pair ``(plus, minus)`` of bitmasks of its entries that
    are 1 and -1 mod 3.  With ``t = (px | my) ^ (mx | py)``, x + y is
    ``((mx | my) ^ t, (px | py) ^ t)``, and -y swaps y's pair.  Pivots are
    keyed by their last column, like the others, and lead with +1; each
    keeps what cancels a lead of either sign.  No row is read after the
    ``limit``-th pivot."""
    pivots: dict[int, tuple[tuple[int, int], ...]] = {}
    for given in rows:
        px = mx = 0
        for j, v in given.items():
            v %= 3
            if v == 1:
                px |= 1 << j
            elif v:
                mx |= 1 << j
        zx = px | mx
        while zx:
            lead = zx.bit_length() - 1
            sign = mx >> lead & 1
            pivot = pivots.get(lead)
            if pivot is None:
                if sign:
                    px, mx = mx, px
                # what cancels a lead of +1 (the negated pivot), then of -1
                pivots[lead] = ((mx, px), (px, mx))
                if len(pivots) == limit:
                    return True
                break
            py, my = pivot[sign]
            t = (px | my) ^ (mx | py)
            px, mx = (mx | my) ^ t, (px | py) ^ t
            zx = px | mx
    return False


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

"""Cochain complexes of finite racks and quandles, over the rationals.

Degree-n cochains are functions on n-tuples of rack elements, stored densely
with the index order ``(x_1..x_n) -> sum x_i * |X|^(n-i)``.  The coboundary
is the alternating sum

    (d^n f)(x_1..x_{n+1}) = sum_{i=1}^{n+1} (-1)^i [ f(..drop x_i..)
                              - f(x_1<|x_i, .., x_{i-1}<|x_i, x_{i+1}, ..) ]

with ``d^n = 0`` for n <= 0; in particular ``(d^1 f)(x, y) = f(x) - f(x<|y)``.
Each d^n is built once, as sparse integer rows ``{column: coefficient}``
over the coordinates it is ranked on, and cohomology dimensions come from
exact ranks of those rows.  For quandles the quandle complex is computed on
the coordinates indexed by nondegenerate tuples (no adjacent repeats), i.e.
the subcomplex of cochains vanishing on degenerate tuples; degrees <= 1 have
no degeneracy constraint.

Every cochain on a finite rack is bounded, so the bounded and ordinary
complexes coincide here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .linalg import exact_rank, sparse_matmul
from .racks import FiniteRack

__all__ = [
    "Cochain",
    "CoboundaryMatrix",
    "CochainCapError",
    "tuple_index",
    "coboundary",
    "apply_coboundary",
    "cohomology_dims",
    "nondegenerate_indices",
    "quandle_coboundary",
    "coboundary_products_vanish",
]

DEFAULT_CAP = 10**7


class CochainCapError(ValueError):
    pass


def tuple_index(xs: Sequence[int], size: int) -> int:
    idx = 0
    for x in xs:
        idx = idx * size + x
    return idx


@dataclass(frozen=True)
class Cochain:
    """A function X^degree -> Q, dense in the fixed index order; degree 0 is a
    single scalar (the empty product has one point)."""

    degree: int
    size: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        expected = self.size**self.degree
        if self.degree < 0 or len(self.values) != expected:
            raise ValueError(f"need {expected} values for degree {self.degree}")

    def __call__(self, *xs: int) -> Fraction:
        if len(xs) != self.degree:
            raise ValueError("arity mismatch")
        return self.values[tuple_index(xs, self.size)]

    def sup_norm(self) -> Fraction:
        return max((abs(v) for v in self.values), default=Fraction(0))


@dataclass(frozen=True)
class CoboundaryMatrix:
    """Integer matrix of d^degree, shape |X|^(degree+1) x |X|^degree, as
    sparse rows ``{column index: nonzero coefficient}``."""

    degree: int
    rows: int
    cols: int
    entries: tuple[dict[int, int], ...]


def _check_cap(rack: FiniteRack, degree: int, cap: int) -> None:
    if rack.size ** (degree + 1) > cap:
        raise CochainCapError(
            f"|X|^{degree + 1} = {rack.size ** (degree + 1)} exceeds the cap {cap}"
        )


def _is_nondegenerate(xs: tuple[int, ...]) -> bool:
    return all(a != b for a, b in zip(xs, xs[1:]))


def _delta_rows(
    rack: FiniteRack, degree: int, keep: Callable[[tuple[int, ...]], bool]
) -> list[dict[int, int]]:
    """Sparse rows of d^degree (degree >= 0) on the tuples ``keep`` selects.

    Rows and columns are the kept (degree+1)- and degree-tuples in index
    order; a term at a tuple that is not kept is dropped.  A face whose
    acted tuple equals the dropped one cancels and is skipped.
    """
    n, table = rack.size, rack.table
    where = {
        xs: j for j, xs in enumerate(filter(keep, product(range(n), repeat=degree)))
    }.get
    out = []
    for xs in filter(keep, product(range(n), repeat=degree + 1)):
        row: dict[int, int] = {}
        for i in range(degree + 1):
            sign = 1 if i % 2 else -1  # (-1)^(i+1) for the face dropping x_(i+1)
            head, y, tail = xs[:i], xs[i], xs[i + 1 :]
            acted_head = tuple([table[x][y] for x in head])
            if acted_head == head:
                continue
            for ys, term in ((head + tail, sign), (acted_head + tail, -sign)):
                j = where(ys)
                if j is not None:
                    row[j] = row.get(j, 0) + term
        out.append({j: v for j, v in row.items() if v})
    return out


def coboundary(rack: FiniteRack, degree: int, cap: int = DEFAULT_CAP) -> CoboundaryMatrix:
    """The matrix of d^degree in the fixed index order (zero for degree <= 0)."""
    _check_cap(rack, max(degree, 0), cap)
    if degree < 0:
        return CoboundaryMatrix(degree, 0, 0, ())
    rows = _delta_rows(rack, degree, lambda xs: True)
    return CoboundaryMatrix(degree, len(rows), rack.size**degree, tuple(rows))


def apply_coboundary(matrix: CoboundaryMatrix, cochain: Cochain) -> Cochain:
    if matrix.cols != len(cochain.values):
        raise ValueError("cochain does not match the matrix shape")
    values = tuple(
        sum((entry * cochain.values[j] for j, entry in row.items()), Fraction(0))
        for row in matrix.entries
    )
    return Cochain(cochain.degree + 1, cochain.size, values)


def nondegenerate_indices(degree: int, size: int) -> list[int]:
    """Indices of tuples with no adjacent repeat ``x_i = x_{i+1}``."""
    return [
        idx
        for idx, xs in enumerate(product(range(size), repeat=degree))
        if _is_nondegenerate(xs)
    ]


def quandle_coboundary(
    rack: FiniteRack, degree: int, cap: int = DEFAULT_CAP
) -> tuple[list[int], list[int], list[dict[int, int]]]:
    """The coboundary restricted to quandle cochains.

    Returns (row indices, column indices, rows): rows/columns are the
    nondegenerate tuple indices (all tuples for degrees <= 1) and each sparse
    row is keyed by position in the column index list.
    """
    if not rack.quandle:
        raise ValueError("quandle mode needs a quandle")
    _check_cap(rack, max(degree, 0), cap)
    if degree < 0:
        return [], [], []
    return (
        nondegenerate_indices(degree + 1, rack.size),
        nondegenerate_indices(degree, rack.size),
        _delta_rows(rack, degree, _is_nondegenerate),
    )


def cohomology_dims(
    rack: FiniteRack,
    max_degree: int,
    quandle_mode: bool = False,
    cap: int = DEFAULT_CAP,
) -> list[int]:
    """``[dim H^0, ..., dim H^max_degree]`` by exact rank computations.

    ``dim H^k = dim C^k - rank(d^k) - rank(d^(k-1))``, with ``dim C^k`` the
    column count of d^k; quandle mode computes on the nondegenerate
    coordinate subspace.  d^0 is zero on the one-point C^0, so H^0 is 1.
    """
    if max_degree < 0:
        return []
    _check_cap(rack, max_degree, cap)
    dims = [1]
    rank_below = 0  # rank of d^(k-1)
    for k in range(1, max_degree + 1):
        if quandle_mode:
            _, cols, rows = quandle_coboundary(rack, k, cap)
            space_dim = len(cols)
        else:
            matrix = coboundary(rack, k, cap)
            space_dim, rows = matrix.cols, matrix.entries
        rank_here = exact_rank(rows)
        dims.append(space_dim - rank_here - rank_below)
        rank_below = rank_here
    return dims


def coboundary_products_vanish(rack: FiniteRack, up_to_degree: int = 2) -> bool:
    """``d^(n+1) . d^n = 0`` as exact integer matrix products, n <= up_to_degree."""
    below = coboundary(rack, 0)
    for n in range(up_to_degree + 1):
        above = coboundary(rack, n + 1)
        if any(sparse_matmul(above.entries, below.entries)):
            return False
        below = above
    return True

"""Cochain complexes of finite racks and quandles, over the rationals.

Degree-n cochains are functions on n-tuples of rack elements, stored densely
with the index order ``(x_1..x_n) -> sum x_i * |X|^(n-i)``.  The coboundary
is the alternating sum

    (d^n f)(x_1..x_{n+1}) = sum_{i=1}^{n+1} (-1)^i [ f(..drop x_i..)
                              - f(x_1<|x_i, .., x_{i-1}<|x_i, x_{i+1}, ..) ]

with ``d^n = 0`` for n <= 0; in particular ``(d^1 f)(x, y) = f(x) - f(x<|y)``.
Cohomology dimensions come from exact rank/nullity.  For quandles the quandle
complex is computed on the coordinates indexed by nondegenerate tuples (no
adjacent repeats), i.e. the subcomplex of cochains vanishing on degenerate
tuples; degrees <= 1 have no degeneracy constraint.

Every cochain on a finite rack is bounded, so the bounded and ordinary
complexes coincide here; the sampled checks at the bottom connect the finite
theory to quasimorphism coboundaries on free products, where boundedness is
the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .free_product import FreeProductElement, FreeProductRack, rack_op
from .linalg import exact_rank, is_zero_matrix, sparse_matmul, sparse_rows
from .quasimorphism import LambdaFamily, rack_qm
from .racks import FiniteRack
from .sampling import SamplerConfig, make_rng, sample_element

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
    "check_cocycle_diag",
    "bounded_2cocycle_check",
    "Bounded2CocycleReport",
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
    """Integer matrix of d^degree: shape |X|^(degree+1) x |X|^degree."""

    degree: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


def _check_cap(rack: FiniteRack, degree: int, cap: int) -> None:
    if rack.size ** (degree + 1) > cap:
        raise CochainCapError(
            f"|X|^{degree + 1} = {rack.size ** (degree + 1)} exceeds the cap {cap}"
        )


def coboundary(rack: FiniteRack, degree: int, cap: int = DEFAULT_CAP) -> CoboundaryMatrix:
    """The matrix of d^degree in the fixed index order (zero for degree <= 0)."""
    n = rack.size
    _check_cap(rack, max(degree, 0), cap)
    if degree <= 0:
        rows = n ** (degree + 1) if degree == 0 else 0
        cols = n**degree if degree == 0 else 0
        return CoboundaryMatrix(
            degree, rows, cols, tuple(tuple([0] * cols) for _ in range(rows))
        )

    rows = n ** (degree + 1)
    cols = n**degree
    entries = [[0] * cols for _ in range(rows)]
    for row, xs in enumerate(product(range(n), repeat=degree + 1)):
        for i in range(1, degree + 2):
            sign = -1 if i % 2 else 1
            dropped = xs[: i - 1] + xs[i:]
            acted = tuple(rack.op(x, xs[i - 1]) for x in xs[: i - 1]) + xs[i:]
            entries[row][tuple_index(dropped, n)] += sign
            entries[row][tuple_index(acted, n)] -= sign
    return CoboundaryMatrix(degree, rows, cols, tuple(tuple(r) for r in entries))


def apply_coboundary(matrix: CoboundaryMatrix, cochain: Cochain) -> Cochain:
    if matrix.cols != len(cochain.values):
        raise ValueError("cochain does not match the matrix shape")
    values = tuple(
        sum((Fraction(entry) * v for entry, v in zip(row, cochain.values)), Fraction(0))
        for row in matrix.entries
    )
    return Cochain(cochain.degree + 1, cochain.size, values)


def nondegenerate_indices(degree: int, size: int) -> list[int]:
    """Indices of tuples with no adjacent repeat ``x_i = x_{i+1}``."""
    out = []
    for idx, xs in enumerate(product(range(size), repeat=degree)):
        if all(xs[i] != xs[i + 1] for i in range(degree - 1)):
            out.append(idx)
    return out


def quandle_coboundary(
    rack: FiniteRack, degree: int, cap: int = DEFAULT_CAP
) -> tuple[list[int], list[int], list[list[int]]]:
    """The coboundary restricted to quandle cochains.

    Returns (row indices, column indices, matrix): rows/columns are the
    nondegenerate tuple indices (all tuples for degrees <= 1) and the matrix
    is d^degree restricted to those coordinates.
    """
    if not rack.quandle:
        raise ValueError("quandle mode needs a quandle")
    full = coboundary(rack, degree, cap)
    n = rack.size
    row_idx = (
        nondegenerate_indices(degree + 1, n) if degree + 1 >= 2 else list(range(full.rows))
    )
    col_idx = nondegenerate_indices(degree, n) if degree >= 2 else list(range(full.cols))
    matrix = [[full.entries[r][c] for c in col_idx] for r in row_idx]
    return row_idx, col_idx, matrix


def cohomology_dims(
    rack: FiniteRack,
    max_degree: int,
    quandle_mode: bool = False,
    cap: int = DEFAULT_CAP,
) -> list[int]:
    """``[dim H^0, ..., dim H^max_degree]`` by exact rank computations.

    ``dim H^k = nullity(d^k) - rank(d^(k-1))``; quandle mode computes on the
    nondegenerate coordinate subspace.
    """
    if max_degree < 0:
        return []
    _check_cap(rack, max_degree + 1, cap)

    def space_dim(k: int) -> int:
        if quandle_mode and k >= 2:
            return len(nondegenerate_indices(k, rack.size))
        return rack.size**k

    def matrix_rank(k: int) -> int:
        if k <= 0:
            return 0
        if quandle_mode:
            _, _, matrix = quandle_coboundary(rack, k, cap)
            return exact_rank(matrix)
        return exact_rank(coboundary(rack, k, cap).entries)

    dims = []
    rank_below = 0  # rank of d^(k-1)
    for k in range(max_degree + 1):
        rank_here = matrix_rank(k)
        dims.append(space_dim(k) - rank_here - rank_below)
        rank_below = rank_here
    return dims


def check_cocycle_diag(
    family: LambdaFamily,
    parent: FreeProductRack | None = None,
    config: SamplerConfig = SamplerConfig(),
) -> tuple[bool, int]:
    """Diagonal of the quasimorphism coboundary: sampled reduced p must give
    ``phi(p) - phi(p <| p) = 0`` exactly.  Returns (all zero, samples)."""
    parent = parent or family.parent
    rng = make_rng(config)
    for i in range(config.samples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        if rack_qm(family, p) != rack_qm(family, rack_op(p, p)):
            return False, i + 1
    return True, config.samples


@dataclass(frozen=True)
class Bounded2CocycleReport:
    max_observed: Fraction
    bound: Fraction
    pairs: int
    dd_triples: int
    dd_all_zero: bool


def bounded_2cocycle_check(
    family: LambdaFamily,
    parent: FreeProductRack | None = None,
    config: SamplerConfig = SamplerConfig(),
    dd_triples: int = 1000,
) -> Bounded2CocycleReport:
    """Sample the 2-cochain ``F(p, q) = phi(p) - phi(p <| q)``.

    Asserts the sup over samples stays within ``4 * ||lambda||_inf`` and that
    the degree-2 coboundary of F vanishes pointwise on sampled triples:
    ``F(p,r) - F(p,q) - F(p<|q, r) + F(p<|r, q<|r) = 0`` exactly.
    """
    parent = parent or family.parent
    rng = make_rng(config)
    bound = 4 * family.bound

    def F(a: FreeProductElement, b: FreeProductElement) -> Fraction:
        return rack_qm(family, a) - rack_qm(family, rack_op(a, b))

    worst = Fraction(0)
    for _ in range(config.samples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        value = abs(F(p, q))
        if value > worst:
            worst = value
    if worst > bound:
        raise AssertionError(
            f"observed |d phi| = {worst} exceeds the bound {bound}"
        )

    all_zero = True
    for _ in range(dd_triples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        r = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        dd = (
            F(p, r)
            - F(p, q)
            - F(rack_op(p, q), r)
            + F(rack_op(p, r), rack_op(q, r))
        )
        if dd != 0:
            all_zero = False
            break
    return Bounded2CocycleReport(worst, bound, config.samples, dd_triples, all_zero)


def coboundary_products_vanish(rack: FiniteRack, up_to_degree: int = 2) -> bool:
    """``d^(n+1) . d^n = 0`` as exact integer matrix products, n <= up_to_degree."""
    for n in range(up_to_degree + 1):
        lower = coboundary(rack, n)
        upper = coboundary(rack, n + 1)
        product_rows = sparse_matmul(
            sparse_rows(upper.entries), sparse_rows(lower.entries), lower.cols
        )
        if not is_zero_matrix(product_rows):
            return False
    return True

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
complexes coincide here; the sampled checks at the bottom connect the finite
theory to quasimorphism coboundaries on free products, where boundedness is
the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .free_product import FreeProductElement, rack_op
from .linalg import exact_rank, sparse_matmul
from .quasimorphism import LambdaFamily, rack_defect_estimate, rack_qm_increment
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


def check_cocycle_diag(
    family: LambdaFamily, config: SamplerConfig = SamplerConfig()
) -> tuple[bool, int]:
    """Diagonal of the quasimorphism coboundary: sampled reduced p must give
    ``phi(p) - phi(p <| p) = 0`` exactly.  Returns (all zero, samples)."""
    rng = make_rng(config)
    for i in range(config.samples):
        p = sample_element(family.parent, rng, config.max_syllables, config.max_exponent)
        if rack_qm_increment(family, p, p) != 0:
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
    config: SamplerConfig = SamplerConfig(),
    dd_triples: int = 1000,
) -> Bounded2CocycleReport:
    """Sample the 2-cochain ``F(p, q) = phi(p) - phi(p <| q)``.

    Asserts the sup of ``|F|`` over the pairs of :func:`rack_defect_estimate`
    stays within ``4 * ||lambda||_inf`` and that the degree-2 coboundary of F
    vanishes pointwise on triples drawn from a fresh stream of the same seed:
    ``F(p,r) - F(p,q) - F(p<|q, r) + F(p<|r, q<|r) = 0`` exactly.
    """
    parent = family.parent
    bound = 4 * family.bound

    def F(a: FreeProductElement, b: FreeProductElement) -> Fraction:
        return -rack_qm_increment(family, a, b)

    worst = rack_defect_estimate(family, config).max_defect
    if worst > bound:
        raise AssertionError(f"observed |d phi| = {worst} exceeds the bound {bound}")

    rng = make_rng(config)
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
    below = coboundary(rack, 0)
    for n in range(up_to_degree + 1):
        above = coboundary(rack, n + 1)
        if any(sparse_matmul(above.entries, below.entries)):
            return False
        below = above
    return True

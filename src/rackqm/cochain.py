"""Cochain complexes of finite racks and quandles, over the rationals.

Degree-n cochains are functions on n-tuples of rack elements; the tuple
``(x_1..x_n)`` has the index ``sum x_i * |X|^(n-i)``.  The coboundary is the
alternating sum

    (d^n f)(x_1..x_{n+1}) = sum_{i=1}^{n+1} (-1)^i [ f(..drop x_i..)
                              - f(x_1<|x_i, .., x_{i-1}<|x_i, x_{i+1}, ..) ]

with ``d^n = 0`` for n <= 0; in particular ``(d^1 f)(x, y) = f(x) - f(x<|y)``.
Each d^n is built once, as a :class:`Coboundary`: the tuple indices of its
rows and of its columns, and sparse integer rows ``{column: coefficient}``
over those columns.  Cohomology dimensions come from exact ranks of the
rows.  The rows are built by arithmetic on tuple indices, never on tuples:
dropping x_i leaves head index h and tail index t of a row index
``(h*|X| + x_i) * |X|^(n+1-i) + t``, the dropped term is at
``h*|X|^(n+1-i) + t``, and acting on the head by x_i is one lookup in a table
of head indices built once per call (see ``_faces``).  For quandles
the quandle complex is computed on the coordinates indexed by nondegenerate
tuples (no adjacent repeats), i.e. the subcomplex of cochains vanishing on
degenerate tuples; degrees <= 1 have no degeneracy constraint.

Every cochain on a finite rack is bounded, so the bounded and ordinary
complexes coincide here.

**Orbit lemma** (the rank bound ``cohomology_dims`` stops at).  Let
A_1..A_k be orbits of X, with A_i != A_(i+1) in quandle mode, and put

    f(x_1..x_k) = chi_(A_1)(x_1) ... chi_(A_k)(x_k),
    box = sum of the tuples in A_1 x .. x A_k.

* f is a cocycle: acting by x_i keeps each x_j in its orbit, so in d^k f
  every dropped term cancels its acted twin.  In quandle mode f vanishes on
  degenerate tuples, since adjacent entries lie in different orbits.
* box is a cycle (the transpose of d^(k-1) maps it to 0): for each i the
  right action by x_i permutes A_1 x .. x A_(i-1), so the acted faces sum to
  the dropped ones.  In quandle mode every tuple of the box is
  nondegenerate.
* <f, box'> is |A_1|...|A_k| when the orbit sequences of f and box' agree
  and 0 otherwise: a diagonal pairing with nonzero entries.  Coboundaries
  pair to 0 with cycles, so the m_k cocycles are independent in H^k, with
  m_k = c^k in rack mode and c(c-1)^(k-1) in quandle mode (k >= 1) for c
  orbits.

So dim H^k >= m_k, and from ``dim H^k = dim C^k - rank d^k - rank d^(k-1)``,
``rank d^k <= dim C^k - rank d^(k-1) - m_k``.  These are the counts of
Etingof-Grana, *On rack cohomology* (JPAA 177, 2003) and Litherland-Nelson
(JPAA 178, 2003); only the lower bound is used, and it is proved above.

**Screens mod p.**  For any prime p, r rows independent mod p have an r x r
minor that is nonzero mod p, hence a nonzero integer, so a bounded rank is
settled once a screen mod p holds that many pivots.  ``cohomology_dims``
streams rows in the order 2, 3, integers: odd-entry bitmasks straight from
the index arithmetic; dict rows for mod 3 only where mod 2 falls short
(2-torsion, as in R4); the dict rows listed for ``exact_rank`` only where
both do.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .linalg import _rank_mod_2_reaches, _rank_mod_3_reaches, exact_rank, sparse_matmul
from .racks import FiniteRack, components

__all__ = [
    "Coboundary",
    "CochainCapError",
    "coboundary",
    "cohomology_dims",
    "nondegenerate_indices",
    "quandle_coboundary",
    "coboundary_products_vanish",
]

CAP = 10**7  # the most rows, |X|^(degree+1), one coboundary may have


class CochainCapError(ValueError):
    pass


class Coboundary(NamedTuple):
    """Integer matrix of d^degree: the tuple indices of its rows and of its
    columns, in order, and one sparse row ``{column position: nonzero
    coefficient}`` per row index.  The rack complex ranks every tuple, the
    quandle complex the nondegenerate ones."""

    row_idx: Sequence[int]
    col_idx: Sequence[int]
    entries: list[dict[int, int]]


def _check_degree(size: int, degree: int) -> None:
    """Refuse, before any power is computed, a degree that puts
    size^(degree+1) over the cap by its bit count alone: for size >= 2 it is
    at least 2^(degree+1) > CAP once degree + 1 >= CAP.bit_length()."""
    if size >= 2 and degree + 1 >= CAP.bit_length():
        raise CochainCapError(f"|X|^{degree + 1} with |X| = {size} exceeds the cap {CAP}")


def _coboundary_rows(n: int, degree: int, quandle: bool) -> int:
    """Rows of d^degree on n elements: the n^(degree+1) tuples, or in quandle
    mode the n(n-1)^degree nondegenerate ones.  The columns of d^degree are
    the rows of d^(degree-1), so degree -1 gives d^0's one column."""
    return n * (n - 1 if quandle else n) ** degree if degree >= 0 else 1


def _check_cap(rack: FiniteRack, degree: int) -> None:
    _check_degree(rack.size, degree)
    if (rows := _coboundary_rows(rack.size, degree, False)) > CAP:
        raise CochainCapError(f"|X|^{degree + 1} = {rows} exceeds the cap {CAP}")


def _faces(rack: FiniteRack, degree: int, quandle: bool):
    """The set-up d^degree's rows are built from: ``(row_idx, col_idx, col,
    faces, last)``.  No rows or columns below degree 0, and a matrix over
    the cap raises :class:`CochainCapError`.

    Rows and columns are all tuples in rack mode and the nondegenerate ones
    in quandle mode, where a term at a degenerate column tuple is dropped;
    d^0 has no degenerate tuple on either side, so both modes build the same
    matrix there.  Row r is the (degree+1)-tuple of index r.  For the face
    dropping x_(i+1) write ``r = (h*n + y) * T + t`` with ``T = n^(degree-i)``:
    head index h (the first i entries), acting element y and tail index t.
    The dropped term sits at tuple index ``h*T + t`` and the acted term at
    ``act_i[h*n + y]*T + t``, where ``act_i[h*n + y]`` is the index of the
    head acted on by y; the tables grow by ``act_i[h*n + y] =
    act_(i-1)[(h // n)*n + y]*n + table[h % n][y]``, and the last face
    (T = 1) computes its acted head from ``last = act_(degree-1)`` instead of
    storing a table n^(degree+1) long.  ``faces`` holds ``(sign, T, act_i)``
    for the faces dropping x_2 .. x_(degree+1), with sign (-1)^(i+1) and
    ``act_i`` None on the last face; the face dropping x_1 has an empty head,
    which every element fixes, so it always cancels.  ``col`` maps a column
    tuple index to its column position, -1 if it is not a column.
    """
    _check_cap(rack, max(degree, 0))
    if degree < 0:
        return [], [], [], [], []
    n, table = rack.size, rack.table
    if quandle and degree:
        row_idx: Sequence[int] = nondegenerate_indices(degree + 1, n)
        col_idx = nondegenerate_indices(degree, n)
        col = [-1] * n**degree
        for j, c in enumerate(col_idx):
            col[c] = j
    else:
        row_idx = range(n ** (degree + 1))
        col_idx = col = list(range(n**degree))
    acts = [[0] * n]  # act_0: the empty head, whatever acts on it
    for i in range(1, degree):
        prev = acts[-1]
        acts.append(
            [prev[(h // n) * n + y] * n + table[h % n][y] for h in range(n**i) for y in range(n)]
        )
    faces = [
        (1 if i % 2 else -1, n ** (degree - i), acts[i] if i < degree else None)
        for i in range(1, degree + 1)
    ]
    return row_idx, col_idx, col, faces, acts[-1]


def _dict_rows(rack: FiniteRack, setup) -> Iterator[dict[int, int]]:
    """The rows ``{column position: nonzero coefficient}`` of the matrix
    :func:`_faces` set up, one at a time.  A face whose acted head equals its
    head cancels and is skipped, and every row shares the int keys of
    ``col``."""
    row_idx, _, col, faces, last = setup
    n, table = rack.size, rack.table
    for r in row_idx:
        row: dict[int, int] = {}
        for sign, size, act in faces:
            q = r // size
            h = q // n
            if act is None:  # the last face: q = r = h*n + y
                a = last[(h // n) * n + q % n] * n + table[h % n][q % n]
            else:
                a = act[q]
            if a == h:
                continue
            t = r - q * size
            j = col[h * size + t]  # the dropped term, then the acted one
            if j >= 0:
                row[j] = row.get(j, 0) + sign
            j = col[a * size + t]
            if j >= 0:
                row[j] = row.get(j, 0) - sign
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        yield row


def _odd_masks(rack: FiniteRack, setup) -> Iterator[int]:
    """The rows of the matrix :func:`_faces` set up, mod 2 and one at a time:
    the int bitmask of each row's odd entries, bit j for column j.  Both
    terms of a face are odd, so each flips its column's bit: ``bit[c]`` is
    ``1 << col[c]``, or 0 off the columns.  No dict is built."""
    row_idx, _, col, faces, last = setup
    n, table = rack.size, rack.table
    bit = [1 << j if j >= 0 else 0 for j in col]
    for r in row_idx:
        mask = 0
        for _, size, act in faces:
            q = r // size
            h = q // n
            if act is None:
                a = last[(h // n) * n + q % n] * n + table[h % n][q % n]
            else:
                a = act[q]
            if a != h:
                t = r - q * size
                mask ^= bit[h * size + t] ^ bit[a * size + t]
        yield mask


def _delta_rows(rack: FiniteRack, degree: int, quandle: bool) -> Coboundary:
    """d^degree, by index arithmetic on tuples (see :func:`_faces`)."""
    setup = _faces(rack, degree, quandle)
    return Coboundary(setup[0], setup[1], list(_dict_rows(rack, setup)))


def coboundary(rack: FiniteRack, degree: int) -> Coboundary:
    """The matrix of d^degree on all tuples (zero for degree <= 0, with no
    rows or columns below 0)."""
    return _delta_rows(rack, degree, False)


def nondegenerate_indices(degree: int, size: int) -> list[int]:
    """Indices of tuples with no adjacent repeat ``x_i = x_{i+1}``, in order:
    each degree extends the last by one entry that differs from its end."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return [0]  # the empty tuple
    indices = list(range(size))
    for _ in range(degree - 1):
        indices = [i * size + x for i in indices for x in range(size) if x != i % size]
    return indices


def quandle_coboundary(rack: FiniteRack, degree: int) -> Coboundary:
    """The coboundary restricted to quandle cochains: rows and columns are
    the nondegenerate tuple indices (all tuples for degrees <= 1)."""
    if not rack.quandle:
        raise ValueError("quandle mode needs a quandle")
    return _delta_rows(rack, degree, True)


def cohomology_dims(rack: FiniteRack, max_degree: int, quandle_mode: bool = False) -> list[int]:
    """``[dim H^0, ..., dim H^max_degree]`` by exact rank computations.

    ``dim H^k = dim C^k - rank(d^k) - rank(d^(k-1))``, with ``dim C^k = n^k``
    in rack mode and ``n(n-1)^(k-1)`` (the nondegenerate k-tuples) in quandle
    mode, for ``n = |X|``.  d^0 is zero on the one-point C^0, so H^0 is 1.
    Each rank stops at the bound ``dim C^k - rank(d^(k-1)) - m_k`` of the
    orbit lemma (module docstring), which it never exceeds, so the dims are
    exact; a bound of 0 (trivial racks, Conj(Z4)) skips building d^k.  The
    bound is also what lets a rank be settled mod 2, then mod 3 (module
    docstring): rows with that many pivots mod p have at least that rank,
    so only coboundaries with both 2- and 3-torsion reach ``exact_rank``.
    """
    if max_degree < 0:
        return []
    _check_cap(rack, max_degree)
    if quandle_mode and max_degree and not rack.quandle:
        raise ValueError("quandle mode needs a quandle")
    n, c = rack.size, components(rack).count
    dims = [1]
    rank_below = 0  # rank of d^(k-1)
    for k in range(1, max_degree + 1):
        cochains = _coboundary_rows(n, k - 1, quandle_mode)  # dim C^k, the columns of d^k
        bound = _coboundary_rows(c, k - 1, quandle_mode)  # m_k: the same count over the orbits
        limit = cochains - rank_below - bound
        if limit < 0:
            raise RuntimeError(
                f"rank bound {limit} < 0 for d^{k} on {rack.name}: the orbit lemma fails"
            )
        rank_here = limit
        if limit:
            setup = _faces(rack, k, quandle_mode)
            if not (
                _rank_mod_2_reaches(_odd_masks(rack, setup), limit)
                or _rank_mod_3_reaches(_dict_rows(rack, setup), limit)
            ):
                rank_here = exact_rank(list(_dict_rows(rack, setup)), limit=limit)
        dims.append(cochains - rank_here - rank_below)
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

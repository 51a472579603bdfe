import ast
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from rackqm import cochain
from rackqm.cochain import (
    Coboundary,
    CochainCapError,
    _coboundary_rows,
    _delta_rows,
    _dict_rows,
    _faces,
    _odd_masks,
    coboundary,
    coboundary_products_vanish,
    cohomology_dims,
    nondegenerate_indices,
    quandle_coboundary,
)
from rackqm.free_product import free_quandle, free_rack, trivial_product
from rackqm.linalg import _rank_mod_2_reaches, _rank_mod_3_reaches, exact_rank, sparse_matmul
from rackqm.quasimorphism import (
    Sigma,
    bounded_2cocycle_check,
    check_cocycle_diag,
    iota_family,
    sign_family,
    zero_family,
)
from rackqm.racks import (
    builtin_racks,
    components,
    conjugation_rack,
    cyclic_group,
    dihedral_quandle,
    symmetric_group,
    trivial_rack,
    validate_rack,
)
from rackqm.sampling import SamplerConfig


def tuple_index(xs, size):
    """Index of the tuple ``xs`` in the order ``(x_1..x_n) -> sum x_i * size^(n-i)``."""
    idx = 0
    for x in xs:
        idx = idx * size + x
    return idx


@dataclass(frozen=True)
class Cochain:
    """A function X^degree -> Q, dense in the tuple-index order; degree 0 is a
    single scalar (the empty product has one point)."""

    degree: int
    size: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.size**self.degree
        if self.degree < 0 or len(self.values) != expected:
            raise ValueError(f"need {expected} values for degree {self.degree}")

    def __call__(self, *xs):
        if len(xs) != self.degree:
            raise ValueError("arity mismatch")
        return self.values[tuple_index(xs, self.size)]

    def sup_norm(self):
        return max((abs(v) for v in self.values), default=Fraction(0))


def apply_coboundary(matrix, cochain):
    """d f for a rack-mode ``Coboundary`` and a dense cochain, entry by entry."""
    if len(matrix.col_idx) != len(cochain.values):
        raise ValueError("cochain does not match the matrix shape")
    values = tuple(
        sum((entry * cochain.values[j] for j, entry in row.items()), Fraction(0))
        for row in matrix.entries
    )
    return Cochain(cochain.degree + 1, cochain.size, values)


def oracle_delta(rack, n):
    """Independent matrix construction straight from the alternating sum."""
    size = rack.size
    rows = size ** (n + 1)
    cols = size**n
    matrix = [[0] * cols for _ in range(rows)]
    for xs in product(range(size), repeat=n + 1):
        r = tuple_index(xs, size)
        for i in range(1, n + 2):
            sign = (-1) ** i
            dropped = xs[: i - 1] + xs[i:]
            acted = tuple(rack.op(x, xs[i - 1]) for x in xs[: i - 1]) + xs[i:]
            matrix[r][tuple_index(dropped, size)] += sign
            matrix[r][tuple_index(acted, size)] -= sign
    return matrix


def _fraction_rank(rows):
    """Rank over the rationals by elimination with Fraction pivots scaled to
    lead with 1: the plain path the fraction-free ``exact_rank`` must match."""
    pivots = {}
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


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the integer rows
    ``exact_rank`` takes, with the same span and so the same rank."""
    scaled = []
    for row in rows:
        m = lcm(*(Fraction(v).denominator for v in row.values()))
        scaled.append({j: int(v * m) for j, v in row.items()})
    return scaled


def densify(rows, cols):
    """Dense integer rows of sparse rows ``{column: coefficient}``."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def test_coboundary_matches_oracle_small():
    for rack in builtin_racks():
        for n in (1, 2):
            matrix = coboundary(rack, n)
            assert all(0 not in row.values() for row in matrix.entries)
            assert densify(matrix.entries, len(matrix.col_idx)) == oracle_delta(rack, n)


def test_quandle_coboundary_matches_sliced_oracle():
    for rack in builtin_racks():
        if not rack.quandle:
            continue
        for n in (1, 2):
            row_idx, col_idx, rows = quandle_coboundary(rack, n)
            assert row_idx == nondegenerate_indices(n + 1, rack.size)
            assert col_idx == nondegenerate_indices(n, rack.size)
            full = oracle_delta(rack, n)
            assert densify(rows, len(col_idx)) == [
                [full[r][c] for c in col_idx] for r in row_idx
            ]


# two racks that are not quandles: x <| y = x + 1 on two and on three points
NON_QUANDLES = (
    validate_rack([[1, 1], [0, 0]]),
    validate_rack([[(x + 1) % 3] * 3 for x in range(3)]),
)


def _oracle_degrees(rack):
    # degrees 1 and 2 of the built-ins are checked above
    return (3, 4) if rack.size <= 3 else (3,)


def test_coboundary_matches_oracle_at_degrees_three_and_four():
    for rack in builtin_racks() + list(NON_QUANDLES):
        for n in _oracle_degrees(rack):
            matrix = coboundary(rack, n)
            assert all(0 not in row.values() for row in matrix.entries)
            dense = densify(matrix.entries, len(matrix.col_idx))
            assert dense == oracle_delta(rack, n), (rack.name, n)


def test_quandle_mode_rows_match_sliced_oracle_at_degrees_three_and_four():
    # the builder's quandle mode restricts to nondegenerate tuples whether or
    # not the rack is a quandle; quandle_coboundary only asks for a quandle
    for rack in builtin_racks() + list(NON_QUANDLES):
        for n in _oracle_degrees(rack):
            row_idx, col_idx, rows = _delta_rows(rack, n, True)
            if rack.quandle:
                assert quandle_coboundary(rack, n) == (row_idx, col_idx, rows)
            assert row_idx == nondegenerate_indices(n + 1, rack.size)
            assert col_idx == nondegenerate_indices(n, rack.size)
            assert all(0 not in row.values() for row in rows), (rack.name, n)
            full = oracle_delta(rack, n)
            assert densify(rows, len(col_idx)) == [
                [full[r][c] for c in col_idx] for r in row_idx
            ], (rack.name, n)


def test_nondegenerate_indices_match_the_tuple_filter():
    for size in (1, 2, 3, 4):
        for degree in range(5):
            expected = [
                tuple_index(xs, size)
                for xs in product(range(size), repeat=degree)
                if all(a != b for a, b in zip(xs, xs[1:]))
            ]
            assert nondegenerate_indices(degree, size) == expected, (size, degree)


def test_degree_one_formula_dihedral():
    rack = dihedral_quandle(3)
    delta = coboundary(rack, 1)
    f = Cochain(1, 3, tuple(Fraction(v) for v in (5, -1, 2)))
    df = apply_coboundary(delta, f)
    for x in range(3):
        for y in range(3):
            assert df(x, y) == f(x) - f((2 * y - x) % 3)


def test_degree_two_formula_example():
    rack = dihedral_quandle(3)
    delta = coboundary(rack, 2)
    values = tuple(Fraction(i * i - 2 * i + 3) for i in range(9))
    f = Cochain(2, 3, values)
    df = apply_coboundary(delta, f)
    for x, y, z in product(range(3), repeat=3):
        expected = (
            f(x, z)
            - f(x, y)
            - f(rack.op(x, y), z)
            + f(rack.op(x, z), rack.op(y, z))
        )
        assert df(x, y, z) == expected


def test_trivial_rack_coboundaries_vanish():
    rack = trivial_rack(3)
    for n in (1, 2, 3):
        matrix = coboundary(rack, n)
        assert all(v == 0 for row in densify(matrix.entries, len(matrix.col_idx)) for v in row)


def test_nonpositive_degrees_are_zero_maps():
    rack = dihedral_quandle(3)
    d0 = coboundary(rack, 0)
    assert len(d0.row_idx) == 3 and len(d0.col_idx) == 1
    assert all(v == 0 for row in densify(d0.entries, len(d0.col_idx)) for v in row)
    dneg = coboundary(rack, -1)
    assert len(dneg.row_idx) == 0 and len(dneg.col_idx) == 0


def test_both_builders_return_one_coboundary_type():
    rack = dihedral_quandle(3)
    for k in (-1, 0, 1, 2):
        for d in (coboundary(rack, k), quandle_coboundary(rack, k)):
            assert type(d) is Coboundary
            assert len(d.entries) == len(d.row_idx)
    # d^0 has no degenerate tuple on either side, so the two modes agree there
    assert quandle_coboundary(rack, 0) == coboundary(rack, 0)


def test_apply_coboundary_rejects_quandle_mode_matrices():
    # a quandle-mode d^k (k >= 1) has fewer rows or columns than the dense
    # cochains apply_coboundary takes, so one of the length checks fails
    rack = dihedral_quandle(3)
    for k in (1, 2):
        f = Cochain(k, 3, tuple(Fraction(i) for i in range(3**k)))
        with pytest.raises(ValueError):
            apply_coboundary(quandle_coboundary(rack, k), f)


def test_entry_range_small_degrees():
    for rack in builtin_racks():
        for n in (1, 2):
            matrix = coboundary(rack, n)
            entries = densify(matrix.entries, len(matrix.col_idx))
            assert all(-2 <= v <= 2 for row in entries for v in row)


def test_delta_squared_zero_all_builtins():
    for rack in builtin_racks():
        assert coboundary_products_vanish(rack)


def test_row_count_is_the_rows_built():
    # the count that sizes the cap, the dims and the CLI's rank and dump budgets
    for rack in builtin_racks():
        for quandle in (False, True) if rack.quandle else (False,):
            build = quandle_coboundary if quandle else coboundary
            for d in range(4 if rack.size == 6 else 5):
                rows = _coboundary_rows(rack.size, d, quandle)
                assert rows == len(_faces(rack, d, quandle)[0]), (rack.name, d, quandle)
                if d:
                    assert rows == len(build(rack, d).entries), (rack.name, d, quandle)


def test_row_count_below_degree_0_is_d0_s_one_column():
    for n in range(1, 7):
        for quandle in (False, True):
            rows = _coboundary_rows(n, -1, quandle)
            assert rows == 1 and type(rows) is int, (n, quandle, rows)


def test_cap_guard(monkeypatch):
    monkeypatch.setattr(cochain, "CAP", 100)
    with pytest.raises(CochainCapError):
        coboundary(dihedral_quandle(5), 2)


def test_cap_refuses_a_huge_degree_without_formatting_the_power():
    # 3^20001 has over 4300 digits, past what str() of an int formats
    for build in (coboundary, quandle_coboundary):
        with pytest.raises(CochainCapError, match="cap"):
            build(dihedral_quandle(3), 20000)
    with pytest.raises(CochainCapError, match="cap"):
        cohomology_dims(trivial_rack(2), 20000)
    assert cohomology_dims(trivial_rack(1), 20000) == [1] * 20001  # |X| = 1 is never capped


def test_cohomology_cap_counts_the_largest_matrix_built(monkeypatch):
    # d^3 on a 2-element rack has 2^4 = 16 rows, the most any step builds
    monkeypatch.setattr(cochain, "CAP", 16)
    assert cohomology_dims(trivial_rack(2), 3) == [1, 2, 4, 8]
    monkeypatch.setattr(cochain, "CAP", 15)
    with pytest.raises(CochainCapError):
        cohomology_dims(trivial_rack(2), 3)


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    for rack in (dihedral_quandle(3), dihedral_quandle(4), conjugation_rack(symmetric_group(3))):
        for n in (1, 2):
            matrix = coboundary(rack, n)
            dense = densify(matrix.entries, len(matrix.col_idx))
            assert exact_rank(matrix.entries) == sympy.Matrix(dense).rank()


def test_rank_of_rational_rows_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        dense = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * rng.randint(0, 1)
             for _ in range(cols)]
            for _ in range(rows)
        ]
        given = integer_rows([dict(enumerate(row)) for row in dense])
        assert exact_rank(given) == sympy.Matrix(rows, cols, sum(dense, [])).rank()
        assert given == integer_rows([dict(enumerate(row)) for row in dense])  # left as it was


def test_exact_rank_matches_fraction_oracle_on_coboundaries():
    for rack in builtin_racks():
        for k in range(4):
            for mode, rows in (
                ("rack", coboundary(rack, k).entries),
                ("quandle", quandle_coboundary(rack, k)[2]),
            ):
                assert exact_rank(rows) == _fraction_rank(rows), (rack.name, k, mode)


def test_pivot_order_does_not_change_the_rank():
    # exact_rank keys pivots by the last column and _fraction_rank by the
    # first; reversing the rows or permuting the columns changes the order
    # of elimination again, never the rank
    rng = random.Random(13)
    for rack in builtin_racks():
        for k in range(4):
            for mode, rows in (
                ("rack", coboundary(rack, k).entries),
                ("quandle", quandle_coboundary(rack, k)[2]),
            ):
                cols = 1 + max((j for row in rows for j in row), default=0)
                perm = list(range(cols))
                rng.shuffle(perm)
                permuted = [{perm[j]: v for j, v in row.items()} for row in rows]
                rank = exact_rank(rows)
                assert rank == _fraction_rank(rows), (rack.name, k, mode)
                assert exact_rank(rows[::-1]) == rank, (rack.name, k, mode)
                assert exact_rank(permuted) == rank, (rack.name, k, mode)


def test_exact_rank_of_rank_deficient_products_against_sympy():
    # A (rows x r) . B (r x cols) with r < min(rows, cols): rank at most r, so
    # the elimination has to find the dependent rows; large entries make the
    # pivots' leading entries differ, so rows are scaled and made primitive
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    for _ in range(80):
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        inner = rng.randint(1, min(rows, cols) - 1)

        def entry():
            return rng.randint(-(10**6), 10**6) if rng.random() < 0.8 else 0

        a = [{k: entry() for k in range(inner)} for _ in range(rows)]
        b = [{j: entry() for j in range(cols)} for _ in range(inner)]
        given = sparse_matmul(a, b)
        expected = sympy.Matrix(densify(given, cols)).rank()
        assert expected <= inner
        assert exact_rank(given) == expected == _fraction_rank(given)


def test_exact_rank_mixed_denominators_zero_rows_and_empty_input():
    assert exact_rank([]) == 0
    assert exact_rank(integer_rows([{}, {0: 0, 3: Fraction(0)}, {}])) == 0
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1},
        {},
        {0: 3, 1: 2, 2: Fraction(6)},  # 6 x the first row
        {0: 0, 1: Fraction(-5, 6), 2: Fraction(7, 4)},
        {2: Fraction(11, 4), 0: Fraction(1, 2), 1: Fraction(-1, 2)},  # first + fourth
    ]
    assert exact_rank(integer_rows(rows)) == _fraction_rank(rows) == 2
    assert exact_rank(integer_rows(rows + [{3: Fraction(-2, 9)}])) == 3
    rows = [{5: Fraction(3, 7)}, {5: -4}, {4: Fraction(1, 10**9), 5: 10**9}]
    assert exact_rank(integer_rows(rows)) == _fraction_rank(rows) == 2


def test_exact_rank_rejects_a_fraction_entry():
    # rational rows are scaled to integers by the caller, never inside
    with pytest.raises(TypeError):
        exact_rank([{0: Fraction(1, 2)}])


def test_exact_rank_leaves_its_input_unmodified():
    rng = random.Random(3)
    fraction_rows = [
        {j: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for j in range(6)}
        for _ in range(8)
    ]
    for rows in (
        integer_rows(fraction_rows),
        coboundary(dihedral_quandle(5), 2).entries,
        quandle_coboundary(conjugation_rack(symmetric_group(3)), 2)[2],
    ):
        before = repr(rows)
        exact_rank(rows)
        assert repr(rows) == before


def _limit_cases():
    """Coboundary rows of every built-in in both modes, and random rational rows
    scaled to integer rows."""
    for rack in (r for r in builtin_racks() if r.size <= 4):
        for k in (1, 2, 3):
            yield f"{rack.name}/{k}/rack", coboundary(rack, k).entries
            yield f"{rack.name}/{k}/quandle", quandle_coboundary(rack, k).entries
    rng = random.Random(21)
    for i in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        yield f"random/{i}", integer_rows([
            {j: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for j in range(cols)
             if rng.random() < 0.6}
            for _ in range(rows)
        ])


def test_exact_rank_with_a_limit_is_the_rank_capped_at_the_limit():
    for label, rows in _limit_cases():
        before = repr(rows)
        rank = exact_rank(rows)
        for limit in (0, 1, rank - 1, rank, rank + 5):
            if limit < 0:
                continue
            assert exact_rank(rows, limit=limit) == min(rank, limit), (label, limit)
            assert repr(rows) == before, label  # input left as it was


def test_exact_rank_stops_reading_rows_at_the_limit():
    # a row past the limit-th pivot is never read: "x" has no gcd
    poisoned = [{0: 1}, {0: 2}, {1: 3}, {2: "x"}]
    assert exact_rank(poisoned, limit=2) == 2
    assert exact_rank(poisoned, limit=0) == 0
    with pytest.raises(TypeError):
        exact_rank(poisoned, limit=3)
    with pytest.raises(ValueError, match="limit"):
        exact_rank([{0: 1}], limit=-1)


def odd_mask(row):
    """The int bitmask of a row's odd entries, bit j for column j."""
    return sum(1 << j for j, v in row.items() if v % 2)


def rank_mod(rows, p):
    """Rank mod p, for p = 2 or 3, by plain elimination on dict rows, with
    pivots scaled to lead with 1: the oracle of the screens."""
    pivots = {}
    for given in rows:
        row = {j: v % p for j, v in given.items() if v % p}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:  # mod 2 and mod 3 every unit is its own inverse
                pivots[lead] = {j: v * row[lead] % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in pivot.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def test_mod_2_pass_gives_the_plain_rank_capped_at_the_limit():
    # sparse integer rows with entries in -4..4, even ones included, so some
    # matrices have a lower rank mod 2 than over the rationals
    rng = random.Random(24)
    reached = fell_short = 0
    for i in range(200):
        rows_count, cols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [
            {j: v for j in range(cols) if (v := rng.randint(-4, 4)) and rng.random() < 0.5}
            for _ in range(rows_count)
        ]
        before = repr(rows)
        rank, rank_2 = exact_rank(rows), rank_mod(rows, 2)
        assert rank_2 <= rank, (i, rows)  # the lemma, for p = 2
        for limit in range(1, rank + 2):
            assert exact_rank(rows, limit=limit) == min(rank, limit), (i, rows, limit)
            got = _rank_mod_2_reaches(map(odd_mask, rows), limit)
            assert got == (limit <= rank_2), (i, rows, limit)
            if limit <= rank:
                if got:
                    reached += 1
                else:
                    fell_short += 1
        assert repr(rows) == before, i  # input left as it was
    assert reached and fell_short  # both outcomes seen below the rational rank


def test_mod_2_pass_falls_back_on_two_torsion():
    assert not _rank_mod_2_reaches([odd_mask({0: 2})], 1)
    assert exact_rank([{0: 2}], limit=1) == 1
    # R4's d^2 and d^3 have 2-torsion: mod 2 their ranks are 8 and 40 (rack
    # mode) and 6 and 22 (quandle mode), under the limits cohomology_dims
    # passes, which the rational ranks reach
    rack = dihedral_quandle(4)
    ranks_2 = {coboundary: {2: 8, 3: 40}, quandle_coboundary: {2: 6, 3: 22}}
    for build, limits in ((coboundary, {2: 10, 3: 46}), (quandle_coboundary, {2: 8, 3: 26})):
        for k, limit in limits.items():
            rows = build(rack, k).entries
            before = repr(rows)
            assert rank_mod(rows, 2) == ranks_2[build][k], (build.__name__, k)
            assert not _rank_mod_2_reaches(map(odd_mask, rows), limit), (build.__name__, k)
            assert exact_rank(rows, limit=limit) == exact_rank(rows) == limit, (build.__name__, k)
            assert repr(rows) == before


def test_mask_stream_matches_the_odd_entries_of_the_dict_rows():
    # cohomology_dims reads each row mod 2 from the tuple indices, with no
    # dict built; it must be the odd-entry mask of the row the builder makes
    for rack in builtin_racks() + list(NON_QUANDLES):
        for quandle in (False, True):
            for k in range(5 if rack.size <= 5 else 4):
                label = (rack.name, quandle, k)
                setup = _faces(rack, k, quandle)
                rows = _delta_rows(rack, k, quandle).entries
                assert list(_odd_masks(rack, setup)) == [odd_mask(row) for row in rows], label
                assert list(_dict_rows(rack, setup)) == rows, label


def test_mod_3_screen_matches_a_plain_rank_mod_3():
    rng = random.Random(25)
    reached = fell_short = 0
    for i in range(200):
        rows_count, cols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [
            {j: v for j in range(cols) if (v := rng.randint(-4, 4)) and rng.random() < 0.5}
            for _ in range(rows_count)
        ]
        before = repr(rows)
        rank, rank_3 = exact_rank(rows), rank_mod(rows, 3)
        assert rank_3 <= rank, (i, rows)  # the lemma, for p = 3
        for limit in range(1, rank + 2):
            got = _rank_mod_3_reaches(rows, limit)
            assert got == (limit <= rank_3), (i, rows, limit)
            if limit <= rank:
                if got:
                    reached += 1
                else:
                    fell_short += 1
        assert repr(rows) == before, i  # input left as it was
    assert reached and fell_short  # both outcomes seen below the rational rank


def test_screens_stop_reading_rows_at_the_limit():
    # a row past the limit-th pivot is never read: "x" has no bit_length or % 3
    assert _rank_mod_2_reaches(iter([1, 3, 2, "x"]), 2)
    assert _rank_mod_3_reaches(iter([{0: 1}, {0: 2}, {1: 5}, {2: "x"}]), 2)
    with pytest.raises(AttributeError):
        _rank_mod_2_reaches(iter([1, 3, 2, "x"]), 3)
    with pytest.raises(TypeError):
        _rank_mod_3_reaches(iter([{0: 1}, {0: 2}, {1: 5}, {2: "x"}]), 3)


def test_torsion_map_of_the_screens():
    def screens(rack, k, quandle, limit):
        setup = _faces(rack, k, quandle)
        return (
            _rank_mod_2_reaches(_odd_masks(rack, setup), limit),
            _rank_mod_3_reaches(_dict_rows(rack, setup), limit),
        )

    # 3-torsion: R3's rack d^3 has rank 19 mod 3 and Conj(S3)'s quandle d^3
    # 112, under the limits 20 and 117 that cohomology_dims passes and that
    # the mod-2 pass reaches
    for rack, quandle, rank_3, limit in (
        (dihedral_quandle(3), False, 19, 20),
        (conjugation_rack(symmetric_group(3)), True, 112, 117),
    ):
        assert rank_mod(_delta_rows(rack, 3, quandle).entries, 3) == rank_3, rack.name
        assert screens(rack, 3, quandle, limit) == (True, False), rack.name
    # 2-torsion: R4's d^2 and d^3 fall short mod 2 (see above) and reach
    # their limits mod 3
    rack = dihedral_quandle(4)
    for quandle, limits in ((False, {2: 10, 3: 46}), (True, {2: 8, 3: 26})):
        for k, limit in limits.items():
            assert screens(rack, k, quandle, limit) == (False, True), (quandle, k)
    # 6-torsion reaches neither, and only the integer elimination ranks it
    assert not _rank_mod_2_reaches([odd_mask({0: 6})], 1)
    assert not _rank_mod_3_reaches([{0: 6}], 1)
    assert exact_rank([{0: 6}], limit=1) == 1


def full_elimination_dims(rack, max_degree, quandle_mode):
    """Cohomology dims from ranks of every d^k with no limit: the plain path."""
    build = quandle_coboundary if quandle_mode else coboundary
    dims, rank_below = [1], 0
    for k in range(1, max_degree + 1):
        d = build(rack, k)
        rank_here = exact_rank(d.entries)
        dims.append(len(d.col_idx) - rank_here - rank_below)
        rank_below = rank_here
    return dims


def test_early_exit_dims_match_full_elimination():
    for rack in builtin_racks() + list(NON_QUANDLES):
        top = 4 if rack.size <= 4 else 3
        assert cohomology_dims(rack, top) == full_elimination_dims(rack, top, False), rack.name
        if rack.quandle:
            assert cohomology_dims(rack, 4, True) == full_elimination_dims(rack, 4, True), (
                rack.name
            )


def test_screens_settle_every_builtin_rank_and_the_fallback_agrees(monkeypatch):
    # mod 2 or mod 3 settles every bounded rank of the built-ins here, so no
    # exact_rank runs; forcing both screens to fall short sends every rank to
    # exact_rank, which must give the same dims
    def forbidden(*args, **kwargs):
        raise AssertionError("a rank the screens settle reached exact_rank")

    jobs = [
        (rack, quandle)
        for rack in builtin_racks() + list(NON_QUANDLES)
        for quandle in ((False, True) if rack.quandle else (False,))
    ]
    monkeypatch.setattr(cochain, "exact_rank", forbidden)
    screened = [cohomology_dims(rack, 3, quandle) for rack, quandle in jobs]
    calls = []

    def counted(rows, limit=None):
        calls.append(limit)
        return exact_rank(rows, limit)

    monkeypatch.setattr(cochain, "exact_rank", counted)
    monkeypatch.setattr(cochain, "_rank_mod_2_reaches", lambda masks, limit: False)
    monkeypatch.setattr(cochain, "_rank_mod_3_reaches", lambda rows, limit: False)
    assert [cohomology_dims(rack, 3, quandle) for rack, quandle in jobs] == screened
    assert calls and all(calls)


def test_r4_dims_at_degrees_five_and_six():
    # R4 has 2-torsion, so its bounded ranks are settled mod 3
    rack = dihedral_quandle(4)
    assert cohomology_dims(rack, 5) == full_elimination_dims(rack, 5, False)
    assert cohomology_dims(rack, 5, True) == full_elimination_dims(rack, 5, True)
    assert cohomology_dims(rack, 6) == [2**k for k in range(7)]


def _orbit_sequences(c, k, quandle_mode):
    return [
        seq for seq in product(range(c), repeat=k)
        if not quandle_mode or all(a != b for a, b in zip(seq, seq[1:]))
    ]


def _indicator(rack, orbits, tuples):
    """chi_(A_1)(x_1)...chi_(A_k)(x_k) at each tuple index of ``tuples``: for
    the cocycle these are the columns of d^k, for the box the rows of d^(k-1)."""
    comp, n, k = components(rack).component_of, rack.size, len(orbits)
    values = []
    for idx in tuples:
        xs = [(idx // n ** (k - 1 - i)) % n for i in range(k)]
        assert tuple_index(xs, n) == idx
        values.append(int(all(comp[x] == a for x, a in zip(xs, orbits))))
    return values


def test_orbit_lemma_cocycles_cycles_and_diagonal_pairing():
    # the orbit lemma of the cochain module docstring, checked entry by entry
    # without the dims: every orbit-indicator product is a cocycle, every
    # orbit box a cycle, and their pairing is diagonal with nonzero entries
    for rack in builtin_racks() + list(NON_QUANDLES):
        part = components(rack)
        sizes = part.sizes()
        for quandle_mode in (False, True) if rack.quandle else (False,):
            build = quandle_coboundary if quandle_mode else coboundary
            for k in (1, 2, 3):
                label = (rack.name, k, quandle_mode)
                d_here, d_below = build(rack, k), build(rack, k - 1)
                assert list(d_below.row_idx) == list(d_here.col_idx), label
                seqs = _orbit_sequences(part.count, k, quandle_mode)
                cocycles = [_indicator(rack, seq, d_here.col_idx) for seq in seqs]
                for f in cocycles:
                    assert all(
                        sum(v * f[j] for j, v in row.items()) == 0 for row in d_here.entries
                    ), label
                    if not quandle_mode:  # the dense oracle takes rack-mode matrices
                        f_dense = Cochain(k, rack.size, tuple(Fraction(v) for v in f))
                        assert not any(apply_coboundary(d_here, f_dense).values), label
                boxes = cocycles  # the box of A is the support of chi_A, on the same tuples
                for box in boxes:
                    image = [0] * len(d_below.col_idx)
                    for r, row in enumerate(d_below.entries):
                        if box[r]:
                            for j, v in row.items():
                                image[j] += v
                    assert not any(image), label
                for a, f in zip(seqs, cocycles):
                    for b, box in zip(seqs, boxes):
                        pairing = sum(x * y for x, y in zip(f, box))
                        expected = 1
                        for orbit in a:
                            expected *= sizes[orbit]
                        assert pairing == (expected if a == b else 0), (label, a, b)


# what cohomology_dims reads rows through before any exact_rank: the face
# set-up, the mask and dict-row streams and the screens mod 2 and mod 3
STREAMS = ("_faces", "_odd_masks", "_dict_rows", "_rank_mod_2_reaches", "_rank_mod_3_reaches")


def test_zero_rank_bounds_build_no_coboundary(monkeypatch):
    # on a rack with one-point orbits the bound is 0 in every degree, so no
    # d^k is built or ranked; Conj(Z4) is such a rack
    def forbidden(*args, **kwargs):
        raise AssertionError("built or ranked a matrix the bound rules out")

    for attr in ("coboundary", "quandle_coboundary", "exact_rank") + STREAMS:
        monkeypatch.setattr(cochain, attr, forbidden)
    for rack in (trivial_rack(3), conjugation_rack(cyclic_group(4))):
        n = rack.size
        assert cohomology_dims(rack, 4) == [n**k for k in range(5)]
        assert cohomology_dims(rack, 4, True) == [1] + [n * (n - 1) ** (k - 1) for k in range(1, 5)]


def test_quandle_mode_on_a_non_quandle_fails_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the quandle check")

    for attr in ("coboundary", "quandle_coboundary", "exact_rank", "components") + STREAMS:
        monkeypatch.setattr(cochain, attr, forbidden)
    for rack in NON_QUANDLES:
        with pytest.raises(ValueError, match="needs a quandle"):
            cohomology_dims(rack, 3, quandle_mode=True)


def test_h0_and_h1_for_all_builtins():
    for rack in builtin_racks():
        dims = cohomology_dims(rack, 1)
        assert dims[0] == 1
        assert dims[1] == components(rack).count


def test_rack_mode_dims_match_etingof_grana():
    # Etingof-Grana, On rack cohomology (JPAA 177, 2003): dim H^k_R(X; Q) = c^k
    # for a finite rack X with c orbits
    for rack in builtin_racks():
        c = components(rack).count
        top = 4 if rack.size <= 4 else 3
        assert cohomology_dims(rack, top) == [c**k for k in range(top + 1)], rack.name


# Quandle-mode dims through degree 4, as the Fraction elimination computed
# them.  They fit c(c-1)^(k-1) for c orbits, the Betti numbers usually cited
# from Litherland-Nelson (JPAA 178, 2003), but that statement and its
# hypotheses are not checked here: these are regression values only.
QUANDLE_DIMS_TO_4 = {
    "T1": [1, 1, 0, 0, 0],
    "T2": [1, 2, 2, 2, 2],
    "T3": [1, 3, 6, 12, 24],
    "R3": [1, 1, 0, 0, 0],
    "R4": [1, 2, 2, 2, 2],
    "R5": [1, 1, 0, 0, 0],
    "Conj(Z4)": [1, 4, 12, 36, 108],
    "Conj(S3)": [1, 3, 6, 12, 24],
}


def test_quandle_mode_dims_through_degree_four():
    racks = builtin_racks()
    assert sorted(r.name for r in racks) == sorted(QUANDLE_DIMS_TO_4)
    for rack in racks:
        assert cohomology_dims(rack, 4, quandle_mode=True) == QUANDLE_DIMS_TO_4[rack.name]


# Quandle-mode dim H^5 at size <= 4, regression values as above: each extends
# its rack's row of QUANDLE_DIMS_TO_4 by one term
QUANDLE_DIM_5 = {
    "T1": 0,
    "T2": 2,
    "T3": 48,
    "R3": 0,
    "R4": 2,
    "Conj(Z4)": 324,
}


def test_quandle_mode_dims_at_degree_five():
    racks = [r for r in builtin_racks() if r.size <= 4]
    assert sorted(r.name for r in racks) == sorted(QUANDLE_DIM_5)
    for rack in racks:
        expected = QUANDLE_DIMS_TO_4[rack.name] + [QUANDLE_DIM_5[rack.name]]
        assert cohomology_dims(rack, 5, quandle_mode=True) == expected, rack.name


def test_degree_five_at_sizes_five_and_six_matches_the_orbit_lemma():
    # dim H^k is c^k in rack mode and c(c-1)^(k-1) in quandle mode (k >= 1)
    # for c orbits: the orbit lemma's lower bound, reached with equality
    for rack in (dihedral_quandle(5), conjugation_rack(symmetric_group(3))):
        c = components(rack).count
        assert cohomology_dims(rack, 5) == [c**k for k in range(6)], rack.name
        assert cohomology_dims(rack, 5, quandle_mode=True) == [1] + [
            c * (c - 1) ** (k - 1) for k in range(1, 6)
        ], rack.name


def test_trivial_rack_dimensions():
    dims = cohomology_dims(trivial_rack(3), 2)
    assert dims == [1, 3, 9]  # differentials vanish, so H^n = C^n


def test_dihedral_quandle_mode_dims():
    rack = dihedral_quandle(3)
    rack_dims = cohomology_dims(rack, 2, quandle_mode=False)
    quandle_dims = cohomology_dims(rack, 2, quandle_mode=True)
    assert rack_dims[0] == quandle_dims[0] == 1
    assert rack_dims[1] == quandle_dims[1] == 1
    assert quandle_dims[2] <= rack_dims[2]


def test_quandle_mode_on_a_non_quandle():
    # the cyclic rack x <| y = x + 1 on two points is a rack but not a quandle;
    # H^0 needs no coboundary, so only degree >= 1 asks for a quandle
    rack = validate_rack([[1, 1], [0, 0]])
    assert not rack.quandle
    assert cohomology_dims(rack, 0, quandle_mode=True) == [1]
    with pytest.raises(ValueError, match="needs a quandle"):
        cohomology_dims(rack, 1, quandle_mode=True)


def test_quandle_degenerate_block_structure():
    # cochains supported off the degenerate tuples form a subcomplex:
    # the full matrix block (degenerate rows x nondegenerate columns) is zero
    for rack in (dihedral_quandle(3), dihedral_quandle(4), trivial_rack(3)):
        n = 2
        full = coboundary(rack, n)
        entries = densify(full.entries, len(full.col_idx))
        nondeg_cols = set(nondegenerate_indices(n, rack.size))
        nondeg_rows = set(nondegenerate_indices(n + 1, rack.size))
        for r in range(len(full.row_idx)):
            if r in nondeg_rows:
                continue
            for c in nondeg_cols:
                assert entries[r][c] == 0


def test_quandle_restricted_matrix_shape():
    rack = dihedral_quandle(3)
    rows, cols, matrix = quandle_coboundary(rack, 2)
    assert len(rows) == len(matrix)
    assert all(0 <= j < len(cols) for r in matrix for j in r)
    assert len(cols) == 6  # 3*2 nondegenerate pairs


def test_finite_cochains_are_bounded():
    rack = dihedral_quandle(5)
    f = Cochain(2, 5, tuple(Fraction(i, 7) for i in range(25)))
    assert f.sup_norm() == Fraction(24, 7)


def test_cocycle_diagonal_free_quandle():
    fq = free_quandle(["a", "b"])
    ok, checked = check_cocycle_diag(
        sign_family(fq), config=SamplerConfig(seed=0, samples=2000)
    )
    assert ok and checked == 2000


def test_cocycle_diagonal_zero_family():
    fq = free_quandle(["a", "b"])
    ok, _ = check_cocycle_diag(zero_family(fq), config=SamplerConfig(seed=0, samples=200))
    assert ok


def test_cocycle_diagonal_rack_mode():
    # p <| p differs from p on a free rack, but the diagonal value still vanishes
    fr = free_rack(["a", "b"])
    ok, _ = check_cocycle_diag(sign_family(fr), config=SamplerConfig(seed=1, samples=2000))
    assert ok


def test_bounded_2cocycle_report():
    fr = free_rack(["a", "b"])
    report = bounded_2cocycle_check(
        sign_family(fr),
        config=SamplerConfig(seed=0, samples=2000),
        dd_triples=300,
    )
    assert report.max_observed <= report.bound == 4
    assert report.dd_all_zero

    t23 = trivial_product({"a": 2, "b": 3})
    fam = iota_family(t23, "a", 0, Sigma.indicator(2))
    report = bounded_2cocycle_check(
        fam, config=SamplerConfig(seed=0, samples=1000), dd_triples=200
    )
    assert report.max_observed <= report.bound == 4 * fam.bound
    assert report.dd_all_zero


def test_zero_family_2cocycle_is_zero():
    fr = free_rack(["a", "b"])
    report = bounded_2cocycle_check(
        zero_family(fr), config=SamplerConfig(seed=0, samples=300), dd_triples=50
    )
    assert report.max_observed == 0


def test_cochain_imports_only_the_finite_rack_layers():
    # the sampled checks on free products live in rackqm.quasimorphism
    import rackqm.cochain as cochain_mod

    with open(cochain_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "rackqm"))} == {".linalg", ".racks"}

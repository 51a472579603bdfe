import ast
import random
from fractions import Fraction
from itertools import product

import pytest

from rackqm.cochain import (
    Cochain,
    CochainCapError,
    apply_coboundary,
    coboundary,
    coboundary_products_vanish,
    cohomology_dims,
    nondegenerate_indices,
    quandle_coboundary,
    tuple_index,
)
from rackqm.free_product import free_quandle, free_rack, trivial_product
from rackqm.linalg import exact_rank, sparse_matmul
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
    dihedral_quandle,
    symmetric_group,
    trivial_rack,
    validate_rack,
)
from rackqm.sampling import SamplerConfig


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


def densify(rows, cols):
    """Dense integer rows of sparse rows ``{column: coefficient}``."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def test_coboundary_matches_oracle_small():
    for rack in builtin_racks():
        for n in (1, 2):
            matrix = coboundary(rack, n)
            assert all(0 not in row.values() for row in matrix.entries)
            assert densify(matrix.entries, matrix.cols) == oracle_delta(rack, n)


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
        assert all(v == 0 for row in densify(matrix.entries, matrix.cols) for v in row)


def test_nonpositive_degrees_are_zero_maps():
    rack = dihedral_quandle(3)
    d0 = coboundary(rack, 0)
    assert d0.rows == 3 and d0.cols == 1
    assert all(v == 0 for row in densify(d0.entries, d0.cols) for v in row)
    dneg = coboundary(rack, -1)
    assert dneg.rows == 0 and dneg.cols == 0


def test_entry_range_small_degrees():
    for rack in builtin_racks():
        for n in (1, 2):
            matrix = coboundary(rack, n)
            entries = densify(matrix.entries, matrix.cols)
            assert all(-2 <= v <= 2 for row in entries for v in row)


def test_delta_squared_zero_all_builtins():
    for rack in builtin_racks(max_size=6):
        assert coboundary_products_vanish(rack, up_to_degree=2)


def test_cap_guard():
    with pytest.raises(CochainCapError):
        coboundary(dihedral_quandle(5), 2, cap=100)


def test_cohomology_cap_counts_the_largest_matrix_built():
    # d^3 on a 2-element rack has 2^4 = 16 rows, the most any step builds
    assert cohomology_dims(trivial_rack(2), 3, cap=16) == [1, 2, 4, 8]
    with pytest.raises(CochainCapError):
        cohomology_dims(trivial_rack(2), 3, cap=15)


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    for rack in (dihedral_quandle(3), dihedral_quandle(4), conjugation_rack(symmetric_group(3))):
        for n in (1, 2):
            matrix = coboundary(rack, n)
            dense = densify(matrix.entries, matrix.cols)
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
        given = [dict(enumerate(row)) for row in dense]
        assert exact_rank(given) == sympy.Matrix(rows, cols, sum(dense, [])).rank()
        assert given == [dict(enumerate(row)) for row in dense]  # input left as it was


def test_exact_rank_matches_fraction_oracle_on_coboundaries():
    for rack in builtin_racks():
        for k in range(4):
            for mode, rows in (
                ("rack", coboundary(rack, k).entries),
                ("quandle", quandle_coboundary(rack, k)[2]),
            ):
                assert exact_rank(rows) == _fraction_rank(rows), (rack.name, k, mode)


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
    assert exact_rank([{}, {0: 0, 3: Fraction(0)}, {}]) == 0
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1},
        {},
        {0: 3, 1: 2, 2: Fraction(6)},  # 6 x the first row
        {0: 0, 1: Fraction(-5, 6), 2: Fraction(7, 4)},
        {2: Fraction(11, 4), 0: Fraction(1, 2), 1: Fraction(-1, 2)},  # first + fourth
    ]
    assert exact_rank(rows) == _fraction_rank(rows) == 2
    assert exact_rank(rows + [{3: Fraction(-2, 9)}]) == 3
    assert exact_rank([{5: Fraction(3, 7)}, {5: -4}, {4: Fraction(1, 10**9), 5: 10**9}]) == 2


def test_exact_rank_leaves_its_input_unmodified():
    rng = random.Random(3)
    fraction_rows = [
        {j: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for j in range(6)}
        for _ in range(8)
    ]
    for rows in (
        fraction_rows,
        coboundary(dihedral_quandle(5), 2).entries,
        quandle_coboundary(conjugation_rack(symmetric_group(3)), 2)[2],
    ):
        before = repr(rows)  # repr tells 1 from Fraction(1), which == does not
        exact_rank(rows)
        assert repr(rows) == before


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
        entries = densify(full.entries, full.cols)
        nondeg_cols = set(nondegenerate_indices(n, rack.size))
        nondeg_rows = set(nondegenerate_indices(n + 1, rack.size))
        for r in range(full.rows):
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

"""Acceptance suite: every criterion at its stated budget and tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
All assertions are exact (integer or rational); no float tolerances exist.
"""

import time
from fractions import Fraction

from rackqm.certify import independence_certificate
from rackqm.cochain import coboundary_products_vanish, cohomology_dims
from rackqm.free_product import (
    free_quandle,
    free_rack,
    rack_op,
    trivial_product,
)
from rackqm.quasimorphism import (
    Sigma,
    TableComponent,
    LambdaFamily,
    brooks,
    check_cocycle_diag,
    find_unboundedness_witness,
    group_defect_estimate,
    homogeneous_rack_qm,
    homogenize_doubling,
    iota_family,
    rack_defect_estimate,
    rack_qm,
    sign_family,
    witness_growth_table,
    zero_family,
)
from rackqm.racks import builtin_racks, components, cyclic_group, trivial_rack
from rackqm.sampling import SamplerConfig, make_rng, sample_element, sample_syllable_word
from rackqm.quasimorphism import v0_dim
from rackqm.words import GroupWord

FR = free_rack(["a", "b"])
FQ = free_quandle(["a", "b"])
T23 = trivial_product({"a": 2, "b": 3})


def report(criterion: str, detail: str, elapsed: float, budget: float | None) -> None:
    line = f"PASS {criterion}: {detail} [{elapsed:.2f}s"
    line += f" < {budget:.0f}s]" if budget is not None else "]"
    print(line)
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_v0dim_psl2z():
    start = time.perf_counter()
    dim = v0_dim([cyclic_group(2), cyclic_group(3)])
    elapsed = time.perf_counter() - start
    assert dim == 1
    report("criterion 1", "v0 dimension of Z/2 * Z/3 is exactly 1", elapsed, 1.0)


def test_criterion_02_rack_defect_bound():
    start = time.perf_counter()
    observed = {}
    for label, parent in (("free rack", FR), ("T2*T3", T23)):
        est = rack_defect_estimate(
            sign_family(parent), SamplerConfig(seed=0, samples=100_000)
        )
        assert est.max_defect <= 4
        observed[label] = est.max_defect
    elapsed = time.perf_counter() - start
    report(
        "criterion 2",
        f"sign-family rack defect over 1e5 pairs: observed "
        f"{observed['free rack']} (free rack), {observed['T2*T3']} (T2*T3), bound 4",
        elapsed,
        60.0,
    )


def test_criterion_03_witness_growth():
    start = time.perf_counter()
    family = sign_family(FR)
    witness = find_unboundedness_witness(family)
    assert witness.probe_factor == "a" and witness.base_factor == "b"
    table = witness_growth_table(family, witness, range(1, 10_001))
    for n in range(1, 10_001):
        assert table[n] == 2 * n
    # end-to-end spot checks through element construction and evaluation
    for n in (1, 2, 77, 5000, 10_000):
        assert rack_qm(family, witness.element(n)) == 2 * n
    elapsed = time.perf_counter() - start
    report(
        "criterion 3",
        "phi(b, (e_a e_b)^n) = 2n exactly for n = 1..10^4",
        elapsed,
        30.0,
    )


def test_criterion_04_independence_certificates():
    start = time.perf_counter()
    for label, parent in (("free rack", FR), ("free quandle", FQ), ("T2*T3", T23)):
        cert = independence_certificate(parent, 16, 1000)
        assert cert.verdict == 16
        for i, row in enumerate(cert.matrix):
            for j, value in enumerate(row):
                assert value == (1 if i == j else 0)
    elapsed = time.perf_counter() - start
    report(
        "criterion 4",
        "rank-16 identity certificates at n=1000 on all three parents",
        elapsed,
        60.0,
    )


def test_criterion_05_cohomology_exactness():
    start = time.perf_counter()
    racks = builtin_racks(max_size=6)
    assert len(racks) >= 6
    for rack in racks:
        assert coboundary_products_vanish(rack, up_to_degree=2)
        dims = cohomology_dims(rack, 1)
        assert dims[0] == 1
        assert dims[1] == components(rack).count
    t3 = cohomology_dims(trivial_rack(3), 2)
    assert t3[1] == 3 and t3[2] == 9
    elapsed = time.perf_counter() - start
    report(
        "criterion 5",
        f"delta.delta = 0 (n<=2) on {len(racks)} built-in racks; "
        "H0 = 1, H1 = components; T3 has H1 = 3, H2 = 9",
        elapsed,
        None,
    )


def test_criterion_06_rack_axioms_symbolic():
    start = time.perf_counter()
    rng = make_rng(SamplerConfig(seed=0))
    for _ in range(10_000):
        p = sample_element(FR, rng, 8, 4)
        q = sample_element(FR, rng, 8, 4)
        r = sample_element(FR, rng, 8, 4)
        assert rack_op(rack_op(p, q), r) == rack_op(rack_op(p, r), rack_op(q, r))
        assert rack_op(rack_op(p, q), q, sign=-1) == p
    for _ in range(10_000):
        p = sample_element(FQ, rng, 8, 4)
        assert rack_op(p, p) == p
    elapsed = time.perf_counter() - start
    report(
        "criterion 6",
        "rack identity + inversion on 1e4 triples; p<|p = p on 1e4 quandle samples; "
        "zero failures",
        elapsed,
        None,
    )


def builtin_lambda_families(parent):
    families = {
        "sign": sign_family(parent),
        "iota(+-1)": iota_family(parent, "a", 0, Sigma.indicator(1)),
        "iota(+-3)": iota_family(parent, "a", 0, Sigma.indicator(3)),
        "zero": zero_family(parent),
    }
    table = TableComponent(
        "b",
        (((2,), Fraction(1, 2)),),
        Fraction(1, 2),
    )
    families["table"] = LambdaFamily(parent, (table,))
    return families


def test_criterion_07_quandle_cocycle_diagonal():
    start = time.perf_counter()
    for name, family in builtin_lambda_families(FQ).items():
        ok, checked = check_cocycle_diag(
            family, config=SamplerConfig(seed=0, samples=10_000)
        )
        assert ok and checked == 10_000, name
    elapsed = time.perf_counter() - start
    report(
        "criterion 7",
        "diagonal coboundary vanishes exactly on 1e4 samples for every built-in "
        "lambda on the free quandle",
        elapsed,
        None,
    )


def test_criterion_08_rolli_group_defect_exhaustive():
    start = time.perf_counter()
    family = sign_family(FR)
    est = group_defect_estimate(
        family,
        SamplerConfig(seed=0, samples=0),
        exhaustive_syllables=6,
        exhaustive_exponent=3,
    )
    assert est.max_defect <= 3 * family.bound == 3
    elapsed = time.perf_counter() - start
    report(
        "criterion 8",
        f"exhaustive Rolli defect over {est.checked} pairs "
        f"(|g|+|h| <= 6 syllables, exponents in [-3,3]): observed {est.max_defect} <= 3",
        elapsed,
        120.0,
    )


def test_criterion_09_homogenization_convergence():
    start = time.perf_counter()
    from rackqm.words import parse_word

    defect_bound = Fraction(2)  # user-supplied upper bound for Brooks(ab)
    estimates = homogenize_doubling(
        brooks(parse_word("a b")), parse_word("a b"), defect_bound, doublings=10
    )
    final = estimates[-1]
    assert final.exponent == 2**10
    assert final.center == 1
    assert final.radius == defect_bound / 2**10
    for a, b in zip(estimates, estimates[1:]):
        assert a.intersects(b)
    elapsed = time.perf_counter() - start
    report(
        "criterion 9",
        "Brooks(ab) at N=2^10: center exactly 1, radius D/2^10, "
        "doubling intervals intersect",
        elapsed,
        None,
    )


def test_criterion_10_homogeneity_transfer():
    start = time.perf_counter()
    rng = make_rng(SamplerConfig(seed=0))
    from rackqm.free_product import reduce_element

    checked = 0
    while checked < 500:
        g = sample_syllable_word(FR, rng, 4, 3, avoid_leading="b")
        if g.is_identity or g.syllables[0][0] == "b":
            continue
        n = rng.randint(1, 100)
        base = reduce_element(FR, "b", 0, g.syllables)
        power = reduce_element(FR, "b", 0, g.syllables * n)
        phi_g = homogeneous_rack_qm(GroupWord.exponent_sum, base)
        assert homogeneous_rack_qm(GroupWord.exponent_sum, power) == n * phi_g
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 10",
        "exponent-sum transfer phi(x, g^n) = n phi(g) on 500 sampled reduced powers, "
        "n <= 100",
        elapsed,
        None,
    )

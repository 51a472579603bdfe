import random
from fractions import Fraction

import pytest

from rackqm.free_product import (
    SyllableWord,
    free_quandle,
    free_rack,
    parse_element,
    rack_op,
    trivial_product,
)
from rackqm.quasimorphism import (
    LambdaFamily,
    QmError,
    Sigma,
    TableComponent,
    brooks,
    brooks_qm,
    exponent_sum_hom,
    family_from_dict,
    family_to_dict,
    find_unboundedness_witness,
    group_defect_estimate,
    homogeneous_rack_qm,
    homogenize,
    homogenize_doubling,
    iota_family,
    rack_defect_estimate,
    rack_qm,
    rack_qm_increment,
    rolli_qm,
    sign_family,
    tail_group_word,
    v0_dim,
    witness_growth_table,
    zero_family,
)
from rackqm.racks import cyclic_group, symmetric_group
from rackqm.sampling import SamplerConfig, make_rng, sample_syllable_word, sample_element
from rackqm.words import AbelianWord, parse_word

FR = free_rack(["a", "b"])
FQ = free_quandle(["a", "b"])
T23 = trivial_product({"a": 2, "b": 3})


def ab(name, exp=1):
    return AbelianWord(((name, exp),))


def syll(*items):
    return SyllableWord(tuple(items))


# -- Rolli sums -------------------------------------------------------------------


def test_rolli_sign_example():
    g = syll(("a", ab("a.0", 2)), ("b", ab("b.0", -3)), ("a", ab("a.0")))
    assert rolli_qm(sign_family(FR), g) == 1  # 1 - 1 + 1


def test_rolli_identity_and_zero_family():
    assert rolli_qm(sign_family(FR), syll()) == 0
    g = syll(("a", ab("a.0", 5)), ("b", ab("b.0")))
    assert rolli_qm(zero_family(FR), g) == 0


def test_rolli_is_odd_seeded():
    rng = make_rng(SamplerConfig(seed=3))
    fam = sign_family(T23)
    for _ in range(10_000):
        g = sample_syllable_word(T23, rng, 8, 4)
        inv = SyllableWord(tuple((n, v.inverse()) for n, v in reversed(g.syllables)))
        assert rolli_qm(fam, g) == -rolli_qm(fam, inv)


def test_sign_family_on_higher_rank_factor_uses_total_degree():
    fam = sign_family(T23)
    assert fam.value("a", AbelianWord((("a.0", 2), ("a.1", -1)))) == 1
    assert fam.value("a", AbelianWord((("a.0", 1), ("a.1", -1)))) == 0


def test_iota_family_support():
    fam = iota_family(T23, "a", 0, Sigma.indicator(3))
    assert fam.value("a", ab("a.0", 3)) == 1
    assert fam.value("a", ab("a.0", -3)) == -1
    assert fam.value("a", ab("a.0", 2)) == 0
    assert fam.value("a", AbelianWord((("a.0", 3), ("a.1", 1)))) == 0
    assert fam.value("b", ab("b.0", 3)) == 0
    assert fam.bound == 1


def test_sigma_tail_rule():
    sigma = Sigma(((1, Fraction(1, 2)),), tail=Fraction(1, 3))
    assert sigma.value(1) == Fraction(1, 2)
    assert sigma.value(5) == Fraction(1, 3)
    assert sigma.value(-5) == Fraction(-1, 3)
    assert sigma.value(0) == 0
    assert sigma.bound == Fraction(1, 2)


def test_table_component_oddness_enforced():
    with pytest.raises(QmError):
        TableComponent(
            "a",
            ((ab("a.0", 2), Fraction(1)), (ab("a.0", -2), Fraction(1))),
            Fraction(1),
        )
    comp = TableComponent("a", ((ab("a.0", 2), Fraction(1, 2)),), Fraction(1, 2))
    assert comp.value(ab("a.0", 2)) == Fraction(1, 2)
    assert comp.value(ab("a.0", -2)) == Fraction(-1, 2)
    assert comp.value(ab("a.0", 1)) == 0


def test_rack_qm_evaluates_tail():
    fam = sign_family(FR)
    assert rack_qm(fam, parse_element(FR, "b.0 | a.0^2")) == 1
    assert rack_qm(fam, parse_element(FR, "b.0 |")) == 0


# -- defects ------------------------------------------------------------------------


def test_group_defect_zero_family():
    est = group_defect_estimate(
        zero_family(FR), SamplerConfig(seed=0, samples=200), exhaustive_syllables=2,
        exhaustive_exponent=2,
    )
    assert est.max_defect == 0


def test_group_defect_exhaustive_exponent_zero():
    # exponent 0 leaves only the empty word, so only (e, e) is checked;
    # it must not fall back to the sampler's max_exponent
    est = group_defect_estimate(
        sign_family(FR), SamplerConfig(samples=0, max_exponent=2),
        exhaustive_syllables=2, exhaustive_exponent=0,
    )
    assert est.checked == 1


def test_group_defect_sign_small_budget():
    est = group_defect_estimate(
        sign_family(FR),
        SamplerConfig(seed=0, samples=500, max_syllables=6, max_exponent=3),
        exhaustive_syllables=4,
        exhaustive_exponent=2,
    )
    assert 0 < est.max_defect <= 3
    g, h = est.witness
    # the witness pair really achieves the reported defect
    from rackqm.free_product import concat_words
    from rackqm.words import parse_word as pw

    def to_word(text):
        word = pw(text, FR.generator_alphabet())
        items = [
            ("a" if n.startswith("a") else "b", AbelianWord(((n, e),)))
            for n, e in word.syllables
        ]
        from rackqm.free_product import factorize

        return factorize(FR, items)

    wg, wh = to_word(g), to_word(h)
    fam = sign_family(FR)
    defect = abs(
        rolli_qm(fam, wg) + rolli_qm(fam, wh) - rolli_qm(fam, concat_words(FR, wg, wh))
    )
    assert defect == est.max_defect


def test_homomorphism_has_zero_defect():
    rng = random.Random(5)
    for _ in range(2000):
        g = parse_word(" ".join(f"{rng.choice('ab')}^{rng.randint(-3, 3)}" for _ in range(4)))
        h = parse_word(" ".join(f"{rng.choice('ab')}^{rng.randint(-3, 3)}" for _ in range(4)))
        assert exponent_sum_hom(g) + exponent_sum_hom(h) == exponent_sum_hom(g * h)


def test_rack_defect_bounded_small_sample():
    for parent in (FR, T23):
        est = rack_defect_estimate(
            sign_family(parent), SamplerConfig(seed=0, samples=2000)
        )
        assert est.max_defect <= 4


def test_rack_defect_zero_family():
    est = rack_defect_estimate(zero_family(FR), SamplerConfig(seed=0, samples=300))
    assert est.max_defect == 0


def _whole_tail_increment(family, p, q):
    # the reference path: build p <| q in full and re-sum both tails
    return rack_qm(family, rack_op(p, q)) - rack_qm(family, p)


def test_rack_qm_increment_matches_whole_tail_path():
    sigma = Sigma(((1, Fraction(1, 2)), (3, Fraction(-2))), Fraction(1, 3))
    table = TableComponent(
        "b", ((ab("b.0", 1), Fraction(1)), (ab("b.1", -2), Fraction(-1, 2))), Fraction(1)
    )
    rng = random.Random(11)
    for parent in (FR, FQ, T23):
        families = [sign_family(parent), iota_family(parent, "a", 0, sigma), zero_family(parent)]
        if parent is T23:
            families.append(LambdaFamily(parent, (table,)))
        for family in families:
            for _ in range(1500):
                # short words and exponent 1 make full cancellation and absorption common
                max_syllables, max_exponent = rng.choice(((0, 1), (1, 1), (2, 1), (3, 2), (8, 4)))
                p = sample_element(parent, rng, max_syllables, max_exponent)
                q = p if rng.random() < 0.1 else sample_element(
                    parent, rng, max_syllables, max_exponent
                )
                assert rack_qm_increment(family, p, q) == _whole_tail_increment(
                    family, p, q
                ), (p.render(), q.render())


def test_rack_qm_increment_at_the_junction():
    fam = sign_family(FR)
    cases = [
        # h^-1 e_y h cancels all of g, and its next syllable is absorbed
        ("b.0 | a.0^-1 b.0", "a.0 | b.0"),
        # g cancels the whole conjugate
        ("a.0 | b.0^-1 a.0^-1 b.0", "a.0 | b.0"),
        # the last syllable of g merges with the conjugate's first
        ("a.0 | b.0^3", "a.0 | b.0"),
        # nothing cancels
        ("b.0 | a.0", "a.0 | b.0"),
        # empty tails: e_y is absorbed into p's base, or stays
        ("a.0 |", "a.0 |"),
        ("a.0 |", "b.0 |"),
    ]
    for p_text, q_text in cases:
        p, q = parse_element(FR, p_text), parse_element(FR, q_text)
        assert rack_qm_increment(fam, p, q) == _whole_tail_increment(fam, p, q)


def test_rack_qm_increment_rejects_bad_input():
    p = parse_element(FR, "a.0 | b.0")
    with pytest.raises(ValueError):
        rack_qm_increment(sign_family(FR), p, parse_element(FQ, "a.0 |"))


def test_rack_defect_estimate_matches_whole_tail_loop():
    sigma = Sigma(((2, Fraction(3, 2)),), Fraction(1))
    for parent in (FR, FQ, T23):
        for family in (sign_family(parent), iota_family(parent, "a", 0, sigma)):
            config = SamplerConfig(seed=3, samples=400, max_syllables=5, max_exponent=2)
            rng = make_rng(config)
            best, witness = Fraction(0), ("", "")
            for _ in range(config.samples):
                p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
                q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
                defect = abs(_whole_tail_increment(family, p, q))
                if defect > best:
                    best, witness = defect, (p.render(), q.render())
            est = rack_defect_estimate(family, config)
            assert (est.max_defect, est.witness, est.checked) == (best, witness, 400)


# -- unboundedness witnesses ---------------------------------------------------------


def test_witness_sign_family_free_rack():
    fam = sign_family(FR)
    witness = find_unboundedness_witness(fam)
    assert witness.slope == 2  # lambda(e_a) + lambda(e_b) = 1 + 1
    assert witness.probe_factor == "a" and witness.base_factor == "b"
    w3 = witness.element(3)
    assert rack_qm(fam, w3) == witness.increment * 3


def test_witness_iota_indicator():
    fam = iota_family(FR, "a", 0, Sigma.indicator(3))
    witness = find_unboundedness_witness(fam)
    assert witness.slope == 1  # sigma(3) + lambda_b(e_b) = 1 + 0
    assert witness.probe_value == ab("a.0", 3)


def test_witness_zero_family_raises():
    with pytest.raises(QmError):
        find_unboundedness_witness(zero_family(FR))


def test_witness_growth_table_matches_direct_evaluation():
    fam = sign_family(FR)
    witness = find_unboundedness_witness(fam)
    ns = list(range(1, 201))
    table = witness_growth_table(fam, witness, ns)
    for n in ns:
        assert table[n] == witness.increment * n
    for n in (1, 7, 50, 200):
        assert rack_qm(fam, witness.element(n)) == table[n]


def test_witness_growth_table_rejects_negative_n():
    fam = sign_family(FR)
    witness = find_unboundedness_witness(fam)
    with pytest.raises(ValueError, match="nonnegative"):
        witness_growth_table(fam, witness, [3, -1])


def test_witness_growth_table_of_no_points_is_empty():
    fam = sign_family(FR)
    assert witness_growth_table(fam, find_unboundedness_witness(fam), []) == {}


def test_witness_period_is_what_element_repeats():
    witness = find_unboundedness_witness(sign_family(T23))
    period = witness.period()
    assert isinstance(period, SyllableWord)
    assert witness.element(3).tail.syllables == period.syllables * 3


def test_witness_sign_choice_avoids_cancellation():
    # lambda(e_a) = 1 but sigma table makes lambda_b(e_b) = -1: epsilon must flip
    data = {
        "family": [
            {"factor": "a", "kind": "sign"},
            {
                "factor": "b",
                "kind": "table",
                "values": {"b.0": "-1"},
                "bound": "1",
            },
        ]
    }
    fam = family_from_dict(FR, data)
    witness = find_unboundedness_witness(fam)
    assert witness.slope == 2 and witness.epsilon == -1
    assert rack_qm(fam, witness.element(10)) == witness.increment * 10


# -- Brooks counting and homogenization ------------------------------------------------


def test_brooks_examples():
    assert brooks_qm(parse_word("a b"), parse_word("a b a b")) == 2
    assert brooks_qm(parse_word("a b"), parse_word("b^-1 a^-1")) == -1
    assert brooks_qm(parse_word("a"), parse_word("a^3")) == 3


def test_brooks_rejects_empty_pattern():
    with pytest.raises(QmError):
        brooks_qm(parse_word(""), parse_word("a"))


def test_brooks_is_odd():
    rng = random.Random(9)
    pattern = parse_word("a b")
    for _ in range(500):
        g = parse_word(
            " ".join(f"{rng.choice('ab')}^{rng.randint(-2, 2)}" for _ in range(5))
        )
        assert brooks_qm(pattern, g.inverse()) == -brooks_qm(pattern, g)


def test_brooks_counts_powers_exactly():
    pattern = parse_word("a b")
    for n in (1, 4, 32):
        assert brooks_qm(pattern, parse_word("a b") ** n) == n


def test_homogenize_brooks_ab():
    estimate = homogenize(brooks(parse_word("a b")), parse_word("a b"), "2", 2**10)
    assert estimate.center == 1
    assert estimate.radius == Fraction(2, 2**10)


def test_homogenize_identity_target():
    estimate = homogenize(brooks(parse_word("a b")), parse_word(""), "5", 16)
    assert estimate.center == 0


def test_homogenize_homomorphism_zero_defect():
    estimate = homogenize(exponent_sum_hom, parse_word("a b^2"), 0, 8)
    assert estimate.center == 3 and estimate.radius == 0


def test_homogenize_doubling_intervals_intersect():
    estimates = homogenize_doubling(
        brooks(parse_word("a b")), parse_word("a b a"), "2", doublings=8
    )
    assert len(estimates) == 9
    for a, b in zip(estimates, estimates[1:]):
        assert a.intersects(b)


def test_homogenize_rejects_inconsistent_bound():
    with pytest.raises(QmError):
        homogenize(
            brooks(parse_word("a b")),
            parse_word("a b"),
            "1/2",
            4,
            observed_defect=Fraction(1),
        )
    with pytest.raises(QmError):
        homogenize(exponent_sum_hom, parse_word("a"), "-1", 4)


def test_homogenize_tolerance_early_exit():
    estimates = homogenize_doubling(
        exponent_sum_hom, parse_word("a"), "1", doublings=20, tolerance=Fraction(1, 100)
    )
    assert estimates[-1].radius < Fraction(1, 100)
    assert len(estimates) < 21


# -- homogeneous quasimorphisms on the free product -------------------------------------


def test_homogeneous_rack_qm_exponent_sum():
    p = parse_element(FR, "b.0 | a.0^3")
    assert homogeneous_rack_qm(exponent_sum_hom, p) == 3
    assert homogeneous_rack_qm(exponent_sum_hom, parse_element(FR, "b.0 |")) == 0


def test_homogeneous_rack_qm_respects_powers():
    rng = make_rng(SamplerConfig(seed=21))
    for _ in range(100):
        g = sample_syllable_word(FR, rng, 4, 3, avoid_leading="b")
        n = rng.randint(1, 100)
        tail = SyllableWord(g.syllables * n)
        from rackqm.free_product import reduce_element

        p = reduce_element(FR, "b", 0, tail.syllables)
        flat = tail_group_word(p)
        if g.syllables and g.syllables[0][0] != "b":
            expected = n * exponent_sum_hom(tail_group_word(
                reduce_element(FR, "b", 0, g.syllables)
            ))
            assert homogeneous_rack_qm(exponent_sum_hom, p) == expected


def test_tail_group_word_needs_rank_one_factors():
    with pytest.raises(QmError):
        tail_group_word(parse_element(T23, "a.0 | b.0"))


def test_homogeneous_defect_bound_on_reduced_steps():
    # exponent sum: defect 0, |phi(e_y)| = 1; steps whose raw product is
    # already reduced move the value by at most 0 + 1
    rng = make_rng(SamplerConfig(seed=33))
    checked = 0
    while checked < 1000:
        p = sample_element(FR, rng, 6, 3)
        q = sample_element(FR, rng, 6, 3)
        result = rack_op(p, q)
        from rackqm.free_product import concat_words, invert_word, SyllableWord as SW

        e_y = FR.model(q.base_factor).embed(q.base_key)
        raw = concat_words(
            FR, p.tail, invert_word(q.tail), SW(((q.base_factor, e_y),)), q.tail
        )
        if raw.syllables and raw.syllables[0][0] == p.base_factor:
            continue  # base absorption: no uniform bound for homogeneous phi
        diff = abs(
            homogeneous_rack_qm(exponent_sum_hom, p)
            - homogeneous_rack_qm(exponent_sum_hom, result)
        )
        assert diff <= 1
        checked += 1


def test_component_oddness_and_bounds():
    rng = make_rng(SamplerConfig(seed=41))
    families = {
        "sign": sign_family(T23),
        "iota": iota_family(T23, "a", 1, Sigma.indicator(2)),
    }
    for name, fam in families.items():
        for _ in range(2000):
            factor = rng.choice(T23.factor_names)
            value = T23.model(factor).sample_value(rng, 5)
            v = fam.value(factor, value)
            assert v == -fam.value(factor, value.inverse())
            assert abs(v) <= fam.bound
        for factor in T23.factor_names:
            assert fam.value(factor, AbelianWord()) == 0


def test_homogeneous_brooks_interval_on_witness_powers():
    # phi = Brooks(a.0 b.0) counts the witness period exactly
    pattern = parse_word("a.0 b.0")
    phi = brooks(pattern)
    for n in (1, 5, 20):
        p = parse_element(FR, "b.0 | " + " ".join(["a.0 b.0"] * n))
        assert homogeneous_rack_qm(phi, p) == n


# -- odd-function dimension count --------------------------------------------------------


def sympy_odd_dimension(group) -> int:
    """Oracle: explicit constraint system lambda(1) = 0, lambda(g) + lambda(g^-1) = 0."""
    import sympy

    n = group.size
    rows = []
    row = [0] * n
    row[group.identity] = 1
    rows.append(row)
    for g in range(n):
        row = [0] * n
        row[g] += 1
        row[group.inverse[g]] += 1
        rows.append(row)
    rank = sympy.Matrix(rows).rank()
    return n - rank


def test_v0_dim_psl2z():
    assert v0_dim([cyclic_group(2), cyclic_group(3)]) == 1


def test_v0_dim_trivial_factors():
    assert v0_dim([cyclic_group(1), cyclic_group(1)]) == 0


def test_v0_dim_z5_z5():
    assert v0_dim([cyclic_group(5), cyclic_group(5)]) == 4


def test_v0_dim_matches_constraint_system_rank():
    groups = [cyclic_group(k) for k in (1, 2, 3, 4, 5, 6)] + [symmetric_group(3)]
    for g in groups:
        assert v0_dim([g]) == sympy_odd_dimension(g)
    assert v0_dim(groups) == sum(sympy_odd_dimension(g) for g in groups)


# -- lambda family JSON -------------------------------------------------------------------


def test_family_json_round_trip():
    fam = sign_family(FR)
    again = family_from_dict(FR, family_to_dict(fam))
    g = syll(("a", ab("a.0", 2)), ("b", ab("b.0", -1)))
    assert rolli_qm(again, g) == rolli_qm(fam, g)

    fam2 = iota_family(T23, "a", 1, Sigma(((2, Fraction(1, 2)),), tail=Fraction(0)))
    again2 = family_from_dict(T23, family_to_dict(fam2))
    assert again2.value("a", ab("a.1", 2)) == Fraction(1, 2)
    assert again2.value("a", ab("a.0", 2)) == 0


def test_family_json_declared_bound_checked():
    data = family_to_dict(sign_family(FR))
    data["bound"] = "1/2"
    with pytest.raises(QmError):
        family_from_dict(FR, data)


def test_family_rejects_unknown_factor():
    with pytest.raises(QmError):
        family_from_dict(FR, {"family": [{"factor": "zz", "kind": "sign"}]})

"""The junction walk, the one-period witnesses and the integer lambda
kernels against plain reference loops.

``group_defect_estimate``, ``check_cocycle_diag`` and ``bounded_2cocycle_check``
read every difference off the junction where two reduced words meet.  The
loops here re-sum whole words instead (``concat_words`` + ``rolli_qm`` on the
group side, ``rack_op`` + ``rack_qm`` on the rack side), draw the same pairs
in the same order, and must give equal results in every field.  The
exhaustive group defect reads only the one-syllable pairs and counts the rest;
a second loop reads one ``_junction`` per pair instead.

``independence_certificate`` and ``witness_growth_table`` evaluate each
periodic witness ``(x, period^n)`` on one period; here ``rack_qm`` sums the
whole n-fold tail, reduced from scratch, instead.  The certificate reads each
period off an index of the families' supports; the k^2 ``rolli_qm`` sums it
replaced are kept as its oracle.

Every lambda family evaluates through integer numerators over one common
denominator.  The last section keeps the per-component ``Fraction`` values
and the ``Fraction`` junction, increment and estimate loops they replaced,
and asserts equal values, defects, witnesses and ``checked`` counts.
"""

import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import rackqm.certify as certify_mod
import rackqm.quasimorphism as qm_mod
from rackqm.adjoint import scale
from rackqm.certify import independence_certificate
from rackqm.free_product import (
    concat_words,
    free_quandle,
    free_rack,
    rack_op,
    reduce_element,
    trivial_product,
)
from rackqm.linalg import exact_rank
from rackqm.quasimorphism import (
    Bounded2CocycleReport,
    DefectEstimate,
    IotaComponent,
    LambdaFamily,
    Sigma,
    SignComponent,
    TableComponent,
    UnboundednessWitness,
    ZeroComponent,
    _increment,
    _junction,
    bounded_2cocycle_check,
    check_cocycle_diag,
    find_unboundedness_witness,
    group_defect_estimate,
    iota_family,
    rack_defect_estimate,
    rack_qm,
    rolli_qm,
    sign_family,
    witness_growth_table,
    zero_family,
)
from rackqm.sampling import (
    SamplerConfig,
    count_syllable_words,
    enumerate_syllable_words,
    make_rng,
    sample_element,
    sample_syllable_word,
)

PARENTS = {
    "FR": free_rack(["a", "b"]),
    "FQ": free_quandle(["a", "b"]),
    "T2*T3": trivial_product({"a": 2, "b": 3}),
    "FR3": free_rack(["a", "b", "c"]),
}


def families(parent):
    b0 = parent.model("b").embed(0)
    table = TableComponent("b", ((scale(b0, 2), Fraction(1, 2)),), Fraction(1, 2))
    fractional = Sigma(((1, Fraction(1, 2)), (2, Fraction(-2))), Fraction(1, 3))
    return {
        "sign": sign_family(parent),
        "iota(+-1)": iota_family(parent, "a", 0, Sigma.indicator(1)),
        "iota(+-3)": iota_family(parent, "a", 0, Sigma.indicator(3)),
        "iota(1/3 tail)": iota_family(parent, "a", 0, fractional),
        "table": LambdaFamily(parent, (table,)),
        "zero": zero_family(parent),
    }


CASES = [
    pytest.param(parent, label, id=f"{name}-{label}")
    for name, parent in PARENTS.items()
    for label in families(parent)
]

# short words and small exponents make full cancellation and merges common
CONFIG = SamplerConfig(seed=5, samples=300, max_syllables=4, max_exponent=2)


def defect_pairs(parent, config, exhaustive_syllables, exhaustive_exponent):
    """The (g, h) pairs a group defect estimate checks, in its order: the
    exhaustive pairs (none when ``exhaustive_syllables`` is None) ordered by
    (|g|, |h|) and then enumeration order, followed by the sampled pairs."""
    pairs = []
    if exhaustive_syllables is not None:
        by_length = {}
        for word in enumerate_syllable_words(parent, exhaustive_syllables, exhaustive_exponent):
            by_length.setdefault(len(word), []).append(word)
        pairs = [
            (g, h)
            for lg, gs in sorted(by_length.items())
            for lh, hs in sorted(by_length.items())
            if lg + lh <= exhaustive_syllables
            for g in gs
            for h in hs
        ]
    rng = make_rng(config)
    for _ in range(config.samples):
        g = sample_syllable_word(parent, rng, config.max_syllables, config.max_exponent)
        h = sample_syllable_word(parent, rng, config.max_syllables, config.max_exponent)
        pairs.append((g, h))
    return pairs


def whole_word_group_defect(family, config, exhaustive_syllables, exhaustive_exponent):
    parent = family.parent
    pairs = defect_pairs(parent, config, exhaustive_syllables, exhaustive_exponent)
    best, witness = Fraction(0), ("", "")
    for g, h in pairs:
        gh = concat_words(parent, g, h)
        defect = abs(rolli_qm(family, g) + rolli_qm(family, h) - rolli_qm(family, gh))
        if defect > best:
            best, witness = defect, (g.render(parent), h.render(parent))
    return DefectEstimate(best, witness, len(pairs))


def whole_tail_F(family, p, q):
    return rack_qm(family, p) - rack_qm(family, rack_op(p, q))


def whole_tail_diag(family, config):
    rng = make_rng(config)
    for i in range(config.samples):
        p = sample_element(family.parent, rng, config.max_syllables, config.max_exponent)
        if whole_tail_F(family, p, p) != 0:
            return False, i + 1
    return True, config.samples


def whole_tail_2cocycle(family, config, dd_triples):
    parent = family.parent
    rng = make_rng(config)
    worst = Fraction(0)
    for _ in range(config.samples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        worst = max(worst, abs(whole_tail_F(family, p, q)))
    # the triples come from a fresh stream of the same seed
    rng = make_rng(config)
    F = lambda a, b: whole_tail_F(family, a, b)  # noqa: E731
    all_zero = True
    for _ in range(dd_triples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        r = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        if F(p, r) - F(p, q) - F(rack_op(p, q), r) + F(rack_op(p, r), rack_op(q, r)):
            all_zero = False
            break
    return Bounded2CocycleReport(worst, 4 * family.bound, config.samples, dd_triples, all_zero)


@pytest.mark.parametrize("parent, label", CASES)
def test_group_defect_matches_whole_word_loop(parent, label):
    family = families(parent)[label]
    exhaustive = (CONFIG, 3, 1)
    sampled = (SamplerConfig(seed=2, samples=400, max_syllables=3, max_exponent=2), 0, 1)
    for config, syllables, exponent in (exhaustive, sampled):
        est = group_defect_estimate(family, config, syllables, exponent)
        assert est == whole_word_group_defect(family, config, syllables, exponent)


@pytest.mark.parametrize("parent, label", CASES)
def test_cocycle_checks_match_whole_tail_loops(parent, label):
    family = families(parent)[label]
    assert check_cocycle_diag(family, CONFIG) == whole_tail_diag(family, CONFIG)
    report = bounded_2cocycle_check(family, CONFIG, dd_triples=60)
    assert report == whole_tail_2cocycle(family, CONFIG, 60)


def pairwise_group_defect(family, config, exhaustive_syllables, exhaustive_exponent):
    """The estimate as one ``_junction`` per (g, h) pair, in its order: the
    loop that the prefix-tree walk replaced."""
    parent = family.parent
    pairs = defect_pairs(parent, config, exhaustive_syllables, exhaustive_exponent)
    best, witness = 0, ("", "")
    for g, h in pairs:
        merge = _junction(family, g.syllables, h.syllables.__getitem__, len(h))[0]
        if merge is not None and abs(merge) > best:
            best, witness = abs(merge), (g.render(parent), h.render(parent))
    return DefectEstimate(Fraction(best, family.denominator), witness, len(pairs))


# (budget, exponent) runs of at most 50,000 exhaustive pairs each
PAIRWISE_RUNS = {
    "FR": [(s, e) for e in (1, 2, 3) for s in range(6) if (s, e) != (5, 3)],
    "FQ": [(s, e) for e in (1, 2, 3) for s in range(6) if (s, e) != (5, 3)],
    "T2*T3": [(s, e) for e in (1, 2, 3) for s in range(5 - e)],
    "FR3": [(s, e) for e in (1, 2, 3) for s in range(7 - e)],
}


@pytest.mark.parametrize("name", PAIRWISE_RUNS)
def test_tree_walk_matches_the_pairwise_junctions(name):
    parent = PARENTS[name]
    named = families(parent)
    for label in ("sign", "zero", "iota(1/3 tail)", "table"):
        family = named[label]
        for syllables, exponent in PAIRWISE_RUNS[name]:
            for samples in (0, 20):
                config = SamplerConfig(seed=7, samples=samples, max_syllables=3, max_exponent=2)
                est = group_defect_estimate(family, config, syllables, exponent)
                expected = pairwise_group_defect(family, config, syllables, exponent)
                assert est == expected, (label, syllables, exponent, samples)


def exhaustive_pair_count(parent, syllables, exponent):
    """The exhaustive pairs with |g| + |h| <= ``syllables``, counted on a real
    enumeration of the words."""
    by_length = Counter(len(w) for w in enumerate_syllable_words(parent, syllables, exponent))
    return sum(
        m * n for lg, m in by_length.items() for lh, n in by_length.items() if lg + lh <= syllables
    )


def test_exhaustive_search_enumerates_no_word(monkeypatch):
    # the benchmark's tracer counts words by patching this module global
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_syllable_words(*args)

    monkeypatch.setattr(qm_mod, "enumerate_syllable_words", counting)
    parent = PARENTS["FR3"]
    for syllables, exponent in ((0, 2), (1, 2), (4, 2), (3, 0), (5, 1)):
        est = group_defect_estimate(sign_family(parent), SamplerConfig(samples=5), syllables, exponent)
        assert est.checked == exhaustive_pair_count(parent, syllables, exponent) + 5
    group_defect_estimate(sign_family(parent), SamplerConfig(samples=5))
    assert calls == []


def pair_count_by_factor_sequences(parent, syllables, exponent):
    """The pairs with |g| + |h| <= ``syllables``: words counted by the factor
    they end in, one predecessor factor at a time, and every (|g|, |h|) block
    summed on its own."""
    values = {f.factor: len(list(f.enumerate_values(exponent))) for f in parent.factors}
    words, ending = [1], dict(values)
    for _ in range(syllables):
        words.append(sum(ending.values()))
        ending = {
            g: sum(ending[f] * values[g] for f in values if f != g) for g in values
        }
    return sum(
        words[lg] * words[lh]
        for lg in range(syllables + 1)
        for lh in range(syllables + 1 - lg)
    )


@pytest.mark.parametrize("name", ["FR", "T2*T3", "FR3"])
def test_the_one_syllable_pairs_decide_budgets_no_enumeration_reaches(name):
    # a budget of 40 has more than 10^30 pairs: the max and witness come
    # from the (1, 1) block, which a budget of 2 already checks pair by pair
    parent = PARENTS[name]
    config = SamplerConfig(samples=0)
    for label in ("sign", "table"):
        family = families(parent)[label]
        start = time.perf_counter()
        est = group_defect_estimate(family, config, 40, 3)
        assert time.perf_counter() - start < 0.5, label
        expected = pairwise_group_defect(family, config, 2, 3)
        assert (est.max_defect, est.witness) == (expected.max_defect, expected.witness), label
        assert est.checked == pair_count_by_factor_sequences(parent, 40, 3), label
        assert est.checked > 10**30, label


def test_exhaustive_count_stops_at_the_first_empty_length(monkeypatch):
    # at exponent 0 no factor has a value, so no word is longer than 0
    # syllables, whatever the budget
    read = []

    def counting(value_counts):
        for words in count_syllable_words(value_counts):
            read.append(words)
            yield words

    monkeypatch.setattr(qm_mod, "count_syllable_words", counting)
    est = group_defect_estimate(sign_family(PARENTS["FR"]), SamplerConfig(samples=0), 10**6, 0)
    assert est.checked == 1
    assert len(read) <= 2


def test_group_defect_sees_merges():
    # the largest merge term with exponents up to 2 is
    # |sigma(2) + sigma(2) - sigma(4)| = |-2 - 2 - 1/3|
    est = group_defect_estimate(families(PARENTS["FR"])["iota(1/3 tail)"], CONFIG, 3, 2)
    assert est.max_defect == Fraction(13, 3)


def test_junction_paths_never_resum_whole_words(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-word path called")

    monkeypatch.setattr(qm_mod, "concat_words", refuse)
    monkeypatch.setattr(qm_mod, "rolli_qm", refuse)
    family = sign_family(PARENTS["FR"])
    group_defect_estimate(family, CONFIG, 2, 2)
    check_cocycle_diag(family, CONFIG)
    bounded_2cocycle_check(family, CONFIG, dd_triples=20)


def test_negative_exhaustive_budget_is_rejected():
    with pytest.raises(ValueError, match="--exhaustive"):
        enumerate_syllable_words(PARENTS["FR"], -1, 2)
    with pytest.raises(ValueError, match="--exhaustive"):
        group_defect_estimate(sign_family(PARENTS["FR"]), CONFIG, -1)
    # a negative exponent would leave the empty word alone, and defect 0
    with pytest.raises(ValueError, match="--max-exponent"):
        enumerate_syllable_words(PARENTS["FR"], 3, -1)
    with pytest.raises(ValueError, match="--max-exponent"):
        group_defect_estimate(sign_family(PARENTS["FR"]), SamplerConfig(samples=0), 3, -2)


# -- one period against the n-fold tail ------------------------------------------

CERTIFIED = {name: PARENTS[name] for name in ("FR", "FQ", "T2*T3")}


def growth_families(parent):
    a0 = parent.model("a").embed(0)
    b0 = parent.model("b").embed(0)
    # lambda(e_a) = 1 against lambda(e_b) = -1/2, so the witness takes e_b^-1
    opposed = LambdaFamily(parent, (
        TableComponent("a", ((a0, Fraction(1)),), Fraction(1)),
        TableComponent("b", ((b0, Fraction(-1, 2)),), Fraction(1, 2)),
    ))
    named = families(parent)
    return {
        "sign": named["sign"],
        "iota(+3)": named["iota(+-3)"],
        "iota(-3)": iota_family(parent, "a", 0, Sigma.indicator(3, -1)),
        "table": named["table"],
        "epsilon -1": opposed,
    }


@pytest.mark.parametrize("name", CERTIFIED)
@pytest.mark.parametrize("n", [1, 7])
def test_certificate_matrix_matches_whole_tails(name, n):
    parent = CERTIFIED[name]
    for rank in range(1, 5):
        cert = independence_certificate(parent, rank, n)
        base_factor, base_key = cert.witness_base
        witnesses = [
            reduce_element(parent, base_factor, base_key, period.syllables * n)
            for period in cert.periods
        ]
        assert all(len(w.tail) == 2 * n for w in witnesses)
        assert cert.matrix == tuple(
            tuple(rack_qm(fam, w) / n for w in witnesses) for fam in cert.families
        )


def rolli_certificate(cert):
    """The k^2 ``rolli_qm`` matrix and its rank, as every pair used to be evaluated."""
    matrix = tuple(tuple(rolli_qm(fam, period) for period in cert.periods) for fam in cert.families)
    rows = [{j: int(v * fam.denominator) for j, v in enumerate(row)}
            for fam, row in zip(cert.families, matrix)]
    return matrix, exact_rank(rows)


@pytest.mark.parametrize("name", CERTIFIED)
@pytest.mark.parametrize("n", [1, 10**9])
def test_indexed_certificate_matches_the_rolli_matrix(name, n):
    for rank in range(1, 65):
        cert = independence_certificate(CERTIFIED[name], rank, n)
        assert (cert.matrix, cert.verdict) == rolli_certificate(cert), rank


@pytest.mark.parametrize("name", CERTIFIED)
def test_support_index_is_complete(name):
    # on pure powers of both factors' base generators, each family's evaluator
    # is nonzero exactly where the index holds an entry for that family
    parent = CERTIFIED[name]
    for rank in (1, 2, 5):
        families = independence_certificate(parent, rank, 1).families
        index = certify_mod._support_index(families)
        powers = {
            (factor, scale(parent.model(factor).embed(0), m))
            for factor in parent.factor_names
            for m in range(-rank - 2, rank + 3)
            if m
        }
        assert set(index) <= powers
        for i, fam in enumerate(families):
            for factor, word in powers:
                value = fam.evaluators[factor](word)
                entries = dict(index.get((factor, word), ()))
                assert entries.get(i, 0) == value, (rank, i, factor, word)


def test_certificate_calls_no_rolli_qm_and_each_evaluator_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("rolli_qm called")

    calls = Counter()

    def counted_family(*args):
        family = iota_family(*args)
        for factor, evaluate in family.evaluators.items():
            def counted(word, evaluate=evaluate, key=(id(family), factor)):
                calls[key] += 1
                return evaluate(word)

            family.evaluators[factor] = counted
        return family

    monkeypatch.setattr(qm_mod, "rolli_qm", refuse)
    monkeypatch.setattr(certify_mod, "rolli_qm", refuse, raising=False)
    monkeypatch.setattr(certify_mod, "iota_family", counted_family)
    for parent in CERTIFIED.values():
        calls.clear()
        cert = independence_certificate(parent, 64, 10**9)
        assert cert.verdict == 64
        per_family = Counter()
        for (family_id, _), count in calls.items():
            per_family[family_id] += count
        assert sorted(per_family) == sorted(id(fam) for fam in cert.families)
        assert max(per_family.values()) <= 2  # one probe each, not one call per period


def test_growth_table_is_exact_and_normalised():
    family = iota_family(PARENTS["FR"], "a", 0, Sigma.indicator(1, Fraction(3, 2)))
    witness = find_unboundedness_witness(family)
    step = rolli_qm(family, witness.period())
    assert step == Fraction(3, 2)
    ns = [0, 1, 2, 7, 10**9]
    table = witness_growth_table(family, witness, ns)
    assert table == {n: n * step for n in ns}
    assert all(type(v) is Fraction for v in table.values())  # == compares normalised terms
    assert (table[2].numerator, table[2].denominator) == (3, 1)


@pytest.mark.parametrize("name", CERTIFIED)
def test_growth_table_matches_whole_tails(name):
    parent = CERTIFIED[name]
    ns = [0, 1, 2, 7, 50, 64]
    for label, family in growth_families(parent).items():
        witness = find_unboundedness_witness(family)
        assert (witness.epsilon == -1) == (label == "epsilon -1")
        period = witness.period().syllables
        expected = {}
        for n in ns:
            element = witness.element(n)
            assert element == reduce_element(
                parent, witness.base_factor, witness.base_key, period * n
            )
            expected[n] = rack_qm(family, element)
        assert witness_growth_table(family, witness, ns) == expected, label


def test_periodic_witnesses_never_build_tails(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-tail path called")

    def one_period(rolli_qm):
        def checked(family, word):
            assert len(word) == 2, "rolli_qm summed more than one period"
            return rolli_qm(family, word)

        return checked

    monkeypatch.setattr(qm_mod, "rack_qm", refuse)
    monkeypatch.setattr(certify_mod, "rack_qm", refuse, raising=False)
    monkeypatch.setattr(certify_mod, "FreeProductElement", refuse)
    monkeypatch.setattr(UnboundednessWitness, "element", refuse)
    monkeypatch.setattr(qm_mod, "rolli_qm", one_period(qm_mod.rolli_qm))
    monkeypatch.setattr(certify_mod, "rolli_qm", one_period(rolli_qm), raising=False)
    for parent in CERTIFIED.values():
        cert = independence_certificate(parent, 4, 10**9)
        assert cert.verdict == 4
        family = sign_family(parent)
        witness = find_unboundedness_witness(family)
        assert witness_growth_table(family, witness, [10**9]) == {10**9: 2 * 10**9}


# -- integer kernels against Fraction loops -------------------------------------


def sigma_oracle(sigma, n):
    if n == 0:
        return Fraction(0)
    sign = 1 if n > 0 else -1
    for k, v in sigma.entries:
        if k == abs(n):
            return sign * v
    return sign * sigma.tail if abs(n) > sigma.cutoff else Fraction(0)


def component_oracle(comp, word):
    """lambda(word) straight from a component's data, in Fractions."""
    if isinstance(comp, SignComponent):
        d = sum(word)
        return Fraction((d > 0) - (d < 0))
    if isinstance(comp, IotaComponent):
        pure = word.count(0) == len(word) - 1
        return sigma_oracle(comp.sigma, word[comp.index]) if pure else Fraction(0)
    if isinstance(comp, TableComponent):
        table = dict(comp.entries)
        if word in table:
            return table[word]
        return -table.get(scale(word, -1), Fraction(0))
    assert isinstance(comp, ZeroComponent)
    return Fraction(0)


def lam_oracle(family, factor, word):
    return component_oracle(family.component(factor), word)


def rolli_oracle(family, word):
    return sum((lam_oracle(family, f, v) for f, v in word.syllables), Fraction(0))


def junction_oracle(family, head, at, length):
    i, k = len(head), 0
    while i and k < length:
        name, b = at(k)
        last_name, a = head[i - 1]
        if name != last_name:
            break
        merged = family.parent.model(name).multiply(a, b)
        if any(merged):
            lam = lambda v: lam_oracle(family, name, v)  # noqa: E731
            return lam(a) + lam(b) - lam(merged), i, k
        i -= 1
        k += 1
    return None, i, k


def increment_oracle(family, p, q):
    e_y = p.parent.model(q.base_factor).embed(q.base_key)
    tail = q.tail.syllables
    n = len(tail)

    def conjugate(k):
        if k < n:
            name, value = tail[n - 1 - k]
            return name, scale(value, -1)
        if k == n:
            return q.base_factor, e_y
        return tail[k - n - 1]

    merge, i, k = junction_oracle(family, p.tail.syllables, conjugate, 2 * n + 1)
    increment = lam_oracle(family, q.base_factor, e_y)
    if merge is not None:
        return increment - merge
    if not i and k <= 2 * n:
        name, v = conjugate(k)
        if name == p.base_factor:
            increment -= lam_oracle(family, name, v)
    return increment


def group_defect_oracle(family, config, exhaustive_syllables, exhaustive_exponent):
    parent = family.parent
    pairs = defect_pairs(parent, config, exhaustive_syllables, exhaustive_exponent)
    best, witness = Fraction(0), ("", "")
    for g, h in pairs:
        merge = junction_oracle(family, g.syllables, h.syllables.__getitem__, len(h))[0]
        if merge is not None and abs(merge) > best:
            best, witness = abs(merge), (g.render(parent), h.render(parent))
    return DefectEstimate(best, witness, len(pairs))


def rack_defect_oracle(family, config):
    rng = make_rng(config)
    best, witness = Fraction(0), ("", "")
    for _ in range(config.samples):
        p = sample_element(family.parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(family.parent, rng, config.max_syllables, config.max_exponent)
        defect = abs(increment_oracle(family, p, q))
        if defect > best:
            best, witness = defect, (p.render(), q.render())
    return DefectEstimate(best, witness, config.samples)


KERNEL_PARENTS = {
    "FR": PARENTS["FR"],
    "FQ": PARENTS["FQ"],
    "T2*T3": PARENTS["T2*T3"],
    "T11*T2": trivial_product({"a": 11, "b": 2}),
}


def kernel_families(parent):
    """Families whose denominators run up to 2 * 3 * 5 * 7 = 210; sign and
    table components sit next to fractional ones, so they are scaled by D > 1."""
    a = parent.model("a")
    a0, a_last = a.embed(0), a.embed(a.rank - 1)
    b0 = parent.model("b").embed(0)
    half_third = Sigma(((1, Fraction(1, 2)), (2, Fraction(-1, 3))), Fraction(2, 5))
    sevenths = TableComponent(
        "b", ((b0, Fraction(1, 7)), (scale(b0, 2), Fraction(-3, 7))), Fraction(3, 7)
    )
    a_table = TableComponent(
        "a",
        ((scale(a0, 2), Fraction(1, 2)), (scale(a_last, -1), Fraction(-2, 5))),
        Fraction(1, 2),
    )
    return {
        "sign": sign_family(parent),
        "table": LambdaFamily(parent, (a_table, sevenths)),
        "coprime": LambdaFamily(parent, (IotaComponent("a", 0, half_third), sevenths)),
        "sign+iota": LambdaFamily(parent, (IotaComponent("a", 0, half_third), SignComponent("b"))),
        "table+sign": LambdaFamily(parent, (a_table, SignComponent("b"))),
        "zero": zero_family(parent),
    }


KERNEL_CASES = [
    pytest.param(parent, label, id=f"{name}-{label}")
    for name, parent in KERNEL_PARENTS.items()
    for label in kernel_families(parent)
]


def test_kernel_families_cover_coprime_denominators():
    denominators = {
        label: family.denominator
        for label, family in kernel_families(KERNEL_PARENTS["FR"]).items()
    }
    assert denominators == {
        "sign": 1, "table": 70, "coprime": 210, "sign+iota": 30, "table+sign": 10, "zero": 1,
    }


@pytest.mark.parametrize("parent, label", KERNEL_CASES)
def test_integer_estimates_match_fraction_loops(parent, label):
    family = kernel_families(parent)[label]
    sampled = SamplerConfig(seed=9, samples=300, max_syllables=4, max_exponent=2)
    # a rank-11 factor has 3^11 - 1 values at exponent 1: sampled pairs only there
    for syllables in (None,) if parent.model("a").rank > 3 else (3, None):
        est = group_defect_estimate(family, sampled, syllables, 1)
        assert est == group_defect_oracle(family, sampled, syllables, 1)
    assert rack_defect_estimate(family, CONFIG) == rack_defect_oracle(family, CONFIG)


@pytest.mark.parametrize("parent, label", KERNEL_CASES)
def test_integer_values_match_fraction_sums(parent, label):
    family = kernel_families(parent)[label]
    rng = make_rng(SamplerConfig(seed=12))
    for _ in range(200):
        word = sample_syllable_word(parent, rng, 6, 3)
        assert rolli_qm(family, word) == rolli_oracle(family, word)
        p = sample_element(parent, rng, 4, 2)
        q = sample_element(parent, rng, 4, 2)
        assert rack_qm(family, p) == rolli_oracle(family, p.tail)
        increment = Fraction(_increment(family, p, q), family.denominator)
        assert increment == increment_oracle(family, p, q)


@pytest.mark.parametrize("parent, label", KERNEL_CASES)
def test_denominator_and_value_match_the_component_oracle(parent, label):
    family = kernel_families(parent)[label]
    values = []  # sign and zero components take integers only
    for comp in family.components:
        if isinstance(comp, TableComponent):
            values += [v for _, v in comp.entries]
        elif isinstance(comp, IotaComponent):
            values += [v for _, v in comp.sigma.entries] + [comp.sigma.tail]
    assert family.denominator == lcm(*(v.denominator for v in values))
    cutoff = max(
        (c.sigma.cutoff for c in family.components if isinstance(c, IotaComponent)), default=0
    )
    for factor in parent.factor_names:
        model = parent.model(factor)
        words = [model.identity()]
        words += [scale(model.embed(i), k) for i in range(model.rank)
                  for k in range(-cutoff - 2, cutoff + 3) if k]
        words += [w for f, probe in family.probes() if f == factor
                  for w in (probe, scale(probe, -1))]
        for word in words:
            assert family.value(factor, word) == lam_oracle(family, factor, word), (factor, word)

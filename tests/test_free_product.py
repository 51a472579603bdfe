import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackqm.adjoint import scale
from rackqm.free_product import (
    FreeProductElement,
    FreeProductRack,
    conjugate_form,
    equal,
    factorize,
    free_quandle,
    free_rack,
    parse_element,
    rack_op,
    reduce_element,
    trivial_product,
)
from rackqm.sampling import SamplerConfig, make_rng, sample_element
from rackqm.words import GroupWord

FR = free_rack(["a", "b"])
FQ = free_quandle(["a", "b"])
T23 = trivial_product({"a": 2, "b": 3})
PARENTS = (FR, FQ, T23)
R11 = trivial_product({"a": 11, "b": 2})


# -- factorize -----------------------------------------------------------------


def test_factorize_already_alternating():
    items = [("a", (2,)), ("b", (-1,)), ("a", (1,))]
    word = factorize(FR, items)
    assert len(word) == 3 and word.syllables == tuple(items)


def test_factorize_cancellation():
    word = factorize(FR, [("a", (1,)), ("a", (-1,))])
    assert word.is_identity


def test_factorize_two_stage_merge():
    items = [("a", (1,)), ("b", (1,)), ("b", (-1,)), ("a", (1,))]
    word = factorize(FR, items)
    assert word.syllables == (("a", (2,)),)


def test_factorize_rejects_foreign_values():
    # a value is a tuple of the factor's rank ints; elementwise sums over
    # zip would silently truncate a vector of the wrong length
    for parent, bad in ((FR, (1, 0)), (FR, ()), (FR, [1]), (FR, (1.0,)), (T23, (1, 0, 0))):
        with pytest.raises(ValueError):
            factorize(parent, [("a", (1,) * parent.model("a").rank), ("a", bad)])
    with pytest.raises(KeyError):
        factorize(FR, [("c", (1,))])


def test_factorize_round_trip_through_render():
    rng = make_rng(SamplerConfig(seed=5))
    from rackqm.sampling import sample_syllable_word

    for _ in range(200):
        word = sample_syllable_word(T23, rng, 8, 4)
        assert factorize(T23, word.syllables) == word


def test_factorize_output_is_alternating_and_identity_free():
    rng = random.Random(37)
    names = T23.factor_names
    for _ in range(500):
        items = []
        for _ in range(rng.randint(0, 10)):
            name = rng.choice(names)  # adjacent repeats on purpose
            model = T23.model(name)
            value = model.sample_value(rng, 3)
            if rng.random() < 0.2:
                value = scale(value, -1)
            items.append((name, value))
        word = factorize(T23, items)
        for (f1, v1), (f2, _) in zip(word.syllables, word.syllables[1:]):
            assert f1 != f2
        assert all(any(v) for _, v in word.syllables)


# -- reduce_element -------------------------------------------------------------


def test_reduce_trivial_action_absorbs_leading_syllable():
    p = reduce_element(T23, "a", 0, [("a", (2, 0)), ("b", (1, 0, 0))])
    assert p.base_factor == "a" and p.base_key == 0
    assert p.tail.syllables == (("b", (1, 0, 0)),)


def test_reduce_empty_tail():
    p = reduce_element(T23, "a", 1)
    assert p.tail.is_identity and p.base_key == 1


def test_reduce_leaves_reduced_input_alone():
    p = reduce_element(T23, "a", 0, [("b", (0, 0, 1)), ("a", (0, -1))])
    assert len(p.tail) == 2


def test_reduce_free_rack_shifts_base():
    p = reduce_element(FR, "a", 0, [("a", (3,)), ("b", (1,))])
    assert p.base_key == 3
    assert p.tail.syllables == (("b", (1,)),)


def test_reduce_invariant_under_defining_rewrites():
    # inserting (x . g, w) <-> (x, g w) moves never changes the reduced form
    rng = random.Random(7)
    for parent in PARENTS:
        model_a = parent.model("a")
        for _ in range(200):
            p = sample_element(parent, rng, 6, 3)
            prefix = model_a.sample_value(rng, 3)
            if p.base_factor == "a":
                # unreduce: (x, w) -> (y, g w) with y . g = x needs a g-preimage;
                # both stock actions are invertible in the key
                if parent is FR:
                    y = p.base_key - prefix[0]
                else:
                    y = p.base_key
                rewritten = reduce_element(
                    parent, "a", y, (("a", prefix),) + p.tail.syllables
                )
                expected_key = model_a.act(y, prefix)
                assert rewritten.base_key == expected_key
                if expected_key == p.base_key:
                    assert equal(rewritten, p)
            else:
                rewritten = reduce_element(
                    parent, p.base_factor, p.base_key, p.tail.syllables
                )
                assert equal(rewritten, p)


# -- rack_op ---------------------------------------------------------------------


def test_rack_op_generators_free_rack():
    p = parse_element(FR, "a.0 |")
    q = parse_element(FR, "b.0 |")
    assert rack_op(p, q).render() == "a.0 | b.0"


def test_rack_op_substitution_example():
    p = parse_element(FR, "a.0 | b.0")
    q = parse_element(FR, "b.0 | a.0")
    result = rack_op(p, q)
    expected = parse_element(FR, "a.0 | b.0 a.0^-1 b.0 a.0")
    assert equal(result, expected)


def test_rack_op_inverse_cancels():
    rng = random.Random(11)
    for parent in PARENTS:
        for _ in range(300):
            p = sample_element(parent, rng, 8, 4)
            q = sample_element(parent, rng, 8, 4)
            assert equal(rack_op(rack_op(p, q), q, sign=-1), p)
            assert equal(rack_op(rack_op(p, q, sign=-1), q), p)


def test_rack_op_mixed_parents_rejected():
    with pytest.raises(ValueError):
        rack_op(parse_element(FR, "a.0 |"), parse_element(FQ, "a.0 |"))


def test_rack_identity_seeded():
    rng = random.Random(13)
    for parent in PARENTS:
        for _ in range(300):
            p = sample_element(parent, rng, 6, 3)
            q = sample_element(parent, rng, 6, 3)
            r = sample_element(parent, rng, 6, 3)
            lhs = rack_op(rack_op(p, q), r)
            rhs = rack_op(rack_op(p, r), rack_op(q, r))
            assert equal(lhs, rhs)


def test_quandle_idempotence():
    rng = random.Random(17)
    for parent in (FQ, T23):
        for _ in range(300):
            p = sample_element(parent, rng, 8, 4)
            assert equal(rack_op(p, p), p)


def test_free_rack_diagonal_shifts():
    p = parse_element(FR, "a.0 |")
    pp = rack_op(p, p)
    assert pp.render() == "a.0 | a.0"
    assert not equal(pp, p)


# -- equality and canonical forms ------------------------------------------------


def test_equal_distinguishes_tails():
    assert not equal(parse_element(FR, "a.0 | b.0"), parse_element(FR, "a.0 | b.0^2"))


def test_free_quandle_strips_leading_base_powers():
    assert equal(
        parse_element(FQ, "a.0 | a.0^3 b.0"), parse_element(FQ, "a.0 | b.0")
    )
    assert not equal(
        parse_element(FR, "a.0 | a.0^3 b.0"), parse_element(FR, "a.0 | b.0")
    )


def test_quandle_axiom_on_generators():
    p = parse_element(FQ, "a.0 |")
    assert equal(rack_op(p, p), p)


# -- free rack vs the closed pair formula ----------------------------------------


def as_pair(p: FreeProductElement) -> tuple[str, GroupWord]:
    """Free-rack element as the plain pair (letter, full group word)."""
    shift = GroupWord(((f"{p.base_factor}.0", p.base_key),))
    tail = GroupWord(tuple((f"{name}.0", v[0]) for name, v in p.tail.syllables))
    return p.base_factor, shift * tail


def pair_op(p, q):
    (s, g), (t, h) = p, q
    return (s, g * h.inverse() * GroupWord(((f"{t}.0", 1),)) * h)


def test_free_rack_matches_closed_formula():
    rng = random.Random(19)
    for _ in range(1000):
        p = sample_element(FR, rng, 6, 3)
        q = sample_element(FR, rng, 6, 3)
        ours = as_pair(rack_op(p, q))
        oracle = pair_op(as_pair(p), as_pair(q))
        assert ours == oracle


def test_as_pair_is_injective_on_samples():
    rng = random.Random(23)
    seen = {}
    for _ in range(500):
        p = sample_element(FR, rng, 5, 3)
        key = as_pair(p)
        if key in seen:
            assert equal(seen[key], p)
        seen[key] = p


# -- conjugate form ---------------------------------------------------------------


def test_conjugate_form_examples():
    assert conjugate_form(parse_element(FQ, "a.0 |")).render() == "a"
    assert conjugate_form(parse_element(FQ, "a.0 | b.0")).render() == "b^-1 a b"
    assert (
        conjugate_form(parse_element(FQ, "a.0 | a.0^2 b.0")).render() == "b^-1 a b"
    )


def test_conjugate_form_requires_free_quandle():
    with pytest.raises(ValueError):
        conjugate_form(parse_element(FR, "a.0 |"))
    with pytest.raises(ValueError):
        conjugate_form(parse_element(T23, "a.0 |"))


def test_conjugate_form_separates_equality():
    rng = random.Random(29)
    for _ in range(300):
        p = sample_element(FQ, rng, 6, 3)
        q = sample_element(FQ, rng, 6, 3)
        assert equal(p, q) == (conjugate_form(p) == conjugate_form(q))
    # conjugation-invariance sanity: p <| q is conjugation in the free group
    for _ in range(100):
        p = sample_element(FQ, rng, 5, 3)
        q = sample_element(FQ, rng, 5, 3)
        w = conjugate_form(q)
        assert conjugate_form(rack_op(p, q)) == w.inverse() * conjugate_form(p) * w


# -- text syntax ------------------------------------------------------------------


def test_parse_render_round_trip():
    rng = random.Random(31)
    for parent in (*PARENTS, R11):
        for _ in range(300):
            p = sample_element(parent, rng, 6, 4)
            assert parse_element(parent, p.render()) == p
    # a value renders with its tokens sorted by name, so a.10 precedes a.2
    p = parse_element(R11, "b.1 | a.2 a.10^-2 b.0")
    assert p.tail.syllables == (("a", (0, 0, 1) + (0,) * 7 + (-2,)), ("b", (1, 0)))
    assert p.render() == "b.1 | a.10^-2 a.2 b.0"


def test_parse_examples():
    p = parse_element(T23, "b.0 | a.0^2 b.0^-1")
    assert p.base_factor == "b" and p.base_key == 0
    assert len(p.tail) == 2
    assert parse_element(T23, "a.1 |").base_key == 1


def test_parse_rejects_garbage():
    from rackqm.words import WordParseError

    with pytest.raises(WordParseError):
        parse_element(FR, "nope")
    with pytest.raises(WordParseError):
        parse_element(FR, "c.0 | a.0")
    with pytest.raises(ValueError):
        parse_element(T23, "a.7 | b.0")


def test_quandle_is_derived_from_the_factors():
    assert (FR.quandle, FQ.quandle, T23.quandle) == (False, True, True)
    mixed = FreeProductRack(FR.factors[:1] + FQ.factors[1:])
    assert not mixed.quandle
    assert FreeProductRack(FQ.factors) == FQ and hash(FreeProductRack(FQ.factors)) == hash(FQ)
    assert FR != FQ
    with pytest.raises(TypeError):
        FreeProductRack(FQ.factors, quandle=True)


def test_parent_constructors_validate():
    with pytest.raises(ValueError):
        free_rack(["a"])
    with pytest.raises(ValueError):
        free_quandle(["x"])
    with pytest.raises(ValueError):
        trivial_product({"a": 2})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.randoms(use_true_random=False),
)
def test_hypothesis_rack_identity_free_quandle(n1, n2, rnd):
    p = sample_element(FQ, rnd, n1, 3)
    q = sample_element(FQ, rnd, n2, 3)
    r = sample_element(FQ, rnd, 3, 3)
    assert equal(
        rack_op(rack_op(p, q), r), rack_op(rack_op(p, r), rack_op(q, r))
    )

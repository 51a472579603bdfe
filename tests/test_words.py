import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackqm.words import (
    AbelianWord,
    GroupWord,
    WordParseError,
    parse_word,
)

names = st.sampled_from(["a", "b", "c"])
exponents = st.integers(min_value=-4, max_value=4)
raw_syllables = st.lists(st.tuples(names, exponents), max_size=10).map(tuple)
words = raw_syllables.map(GroupWord)


def test_reduce_cancellation():
    w = GroupWord((("a", 1), ("b", 1), ("b", -1), ("a", -1), ("b", 1)))
    assert w.syllables == (("b", 1),)


def test_reduce_empty_is_identity():
    assert GroupWord(()).is_identity
    assert GroupWord((("a", 0),)).is_identity


def test_reduce_merges_adjacent():
    w = GroupWord((("a", 2), ("a", 3), ("b", -1)))
    assert w.syllables == (("a", 5), ("b", -1))


def test_multiply_examples():
    a = parse_word("a")
    assert (a * a.inverse()).is_identity
    assert parse_word("a^2 b^-1").inverse().render() == "b a^-2"
    assert (parse_word("a b") * parse_word("b^-1 a")).render() == "a^2"


def test_parse_examples():
    assert parse_word("a^2 b^-3 a").syllables == (("a", 2), ("b", -3), ("a", 1))
    assert parse_word("").is_identity
    assert parse_word("a^0 b").syllables == (("b", 1),)


def test_parse_errors_report_position():
    with pytest.raises(WordParseError) as exc:
        parse_word("a ^2")
    assert exc.value.position == 2
    with pytest.raises(WordParseError):
        parse_word("a z", alphabet={"a"})
    with pytest.raises(WordParseError):
        parse_word("a^x")


def test_render_grammar_is_bit_exact():
    w = parse_word("a b^-3 c^2 a")
    assert w.render() == "a b^-3 c^2 a"
    assert parse_word(w.render()) == w


@given(raw_syllables)
def test_reduce_idempotent(raw):
    once = GroupWord(raw)
    assert GroupWord(once.syllables) == once


@given(words, words, words)
def test_multiplication_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(raw_syllables)
def test_reduced_length_bounded_by_raw(raw):
    assert GroupWord(raw).length() <= sum(abs(e) for _, e in raw)


@given(words)
def test_invert_involution(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity


@given(words)
def test_render_parse_round_trip(w):
    assert parse_word(w.render()) == w


@given(words, st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_product(w, n):
    direct = GroupWord(())
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        direct = direct * step
    assert w**n == direct


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 64, -6, -32])
def test_power_never_builds_past_the_result(monkeypatch, n):
    g = parse_word("a b")
    longest = 0
    multiply = GroupWord.__mul__

    def recording(self, other):
        nonlocal longest
        product = multiply(self, other)
        longest = max(longest, product.length())
        return product

    monkeypatch.setattr(GroupWord, "__mul__", recording)
    power = g**n
    assert power.length() == 2 * abs(n)
    assert longest <= power.length()


@given(words, words)
def test_abelianization_is_multiplicative_and_commutative(u, v):
    joined = AbelianWord(AbelianWord(u.syllables).exponents + AbelianWord(v.syllables).exponents)
    assert AbelianWord((u * v).syllables) == joined
    assert AbelianWord((u * v).syllables) == AbelianWord((v * u).syllables)


def test_abelian_word_basics():
    w = AbelianWord(parse_word("b a^2 b^-3").syllables)
    assert w.exponents == (("a", 2), ("b", -2))
    assert w.render() == "a^2 b^-2"
    assert AbelianWord(parse_word("b a^-1 b^-1 a").syllables).exponents == ()
    # tokens sort by name, so a.10 comes before a.2
    assert AbelianWord((("a.2", 1), ("a.10", 1))).render() == "a.10 a.2"


def test_seeded_bulk_reduction_invariants():
    # 10^4 random raw words: reduce is idempotent, inversion cancels
    import random

    rng = random.Random(0)
    for _ in range(10_000):
        raw = tuple(
            (rng.choice("ab"), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))
        )
        w = GroupWord(raw)
        assert GroupWord(w.syllables) == w
        assert (w * w.inverse()).is_identity


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(names, st.integers(-3, 3)), max_size=6))
def test_against_sympy_free_group(raw):
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics.free_groups import free_group

    F, a, b, c = free_group("a b c")
    gens = {"a": a, "b": b, "c": c}
    ours = GroupWord(tuple(raw))
    theirs = F.identity
    for name, exp in raw:
        theirs = theirs * gens[name] ** exp
    rebuilt = F.identity
    for name, exp in ours.syllables:
        rebuilt = rebuilt * gens[name] ** exp
    assert rebuilt == theirs

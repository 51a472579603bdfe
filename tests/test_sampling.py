"""The samplers' random stream, and the exhaustive enumeration's order.

Every draw goes through ``adjoint._below``, which replays CPython 3.11's
``Random._randbelow`` on ``getrandbits``.  These tests replay ``randint``,
``randrange`` and ``choice`` on twin generators as the oracle, and pin a hash
of sampled elements so that a change of the stream, which would move every
seeded witness and the golden CLI output, fails here first.
"""

import gc
import hashlib
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from itertools import islice

import pytest

import rackqm
from rackqm.adjoint import FreeRackFactorModel, _below
from rackqm.free_product import SyllableWord, free_quandle, free_rack, trivial_product
from rackqm.sampling import (
    count_syllable_words,
    element_sampler,
    enumerate_syllable_words,
    sample_element,
    sample_syllable_word,
    word_sampler,
)

WIDTHS = [1, 2, 3, 4, 5, 7, 8, 11, 2**31 - 1, 2**31 + 1, 2**64 + 1]


def test_randbelow_draws_through_getrandbits():
    # _below copies this method; if CPython switches _randbelow to another
    # one, the stream may change and every seeded witness with it
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


@pytest.mark.parametrize("n", WIDTHS)
def test_below_replays_random_draws(n):
    for seed in range(40):
        mine, ref = random.Random(seed), random.Random(seed)
        gb = mine.getrandbits
        for _ in range(5):
            assert _below(gb, n) == ref._randbelow(n)
            assert _below(gb, n) == ref.randrange(n)
            assert -3 + _below(gb, n) == ref.randint(-3, n - 4)
            if n < 2**63:  # choice needs len(), which overflows from 2^63 on
                seq = range(10, 10 + n)
                assert seq[_below(gb, len(seq))] == ref.choice(seq)
        assert mine.getstate() == ref.getstate()


def test_below_replays_a_sign_choice():
    # choice((1, -1)) is _randbelow(2), which draws getrandbits(2), not 1 bit
    for seed in range(40):
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert (1, -1)[_below(mine.getrandbits, 2)] == ref.choice((1, -1))
        assert mine.getstate() == ref.getstate()


def _sample_digest(parent, seed, max_syllables, max_exponent, count=200):
    rng = random.Random(seed)
    text = "\n".join(
        sample_element(parent, rng, max_syllables, max_exponent).render() for _ in range(count)
    )
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of 200 rendered sample_element draws per (parent, seed, shape),
# recorded with randint/randrange/choice before the samplers drew through
# _below; the shapes are (max_syllables, max_exponent)
PARENTS = {
    "FR": free_rack(["a", "b"]),
    "FQ": free_quandle(["a", "b"]),
    "T2*T3": trivial_product({"a": 2, "b": 3}),
    "T11*T2": trivial_product({"a": 11, "b": 2}),
}
SHAPES = [(0, 1), (1, 1), (4, 2), (12, 5)]
SAMPLE_DIGEST = "fb29503efca591cbfee75e6eae307f88866b3a716628e77341722922d88289b7"


def test_sampled_elements_keep_their_stream():
    digests = [
        _sample_digest(parent, seed, ms, me)
        for parent in PARENTS.values()
        for seed in (0, 1, 7)
        for ms, me in SHAPES
    ]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == SAMPLE_DIGEST


def test_empty_ranges_raise_instead_of_hanging():
    # getrandbits(0) is always 0, so a draw below n <= 0 would loop forever;
    # run in a subprocess so that a hang fails through the timeout
    script = textwrap.dedent(
        """
        from random import Random
        from rackqm.adjoint import FreeRackFactorModel, _below
        from rackqm.free_product import free_rack, trivial_product
        from rackqm.sampling import sample_element, sample_syllable_word

        calls = [
            ("max_syllables", lambda: sample_element(free_rack(["a", "b"]), Random(0), -1, 5)),
            ("bound", lambda: FreeRackFactorModel("a").key_sampler(Random(0).getrandbits, -1)()),
            ("max_syllables", lambda: sample_syllable_word(
                trivial_product({"a": 2, "b": 3}), Random(0), -2, 3)),
            ("empty range", lambda: _below(Random(0).getrandbits, 0)),
            ("empty range", lambda: _below(Random(0).getrandbits, -3)),
        ]
        for name, call in calls:
            try:
                call()
            except ValueError as exc:
                assert name in str(exc), exc
            else:
                raise AssertionError(f"no ValueError naming {name}")
        print("ok")
        """
    )
    src = os.path.dirname(os.path.dirname(rackqm.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def _reference_value(model, rng, max_exponent):
    # the draws the models made with randint and choice, before _below
    if isinstance(model, FreeRackFactorModel):
        return (rng.randint(1, max_exponent) * rng.choice((1, -1)),)
    while True:
        value = tuple(rng.randint(-max_exponent, max_exponent) for _ in range(model.rank))
        if any(value):
            return value


def _reference_element(parent, rng, max_syllables, max_exponent):
    factor = rng.choice(parent.factor_names)
    model = parent.model(factor)
    if isinstance(model, FreeRackFactorModel):
        key = rng.randint(-max_exponent, max_exponent)
    else:  # a trivial rack: a uniform carrier element
        key = rng.randrange(model.rank)
    return factor, key, _reference_word(parent, rng, max_syllables, max_exponent, factor)


def _reference_word(parent, rng, max_syllables, max_exponent, previous=None):
    syllables = []
    for _ in range(rng.randint(0, max_syllables)):
        previous = rng.choice([n for n in parent.factor_names if n != previous])
        syllables.append((previous, _reference_value(parent.model(previous), rng, max_exponent)))
    return tuple(syllables)


THREE_FACTORS = {
    "FR3": free_rack(["a", "b", "c"]),
    "T2*T1*T3": trivial_product({"a": 2, "b": 1, "c": 3}),
}


@pytest.mark.parametrize("name", THREE_FACTORS)
@pytest.mark.parametrize("shape", SHAPES)
def test_three_factor_elements_replay_randint_and_choice(name, shape):
    # with three factors every syllable's factor is a two-way draw, which the
    # pinned two-factor digest never makes; the built sampler and the one-shot
    # draw must both replay the reference, draw by draw
    parent = THREE_FACTORS[name]
    for seed in range(10):
        built, once, ref = random.Random(seed), random.Random(seed), random.Random(seed)
        draw = element_sampler(parent, built, *shape)
        for _ in range(30):
            expected = _reference_element(parent, ref, *shape)
            for p in (draw(), sample_element(parent, once, *shape)):
                assert (p.base_factor, p.base_key, p.tail.syllables) == expected
            assert built.getstate() == once.getstate() == ref.getstate()


@pytest.mark.parametrize("name", THREE_FACTORS)
@pytest.mark.parametrize("avoid", [None, "b"])
def test_three_factor_words_replay_randint_and_choice(name, avoid):
    parent = THREE_FACTORS[name]
    for seed in range(10):
        built, once, ref = random.Random(seed), random.Random(seed), random.Random(seed)
        draw = word_sampler(parent, built, 5, 2, avoid_leading=avoid)
        for _ in range(30):
            expected = _reference_word(parent, ref, 5, 2, avoid)
            assert draw().syllables == expected
            assert sample_syllable_word(parent, once, 5, 2, avoid).syllables == expected
            assert built.getstate() == once.getstate() == ref.getstate()


def test_one_shot_draws_follow_their_parent_generator_and_shape():
    # a one-shot draw is a fresh build and one draw, so it equals a fresh
    # build's draw on the same generator whatever parent, generator, shape or
    # avoided factor the draw before it used
    parents = [PARENTS["T2*T3"], THREE_FACTORS["FR3"]]
    mine, ref = [random.Random(1), random.Random(2)], [random.Random(1), random.Random(2)]
    # (parent, generator) indices: each step changes one of the two, and the
    # shape changes alone between the last step and the first
    steps = [(1, 0), (1, 1), (0, 1), (0, 0), (1, 0)]
    for i in range(40):
        shape, avoid = SHAPES[i % len(SHAPES)], (None, "a", "b")[i % 3]
        for p, g in steps:
            parent, rng, twin = parents[p], mine[g], ref[g]
            assert sample_element(parent, rng, *shape) == element_sampler(parent, twin, *shape)()
            assert sample_syllable_word(parent, rng, *shape, avoid) == word_sampler(
                parent, twin, *shape, avoid
            )()
        assert [r.getstate() for r in mine] == [r.getstate() for r in ref]


def test_one_shot_draws_compile_anew_for_a_shape_of_other_types():
    # a one-shot draw builds its sampler, so a float shape fails as a build
    # does, even right after a draw of the equal shape (4, 2)
    parent = PARENTS["FR"]
    with pytest.raises(Exception) as built:
        element_sampler(parent, random.Random(0), 4.0, 2.0)
    rng = random.Random(0)
    sample_element(parent, rng, 4, 2)
    with pytest.raises(built.type):
        sample_element(parent, rng, 4.0, 2.0)
    sample_syllable_word(parent, rng, 4, 2)
    with pytest.raises(built.type):
        sample_syllable_word(parent, rng, 4.0, 2.0)


def test_one_shot_draws_keep_nothing_alive():
    # a one-shot draw drops the sampler it built, so once the caller drops
    # the generator and the parent, nothing holds them
    rng, parent = random.Random(0), free_rack(["a", "b"])
    sample_element(parent, rng, 4, 2)
    sample_syllable_word(parent, rng, 4, 2)
    refs = [weakref.ref(rng), weakref.ref(parent)]
    del rng, parent
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


BAD_ARGUMENTS = [  # (the argument the error must name, a call on a generator)
    ("avoid_leading", lambda rng: sample_syllable_word(PARENTS["FR"], rng, 2, 3, "zz")),
    ("avoid_leading", lambda rng: word_sampler(PARENTS["T2*T3"], rng, 2, 3, "zz")),
    ("max_exponent", lambda rng: sample_element(PARENTS["FR"], rng, 3, 0)),
    ("max_exponent", lambda rng: sample_element(PARENTS["FR"], rng, 0, 0)),
    ("max_exponent", lambda rng: element_sampler(PARENTS["T2*T3"], rng, 3, 0)),
    ("max_exponent", lambda rng: sample_syllable_word(PARENTS["FQ"], rng, 0, -1)),
    ("max_syllables", lambda rng: element_sampler(PARENTS["FQ"], rng, -1, 3)),
]


@pytest.mark.parametrize("name, call", BAD_ARGUMENTS)
def test_bad_sampler_arguments_fail_whatever_the_seed(name, call):
    # each is checked when the sampler is built, so no draw decides it
    for seed in range(50):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ValueError, match=name):
            call(rng)
        assert rng.getstate() == state


def recursive_enumeration(parent, max_syllables, max_exponent):
    """``enumerate_syllable_words`` as nested generators, as it was before its stack."""
    values = {f.factor: tuple(f.enumerate_values(max_exponent)) for f in parent.factors}

    def extend(prefix, last):
        yield SyllableWord(prefix)
        if len(prefix) == max_syllables:
            return
        for name in parent.factor_names:
            if name != last:
                for value in values[name]:
                    yield from extend(prefix + ((name, value),), name)

    return extend((), None)


ENUMERATED = {"FR3": THREE_FACTORS["FR3"], **{n: PARENTS[n] for n in ("FR", "FQ", "T2*T3")}}


@pytest.mark.parametrize("name", ENUMERATED)
def test_enumeration_keeps_the_order_of_the_recursive_generators(name):
    # the exhaustive group defect's witness is the first pair in this order
    parent = ENUMERATED[name]
    for max_exponent in (0, 1, 2):
        for max_syllables in range(4 if name != "T2*T3" or max_exponent < 2 else 3):
            words = list(enumerate_syllable_words(parent, max_syllables, max_exponent))
            assert words == list(recursive_enumeration(parent, max_syllables, max_exponent))


@pytest.mark.parametrize("name", ENUMERATED)
def test_word_counts_are_the_enumeration_s_lengths(name):
    parent = ENUMERATED[name]
    for max_exponent in (0, 1, 2):
        counts = [len(list(f.enumerate_values(max_exponent))) for f in parent.factors]
        max_syllables = 4 if name != "T2*T3" or max_exponent < 2 else 3
        words = Counter(len(w) for w in enumerate_syllable_words(parent, max_syllables, max_exponent))
        expected = [words[n] for n in range(max_syllables + 1)]
        counted = list(islice(count_syllable_words(counts), max_syllables + 1))
        # the counts stop before the first empty length: no longer word follows
        assert all(counted)
        assert counted + [0] * (max_syllables + 1 - len(counted)) == expected

"""The samplers' random stream.

Every draw goes through ``adjoint._below``, which replays CPython 3.11's
``Random._randbelow`` on ``getrandbits``.  These tests replay ``randint``,
``randrange`` and ``choice`` on twin generators as the oracle, and pin a hash
of sampled elements so that a change of the stream, which would move every
seeded witness and the golden CLI output, fails here first.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap

import pytest

import rackqm
from rackqm.adjoint import _below
from rackqm.free_product import free_quandle, free_rack, trivial_product
from rackqm.sampling import sample_element

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
            ("bound", lambda: FreeRackFactorModel("a").sample_key(Random(0), -1)),
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

"""Seeded samplers for free-product words and elements.

Every randomized estimate in the library draws through a
:class:`SamplerConfig`, so runs are reproducible by seed.  Samplers emit
values already in canonical form (alternating factors, nonzero values),
which keeps the hot paths allocation-light.

There is one sampling path: build once, then draw.  :func:`word_sampler` and
:func:`element_sampler` check their arguments, work out every bit length,
and return a zero-argument closure that only draws; an estimate builds one
per run.  Each factor model compiles its own key and value draws
(``key_sampler``/``value_sampler``), so each model's draw logic is written in
one place.  :func:`sample_syllable_word` and :func:`sample_element` build a
sampler and draw once from it; they keep nothing.

The stream is part of the contract: samplers take a plain
:class:`random.Random`, and every integer they draw is exactly the draw that
CPython 3.11's ``randint``, ``randrange`` or ``choice`` would make on that
generator.  ``adjoint._below`` is the reference draw: a uniform int below n
is ``getrandbits(n.bit_length())`` repeated until it is below n, as in
``Random._randbelow``.  The compiled closures inline that loop with the bit
length worked out in advance, so seeded witnesses and CLI output do not
depend on whether a draw came from a built sampler or from the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .free_product import FreeProductElement, FreeProductRack, SyllableWord

__all__ = [
    "SamplerConfig",
    "make_rng",
    "word_sampler",
    "element_sampler",
    "sample_syllable_word",
    "sample_element",
    "enumerate_syllable_words",
    "count_syllable_words",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler settings; the CLI sets each field from the flag of the same name."""

    seed: int = 0
    samples: int = 10_000
    max_syllables: int = 12
    max_exponent: int = 5

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError(f"--samples must be at least 0, got {self.samples}")
        if self.max_syllables < 0:
            raise ValueError(f"--max-syllables must be at least 0, got {self.max_syllables}")
        if self.max_exponent < 1:
            raise ValueError(f"--max-exponent must be at least 1, got {self.max_exponent}")


def make_rng(config: SamplerConfig) -> random.Random:
    return random.Random(config.seed)


def word_sampler(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
) -> Callable[..., SyllableWord]:
    """A closure that draws random alternating words of up to
    ``max_syllables`` syllables.

    Every argument is checked here, before any draw.  The closure takes an
    optional factor of ``parent`` and keeps the first syllable out of it;
    that argument is the one way to keep a factor out of the lead, and it is
    how :func:`element_sampler` draws a tail after its base.  A factor that
    is not ``parent``'s raises ``ValueError`` at the call, before any draw.
    """
    if max_syllables < 0:
        raise ValueError(f"max_syllables must be at least 0, got {max_syllables}")
    names = parent.factor_names
    # prev -> (count, bit length, options): the factors a syllable may take
    # after one of factor prev (after None: every factor), in order
    successors = {}
    for prev in (None, *names):
        options = tuple(n for n in names if n != prev)
        successors[prev] = (len(options), len(options).bit_length(), options)
    getrandbits = rng.getrandbits
    values = {f.factor: f.value_sampler(getrandbits, max_exponent) for f in parent.factors}
    k = (max_syllables + 1).bit_length()

    def draw(previous: str | None = None) -> SyllableWord:
        if previous not in successors:
            raise ValueError(f"unknown factor {previous!r}")
        length = getrandbits(k)
        while length > max_syllables:
            length = getrandbits(k)
        syllables = []
        for _ in range(length):
            count, bits, options = successors[previous]
            i = getrandbits(bits)
            while i >= count:
                i = getrandbits(bits)
            previous = options[i]
            syllables.append((previous, values[previous]()))
        return SyllableWord(tuple(syllables))

    return draw


def element_sampler(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
) -> Callable[[], FreeProductElement]:
    """A closure that draws random reduced elements with bounded tail; each
    is already canonical.  Every argument is checked here, before any draw."""
    tail = word_sampler(parent, rng, max_syllables, max_exponent)
    getrandbits = rng.getrandbits
    names = parent.factor_names
    count, bits = len(names), len(names).bit_length()
    keys = [f.key_sampler(getrandbits, max_exponent) for f in parent.factors]

    def draw() -> FreeProductElement:
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        factor = names[i]
        return FreeProductElement(parent, factor, keys[i](), tail(factor))

    return draw


# not called in the library; the benchmark's tracer patches it on this module
def sample_syllable_word(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
) -> SyllableWord:
    """One draw of a fresh :func:`word_sampler`; see :func:`sample_element`."""
    return word_sampler(parent, rng, max_syllables, max_exponent)()


# not called in the library; the benchmark's rack_defect check calls it
def sample_element(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
) -> FreeProductElement:
    """One draw of a fresh :func:`element_sampler`: a build and one draw, so
    it draws what a built sampler's next draw would.  A loop of draws should
    build its sampler once with :func:`element_sampler`.
    """
    return element_sampler(parent, rng, max_syllables, max_exponent)()


def enumerate_syllable_words(
    parent: FreeProductRack, max_syllables: int, max_exponent: int
) -> Iterator[SyllableWord]:
    """All alternating words with at most ``max_syllables`` syllables and factor
    values drawn from each model's bounded enumeration (the empty word included).

    The count grows geometrically; meant for small exhaustive budgets.  A
    negative budget or exponent raises at the call, not at the first word.
    """
    if max_syllables < 0:
        raise ValueError(f"--exhaustive must be at least 0, got {max_syllables}")
    if max_exponent < 0:
        raise ValueError(f"--max-exponent must be at least 0, got {max_exponent}")
    syllables = [(f.factor, v) for f in parent.factors for v in f.enumerate_values(max_exponent)]
    ends = (None, *parent.factor_names)  # the factor a word ends in; None: the empty word
    after = {last: tuple(s for s in syllables if s[0] != last) for last in ends}

    def words() -> Iterator[SyllableWord]:
        yield SyllableWord()
        stack = [((), iter(after[None]))] if max_syllables else []
        while stack:  # depth first: (a word, an iterator over what may follow it)
            prefix, rest = stack[-1]
            syllable = next(rest, None)
            if syllable is None:
                stack.pop()
                continue
            word = prefix + (syllable,)
            yield SyllableWord(word)
            if len(word) < max_syllables:
                stack.append((word, iter(after[syllable[0]])))

    return words()


def count_syllable_words(value_counts: Iterable[int]) -> Iterator[int]:
    """The number of alternating words of each length 0, 1, 2, ... whose
    factors take ``value_counts`` values each, in closed form: what
    :func:`enumerate_syllable_words` yields per length, with no word built.

    A word of length n + 1 that ends in factor f is a word of length n that
    does not end in f, then one of f's values.  So the counts stop before the
    first empty length; where two factors have values, the caller stops them.
    """
    values = list(value_counts)
    ending = values  # the words of the current length, by the factor they end in
    yield 1
    while words := sum(ending):
        yield words
        ending = [v * (words - e) for v, e in zip(values, ending)]

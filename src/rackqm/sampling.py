"""Seeded samplers for free-product words and elements.

Every randomized estimate in the library draws through a
:class:`SamplerConfig`, so runs are reproducible by seed.  Samplers emit
values already in canonical form (alternating factors, nonzero values),
which keeps the hot paths allocation-light.

The stream is part of the contract: samplers take a plain
:class:`random.Random`, and every integer they draw is exactly the draw that
CPython 3.11's ``randint``, ``randrange`` or ``choice`` would make on that
generator.  They draw through ``adjoint._below``, which calls
``getrandbits`` as ``Random._randbelow`` does but skips the argument
checks, so seeded witnesses and CLI output do not depend on which of the two
made the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .adjoint import Value, _below
from .free_product import FreeProductElement, FreeProductRack, SyllableWord

__all__ = [
    "SamplerConfig",
    "make_rng",
    "sample_syllable_word",
    "sample_element",
    "enumerate_syllable_words",
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


def sample_syllable_word(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
    avoid_leading: str | None = None,
) -> SyllableWord:
    """A random alternating word of up to ``max_syllables`` syllables;
    ``avoid_leading`` (a factor of ``parent``) keeps the first syllable out
    of that factor."""
    if max_syllables < 0:
        raise ValueError(f"max_syllables must be at least 0, got {max_syllables}")
    getrandbits = rng.getrandbits
    length = _below(getrandbits, max_syllables + 1)
    choices = parent.successors
    model = parent.model
    syllables: list[tuple[str, Value]] = []
    previous = avoid_leading
    for _ in range(length):
        options = choices[previous]
        name = options[_below(getrandbits, len(options))]
        syllables.append((name, model(name).sample_value(rng, max_exponent)))
        previous = name
    return SyllableWord(tuple(syllables))


def sample_element(
    parent: FreeProductRack,
    rng: random.Random,
    max_syllables: int,
    max_exponent: int,
) -> FreeProductElement:
    """A random reduced element with bounded tail; already canonical."""
    names = parent.factor_names
    factor = names[_below(rng.getrandbits, len(names))]
    model = parent.model(factor)
    key = model.sample_key(rng, max_exponent)
    tail = sample_syllable_word(
        parent, rng, max_syllables, max_exponent, avoid_leading=factor
    )
    return FreeProductElement(parent, factor, key, tail)


def enumerate_syllable_words(
    parent: FreeProductRack, max_syllables: int, max_exponent: int
) -> Iterator[SyllableWord]:
    """All alternating words with at most ``max_syllables`` syllables and factor
    values drawn from each model's bounded enumeration (identity included).

    The count grows geometrically; meant for small exhaustive budgets.  A
    negative budget raises at the call, not at the first word.
    """
    if max_syllables < 0:
        raise ValueError(f"--exhaustive must be at least 0, got {max_syllables}")
    values = {
        f.factor: tuple(f.enumerate_values(max_exponent)) for f in parent.factors
    }
    names = parent.factor_names

    def extend(prefix: tuple[tuple[str, Value], ...], last: str | None):
        yield SyllableWord(prefix)
        if len(prefix) == max_syllables:
            return
        for name in names:
            if name == last:
                continue
            for value in values[name]:
                yield from extend(prefix + ((name, value),), name)

    return extend((), None)

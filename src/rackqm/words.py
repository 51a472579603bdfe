"""Reduced words over named generators.

Two normal forms live here: :class:`GroupWord` (free group, syllable list)
and :class:`AbelianWord` (free abelian group, exponents keyed by name).  Both
reduce eagerly on construction, so equality is plain structural equality.
An :class:`AbelianWord` carries a factor value, otherwise a dense exponent
vector (:mod:`rackqm.adjoint`), only to and from text.

The shared text grammar: a word is a sequence of whitespace-separated tokens
``name`` or ``name^k`` with ``k`` a signed decimal integer; generator names
match ``[A-Za-z][A-Za-z0-9_.]*`` (dots allow compound names like ``a.0``).
Rendering is bit-exact: ``name`` when the exponent is 1, else ``name^k``,
single spaces between tokens, and the empty string for the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "GroupWord",
    "AbelianWord",
    "WordParseError",
    "parse_word",
]

_TOKEN = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_.]*)(?:\^(?P<exp>[+-]?\d+))?\Z")


class WordParseError(ValueError):
    """Malformed word text; ``position`` is the character offset of the bad token."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _reduce_syllables(raw: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[tuple[str, int]] = []
    for name, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] == name:
            total = stack[-1][1] + exp
            stack.pop()
            if total:
                stack.append((name, total))
        else:
            stack.append((name, exp))
    return tuple(stack)


@dataclass(frozen=True)
class GroupWord:
    """A reduced free-group word.

    ``syllables`` is a tuple of ``(generator, exponent)`` pairs with nonzero
    exponents and distinct adjacent generators; the input is reduced on
    construction, so any raw syllable sequence is accepted.

    >>> GroupWord([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("b", 1)])
    GroupWord(syllables=(('b', 1),))
    """

    syllables: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", _reduce_syllables(self.syllables))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.syllables + other.syllables)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((n, -e) for n, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else self.inverse()
        result = GroupWord()
        for bit in bin(abs(n))[2:]:  # high bit first: every product is a power g^m, m <= |n|
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def length(self) -> int:
        """Letter length: the sum of absolute exponents."""
        return sum(abs(e) for _, e in self.syllables)

    def exponent_sum(self) -> int:
        """Total exponent sum: a homomorphism, hence homogeneous with defect 0."""
        return sum(e for _, e in self.syllables)

    def generators(self) -> set[str]:
        return {n for n, _ in self.syllables}

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield single letters ``(name, +1/-1)`` in order."""
        for name, exp in self.syllables:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (name, step)

    def render(self) -> str:
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.syllables)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class AbelianWord:
    """An element of a free abelian group: sorted, zero-free exponent vector."""

    exponents: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        acc: dict[str, int] = {}
        for name, exp in self.exponents:
            acc[name] = acc.get(name, 0) + exp
        object.__setattr__(
            self,
            "exponents",
            tuple(sorted((n, e) for n, e in acc.items() if e)),
        )

    def render(self) -> str:
        return GroupWord(self.exponents).render()


def _tokens_with_positions(text: str) -> Iterator[tuple[str, int]]:
    for match in re.finditer(r"\S+", text):
        yield match.group(), match.start()


def parse_word(text: str, alphabet: set[str] | None = None) -> GroupWord:
    """Parse the word grammar into a reduced :class:`GroupWord`.

    ``alphabet``, when given, restricts the admissible generator names;
    unknown names raise :class:`WordParseError` with the token position.

    >>> parse_word("a^2 b^-3 a").syllables
    (('a', 2), ('b', -3), ('a', 1))
    >>> parse_word("a^0 b").syllables
    (('b', 1),)
    """
    syllables: list[tuple[str, int]] = []
    for token, pos in _tokens_with_positions(text):
        match = _TOKEN.match(token)
        if match is None:
            raise WordParseError(f"malformed token {token!r}", pos)
        name = match.group("name")
        if alphabet is not None and name not in alphabet:
            raise WordParseError(f"unknown generator {name!r}", pos)
        exp = int(match.group("exp")) if match.group("exp") is not None else 1
        syllables.append((name, exp))
    return GroupWord(tuple(syllables))


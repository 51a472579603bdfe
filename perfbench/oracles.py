"""Computations made apart from rackqm, used to check its outputs.

Standard library only; nothing here imports rackqm.  Words are lists of
``(generator, exponent)`` syllables, read from the text that rackqm renders,
so a check never trusts rackqm's own word types.
"""

from __future__ import annotations

from fractions import Fraction


def reduce_word(syllables):
    """Free reduction of a syllable list: merge equal neighbours, drop zeros."""
    stack: list[tuple[str, int]] = []
    for name, exp in syllables:
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
        if exp:
            stack.append((name, exp))
    return stack


def inverse_word(word):
    return [(name, -exp) for name, exp in reversed(word)]


def parse_word_text(text: str):
    """``"a.0^2 b.0^-1 a.0"`` -> ``[("a.0", 2), ("b.0", -1), ("a.0", 1)]``."""
    word = []
    for token in text.split():
        name, _, exp = token.partition("^")
        word.append((name, int(exp) if exp else 1))
    return word


def parse_free_rack_element(text: str):
    """A rendered free-rack element ``"a.0 | <word>"`` as ``(base, word)``.

    rackqm prints a free-rack base shift as the leading power of the base
    generator, so the pair is the plain ``(s, g)`` of ``S x F(S)``.
    """
    head, _, tail = text.partition("|")
    return head.strip(), reduce_word(parse_word_text(tail))


def free_rack_op(p, q):
    """``(s, g) <| (t, h) = (s, g h^-1 t h)`` in the free rack on S."""
    (s, g), (t, h) = p, q
    return s, reduce_word(g + inverse_word(h) + [(t, 1)] + h)


def free_rack_tail(element):
    """The word a syllable-sum quasimorphism is summed over: g without a
    leading power of the base generator (that power only shifts the base)."""
    base, word = element
    return word[1:] if word and word[0][0] == base else word


class OddFunction:
    """An odd bounded function on nonzero integers: ``f(k)`` for the listed
    k > 0, ``tail`` beyond the largest listed k, 0 on the gaps."""

    def __init__(self, entries: dict[int, Fraction], tail: Fraction = Fraction(0)):
        self.entries = dict(entries)
        self.tail = Fraction(tail)
        self.cutoff = max(self.entries, default=0)

    @property
    def bound(self) -> Fraction:
        return max([abs(v) for v in self.entries.values()] + [abs(self.tail)])

    def __call__(self, k: int) -> Fraction:
        sign = 1 if k > 0 else -1
        k = abs(k)
        if k in self.entries:
            return sign * self.entries[k]
        return sign * self.tail if k > self.cutoff else Fraction(0)


def syllable_sum(word, lambdas) -> Fraction:
    """``sum lambda_gen(exp)`` over the syllables; ``lambdas`` maps a
    generator to its odd function (generators not listed contribute 0)."""
    total = Fraction(0)
    for name, exp in word:
        f = lambdas.get(name)
        if f is not None:
            total += f(exp)
    return total


def sign(k: int) -> Fraction:
    return Fraction((k > 0) - (k < 0))


def alternating_pair_count(factors: int, values: int, max_total: int) -> int:
    """Pairs (g, h) of alternating words over ``factors`` free factors, each
    syllable one of ``values`` nonidentity values, with |g| + |h| <= max_total
    syllables.  A word of l >= 1 syllables has ``factors * (factors-1)^(l-1)``
    factor sequences, so there are ``factors * (factors-1)^(l-1) * values^l``."""
    counts = [1] + [
        factors * (factors - 1) ** (length - 1) * values**length
        for length in range(1, max_total + 1)
    ]
    return sum(
        counts[a] * counts[b]
        for a in range(max_total + 1)
        for b in range(max_total + 1 - a)
    )


def orbit_count(table) -> int:
    """Orbits of a finite rack (the classes of ``x ~ x <| y``), by union-find
    over its operation table."""
    parent = list(range(len(table)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, row in enumerate(table):
        for xy in row:
            rx, ry = find(x), find(xy)
            if rx != ry:
                parent[rx] = ry
    return sum(1 for x in range(len(table)) if find(x) == x)


def expected_cohomology(orbits: int, max_degree: int, quandle: bool) -> list[int]:
    """dim H^k over Q for a finite rack with c orbits: c^k in rack mode
    (Etingof-Grana) and c(c-1)^(k-1) for k >= 1 in quandle mode
    (Litherland-Nelson)."""
    c = orbits
    if quandle:
        return [1] + [c * (c - 1) ** (k - 1) for k in range(1, max_degree + 1)]
    return [c**k for k in range(max_degree + 1)]


def certificate_matrix(rank: int, n: int):
    """phi_i(w_j(n)) / n for w_j(n) = (e_{x0}^j e_x)^n and phi_i the syllable
    sum of the odd indicator of +-i on e_{x0}: one period contributes
    indicator_i(j) from e_{x0}^j and 0 from e_x (another factor), so the
    scaled matrix is the identity."""
    return tuple(
        tuple(Fraction(n * (1 if i == j else 0), n) for j in range(1, rank + 1))
        for i in range(1, rank + 1)
    )

"""Adjoint groups of racks.

The adjoint group of a rack X is generated by one symbol ``e_x`` per element
subject to ``e_x e_y = e_y e_{x <| y}``; it acts on X by ``x . e_y = x <| y``.
For an arbitrary finite rack we only *emit* the presentation (the word
problem is not decided here); computation happens in two decidable factor
models used by free products:

* :class:`TrivialRackModel` -- the adjoint group of a trivial rack of size n
  is free abelian of rank n, and the action on the carrier is trivial.
* :class:`FreeRackFactorModel` -- the rack freely generated by one element
  has carrier Z (iterates of the generator under ``<|``), adjoint group Z,
  and the generator acts by shifting.  Free racks are free products of these.

Both groups are free abelian, so a factor value is a dense exponent vector:
a tuple of ``rank`` ints, entry i the exponent of the factor's generator i.
Equal values are equal tuples and the identity is the zero vector.  A model
is only a factor name and a rank; generator names are spelled where text is
parsed or rendered (:func:`rackqm.free_product.generator_name`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .racks import FiniteRack, components, is_generating
from .words import GroupWord

__all__ = [
    "Value",
    "AdjointPresentation",
    "TrivialRackModel",
    "FreeRackFactorModel",
    "presentation",
    "express_generator",
    "verify_expression",
    "scale",
]

Value = tuple[int, ...]


@dataclass(frozen=True)
class AdjointPresentation:
    """Generators ``e_<label>`` and one relator per ordered element pair."""

    generators: tuple[str, ...]
    relators: tuple[GroupWord, ...]

    def export_text(self) -> str:
        lines = ["generators: " + " ".join(self.generators)]
        lines.extend(r.render() for r in self.relators)
        return "\n".join(lines) + "\n"


def presentation(rack: FiniteRack) -> AdjointPresentation:
    """Emit ``< e_x | e_x e_y e_{x<|y}^-1 e_y^-1 >`` with |X|^2 relators.

    Relators are stored reduced, so the diagonal relator of a one-element
    rack is the empty word and trivial-rack relators are commutators.
    """
    gens = tuple(f"e_{label}" for label in rack.elements)
    relators = []
    for x in range(rack.size):
        for y in range(rack.size):
            xy = rack.op(x, y)
            relators.append(
                GroupWord(((gens[x], 1), (gens[y], 1), (gens[xy], -1), (gens[y], -1)))
            )
    return AdjointPresentation(gens, tuple(relators))


@dataclass(frozen=True)
class TrivialRackModel:
    """Free abelian model for the adjoint group of a trivial rack.

    Generator i is ``e_{x_i}``, one per carrier element; the action is
    trivial because ``x <| y = x``.
    """

    factor: str
    rank: int

    is_quandle = True  # trivial racks satisfy x <| x = x

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    def identity(self) -> Value:
        return (0,) * self.rank

    def multiply(self, u: Value, v: Value) -> Value:
        return tuple([a + b for a, b in zip(u, v)])

    def contains_value(self, u: Value) -> bool:
        return (
            isinstance(u, tuple)
            and len(u) == self.rank
            and all(isinstance(e, int) for e in u)
        )

    def embed(self, key: int) -> Value:
        return tuple([int(i == key) for i in range(self.rank)])

    def act(self, key: int, value: Value) -> int:
        return key

    def validate_key(self, key: int) -> int:
        if not 0 <= key < self.rank:
            raise ValueError(f"factor {self.factor!r} has no element {key}")
        return key

    def key_sampler(self, getrandbits, bound: int) -> Callable[[], int]:
        """Draws a uniform carrier element, ``randrange(rank)``; ``bound`` is
        ignored, the carrier being finite."""
        n = self.rank
        k = n.bit_length()

        def draw() -> int:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        return draw

    def value_sampler(self, getrandbits, max_exponent: int) -> Callable[[], Value]:
        """Draws a uniformly random nonzero value with exponents in [-max, max]:
        ``randint(-max, max)`` per entry, until one is nonzero."""
        _check_max_exponent(max_exponent)
        width = 2 * max_exponent + 1
        k = width.bit_length()
        entries = range(self.rank)

        def draw_one() -> Value:  # the same draws as draw at rank 1, without the list
            while True:
                r = getrandbits(k)
                while r >= width:
                    r = getrandbits(k)
                if r != max_exponent:
                    return (r - max_exponent,)

        def draw() -> Value:
            while True:
                value = []
                for _ in entries:
                    r = getrandbits(k)
                    while r >= width:
                        r = getrandbits(k)
                    value.append(r - max_exponent)
                if any(value):
                    return tuple(value)

        # the free quandle's factors are all of rank 1
        return draw_one if self.rank == 1 else draw

    # not called in the library; the benchmark's tracer patches it on this class
    def sample_value(self, rng: random.Random, max_exponent: int) -> Value:
        return self.value_sampler(rng.getrandbits, max_exponent)()

    def enumerate_values(self, max_exponent: int) -> Iterator[Value]:
        """All nonzero values with exponents in [-max, max] (small ranks only)."""
        span = range(-max_exponent, max_exponent + 1)
        for combo in product(span, repeat=self.rank):
            if any(combo):
                yield combo


@dataclass(frozen=True)
class FreeRackFactorModel:
    """Infinite-cyclic model for a one-generator free rack factor.

    Carrier keys are integers (the orbit of the generator under ``<|``),
    the single adjoint generator acts by shifting, and every carrier element
    maps to that same generator.
    """

    factor: str

    rank = 1
    is_quandle = False  # x <| x shifts, so no idempotence

    def identity(self) -> Value:
        return (0,)

    def multiply(self, u: Value, v: Value) -> Value:
        return (u[0] + v[0],)

    def contains_value(self, u: Value) -> bool:
        return isinstance(u, tuple) and len(u) == 1 and isinstance(u[0], int)

    def embed(self, key: int) -> Value:
        return (1,)

    def act(self, key: int, value: Value) -> int:
        return key + value[0]

    def validate_key(self, key: int) -> int:
        return key

    def key_sampler(self, getrandbits, bound: int) -> Callable[[], int]:
        """Draws a carrier key, ``randint(-bound, bound)``."""
        if bound < 0:
            raise ValueError(f"bound must be at least 0, got {bound}")
        n = 2 * bound + 1
        k = n.bit_length()

        def draw() -> int:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r - bound

        return draw

    def value_sampler(self, getrandbits, max_exponent: int) -> Callable[[], Value]:
        """Draws ``randint(1, max)`` times ``choice((1, -1))``, in that order."""
        _check_max_exponent(max_exponent)
        k = max_exponent.bit_length()

        def draw() -> Value:
            r = getrandbits(k)
            while r >= max_exponent:
                r = getrandbits(k)
            sign = getrandbits(2)  # choice of two draws 2 bits, as _below(gb, 2)
            while sign >= 2:
                sign = getrandbits(2)
            return (-1 - r,) if sign else (1 + r,)

        return draw

    # not called in the library; the benchmark's tracer patches it on this class
    def sample_value(self, rng: random.Random, max_exponent: int) -> Value:
        return self.value_sampler(rng.getrandbits, max_exponent)()

    def enumerate_values(self, max_exponent: int) -> Iterator[Value]:
        for exp in range(-max_exponent, max_exponent + 1):
            if exp:
                yield (exp,)


def scale(value: Value, k: int) -> Value:
    """``value ** k``: every exponent times k (k = -1 gives the inverse)."""
    return tuple([k * e for e in value])


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n) from ``getrandbits``, a ``Random``'s bound method.

    It makes exactly the draws of CPython 3.11's
    ``Random._randbelow_with_getrandbits``: ``getrandbits(n.bit_length())``
    until the result is below n.  So on the same generator
    ``a + _below(gb, b - a + 1)`` is ``randint(a, b)``, ``_below(gb, n)`` is
    ``randrange(n)`` and ``seq[_below(gb, len(seq))]`` is ``choice(seq)``,
    without their argument checks.  It is the reference draw of the stream
    contract in :mod:`rackqm.sampling`: the compiled samplers
    (``key_sampler``, ``value_sampler`` and the ``sampling`` closures) inline
    this loop with the bit length worked out in advance, and must make the
    same ``getrandbits`` calls that it makes.
    """
    if n < 1:  # getrandbits(0) is always 0, and nothing is below n < 1
        raise ValueError(f"empty range: cannot draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _check_max_exponent(max_exponent: int) -> None:
    # every nonzero value needs an exponent of size at least 1
    if max_exponent < 1:
        raise ValueError(f"max_exponent must be at least 1, got {max_exponent}")


def express_generator(
    rack: FiniteRack, gens: set[int] | frozenset[int], x: int
) -> GroupWord:
    """Rewrite ``e_x`` over the adjoint generators of a generating subset.

    From a witness ``x = s0 <|^{e1} s1 <| ... <|^{en} sn`` the adjoint
    relation gives
    ``e_x = e_{sn}^{-en} ... e_{s1}^{-e1} e_{s0} e_{s1}^{e1} ... e_{sn}^{en}``.
    """
    result = is_generating(rack, gens)
    if not result.generates:
        missing = sorted(set(range(rack.size)) - result.closure)
        raise ValueError(f"subset does not generate; unreached elements {missing}")
    if x not in result.witnesses:
        raise ValueError(f"element {x} not reachable")
    start, path = result.witnesses[x]
    left = tuple((f"e_{rack.label(s)}", -sign) for s, sign in reversed(path))
    right = tuple((f"e_{rack.label(s)}", sign) for s, sign in path)
    return GroupWord(left + ((f"e_{rack.label(start)}", 1),) + right)


def verify_expression(
    rack: FiniteRack, gens: set[int] | frozenset[int], x: int, word: GroupWord
) -> bool:
    """Sound-but-incomplete equality test for ``word = e_x`` in the adjoint group.

    Two necessary conditions are checked exhaustively: the word and ``e_x``
    act identically on every rack element, and they agree in the
    abelianization of the adjoint group (exponent sums per connected
    component).  A ``False`` is conclusive; a ``True`` is not, in general,
    since the full word problem is not decided here.
    """
    label_to_index = {f"e_{label}": i for i, label in enumerate(rack.elements)}
    for name, _ in word.syllables:
        if name not in label_to_index:
            raise ValueError(f"unknown adjoint generator {name!r}")
        if label_to_index[name] not in gens:
            raise ValueError(f"generator {name!r} is not in the chosen subset")

    # action check: fold psi_s^k over the word, left to right
    for start in range(rack.size):
        z = start
        for name, exp in word.syllables:
            s = label_to_index[name]
            step = rack.op if exp > 0 else rack.inv_op
            for _ in range(abs(exp)):
                z = step(z, s)
        if z != rack.op(start, x):
            return False

    # abelianization check: e_y maps to the class of y's component
    comp = components(rack)
    sums = [0] * comp.count
    for name, exp in word.syllables:
        sums[comp.component_of[label_to_index[name]]] += exp
    expected = [0] * comp.count
    expected[comp.component_of[x]] = 1
    return sums == expected

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

Both models speak :class:`~rackqm.words.AbelianWord` values, so a factor
value always has a canonical normal form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .racks import FiniteRack, components, is_generating
from .words import AbelianWord, GroupWord

__all__ = [
    "AdjointPresentation",
    "TrivialRackModel",
    "FreeRackFactorModel",
    "presentation",
    "trivial_rack_model",
    "express_generator",
    "verify_expression",
]


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

    ``generator_names[i]`` is the symbol for ``e_{x_i}``; the action is
    trivial because ``x <| y = x``.  Tag: ``free-abelian``.
    """

    factor: str
    generator_names: tuple[str, ...]

    tag = "free-abelian"
    is_quandle = True  # trivial racks satisfy x <| x = x

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    def identity(self) -> AbelianWord:
        return AbelianWord()

    def multiply(self, u: AbelianWord, v: AbelianWord) -> AbelianWord:
        return u * v

    def contains_value(self, u: AbelianWord) -> bool:
        names = set(self.generator_names)
        return all(n in names for n in u.generators())

    def embed(self, key: int) -> AbelianWord:
        return AbelianWord(((self.generator_names[key], 1),))

    def act(self, key: int, value: AbelianWord) -> int:
        return key

    def validate_key(self, key: int) -> int:
        if not 0 <= key < self.rank:
            raise ValueError(f"factor {self.factor!r} has no element {key}")
        return key

    def sample_key(self, rng: random.Random, bound: int) -> int:
        return rng.randrange(self.rank)

    def sample_value(self, rng: random.Random, max_exponent: int) -> AbelianWord:
        """A uniformly random nonzero value with exponents in [-max, max]."""
        _check_max_exponent(max_exponent)
        while True:
            exps = tuple(
                (name, rng.randint(-max_exponent, max_exponent))
                for name in self.generator_names
            )
            value = AbelianWord(exps)
            if not value.is_identity:
                return value

    def enumerate_values(self, max_exponent: int) -> Iterator[AbelianWord]:
        """All nonzero values with exponents in [-max, max] (small ranks only)."""
        span = range(-max_exponent, max_exponent + 1)
        for combo in product(span, repeat=self.rank):
            if any(combo):
                yield AbelianWord(tuple(zip(self.generator_names, combo)))


@dataclass(frozen=True)
class FreeRackFactorModel:
    """Infinite-cyclic model for a one-generator free rack factor.

    Carrier keys are integers (the orbit of the generator under ``<|``),
    the single adjoint generator acts by shifting, and every carrier element
    maps to that same generator.  Tag: ``free-group``.
    """

    factor: str
    generator: str

    tag = "free-group"
    is_quandle = False  # x <| x shifts, so no idempotence

    @property
    def generator_names(self) -> tuple[str, ...]:
        return (self.generator,)

    @property
    def rank(self) -> int:
        return 1

    def identity(self) -> AbelianWord:
        return AbelianWord()

    def multiply(self, u: AbelianWord, v: AbelianWord) -> AbelianWord:
        return u * v

    def contains_value(self, u: AbelianWord) -> bool:
        return all(n == self.generator for n in u.generators())

    def embed(self, key: int) -> AbelianWord:
        return AbelianWord(((self.generator, 1),))

    def act(self, key: int, value: AbelianWord) -> int:
        return key + value.total_degree()

    def validate_key(self, key: int) -> int:
        return key

    def sample_key(self, rng: random.Random, bound: int) -> int:
        return rng.randint(-bound, bound)

    def sample_value(self, rng: random.Random, max_exponent: int) -> AbelianWord:
        _check_max_exponent(max_exponent)
        exp = rng.randint(1, max_exponent) * rng.choice((1, -1))
        return AbelianWord(((self.generator, exp),))

    def enumerate_values(self, max_exponent: int) -> Iterator[AbelianWord]:
        for exp in range(-max_exponent, max_exponent + 1):
            if exp:
                yield AbelianWord(((self.generator, exp),))


def _check_max_exponent(max_exponent: int) -> None:
    # every nonzero value needs an exponent of size at least 1
    if max_exponent < 1:
        raise ValueError(f"max_exponent must be at least 1, got {max_exponent}")


def trivial_rack_model(n: int, factor: str = "t") -> TrivialRackModel:
    """The free abelian model of rank n; rank 1 is the infinite cyclic group."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return TrivialRackModel(factor, tuple(f"{factor}.{i}" for i in range(n)))


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

"""Free products of racks over decidable adjoint-group models.

An element is a pair: a base element of one factor plus a tail in the free
product of the factor adjoint groups, subject to the rewriting
``(x, g w) ~ (x . g, w)`` whenever the leading syllable g lies in the base
element's factor.  Orienting that rewrite as "absorb the leading base-factor
syllable into the base via the factor action" is confluent, so every element
has a unique reduced form: the tail's first syllable comes from a different
factor than the base.  Equality is structural equality of reduced forms.

The two stock parents:

* ``free_rack(names)`` -- factors are one-generator free racks
  (:class:`~rackqm.adjoint.FreeRackFactorModel`); the action is free, so the
  absorbed exponent is remembered as a base shift and nothing collapses.
  In the rendered pair ``(s, g)`` the shift appears as the leading power of
  the factor generator, recovering the familiar carrier S x F(S) with
  ``(s, g) <| (t, h) = (s, g h^-1 t h)``.
* ``free_quandle(names)`` -- factors are one-element trivial quandles; the
  trivial action deletes absorbed syllables, which is exactly the quandle
  identification ``(s, g) ~ (s, e_s g)``.  Elements biject with conjugates
  ``g^-1 s g`` in the free group (:func:`conjugate_form`).

``trivial_product(sizes)`` gives free products of larger trivial racks with
the same machinery.

The rack operation is ``(x, g) <| (y, h) = (x, g h^-1 e_y h)``, with the sign
of ``e_y`` flipped for the inverse operation.

A syllable value is its factor model's exponent vector; generator names
appear only in :func:`parse_element` and :func:`render_value`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .adjoint import FreeRackFactorModel, TrivialRackModel, Value, scale, trivial_rack_model
from .words import AbelianWord, GroupWord, WordParseError, parse_word

__all__ = [
    "FreeProductRack",
    "SyllableWord",
    "FreeProductElement",
    "free_rack",
    "free_quandle",
    "trivial_product",
    "factorize",
    "reduce_element",
    "rack_op",
    "equal",
    "conjugate_form",
    "parse_element",
    "render_element",
    "render_value",
]

FactorModel = TrivialRackModel | FreeRackFactorModel

_FACTOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_BASE = re.compile(r"(?P<factor>[A-Za-z][A-Za-z0-9_]*)\.(?P<key>-?\d+)\Z")


@dataclass(frozen=True)
class FreeProductRack:
    """An ordered family of at least two factor models; a free product of
    quandles is a quandle.

    ``factor_names``, the name -> model lookup and ``successors`` are derived
    from ``factors`` once, and take no part in equality, hashing or repr.
    ``successors`` is read-only: ``successors[prev]`` lists, in order, the
    factors a syllable may take after a syllable of factor ``prev`` (after
    ``None``: every factor).
    """

    factors: tuple[FactorModel, ...]
    factor_names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    successors: Mapping[str | None, tuple[str, ...]] = field(
        init=False, compare=False, repr=False
    )
    _models: dict[str, FactorModel] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("a free product needs at least 2 factors")
        names = tuple(f.factor for f in self.factors)
        if len(set(names)) != len(names):
            raise ValueError("factor names must be distinct")
        for name in names:
            if not _FACTOR_NAME.match(name):
                raise ValueError(f"bad factor name {name!r}")
        successors = MappingProxyType(
            {prev: tuple(n for n in names if n != prev) for prev in (None, *names)}
        )
        object.__setattr__(self, "factor_names", names)
        object.__setattr__(self, "successors", successors)
        object.__setattr__(self, "_models", dict(zip(names, self.factors)))

    @property
    def quandle(self) -> bool:
        return all(f.is_quandle for f in self.factors)

    def model(self, name: str) -> FactorModel:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(f"unknown factor {name!r}") from None


def free_rack(names: Sequence[str]) -> FreeProductRack:
    """The free rack on the given letters, as a free product of one-generator
    free racks; the adjoint group is the free group on the letters."""
    factors = tuple(FreeRackFactorModel(n, f"{n}.0") for n in names)
    return FreeProductRack(factors)


def free_quandle(names: Sequence[str]) -> FreeProductRack:
    """The free quandle on the given letters (one-element trivial quandles)."""
    factors = tuple(trivial_rack_model(1, factor=n) for n in names)
    return FreeProductRack(factors)


def trivial_product(sizes: Mapping[str, int]) -> FreeProductRack:
    """Free product of trivial racks of the given sizes, e.g. {"a": 2, "b": 3};
    trivial racks are quandles, so the result is a quandle."""
    factors = tuple(trivial_rack_model(n, factor=name) for name, n in sizes.items())
    return FreeProductRack(factors)


@dataclass(frozen=True)
class SyllableWord:
    """A factorization in the free product of the factor groups: alternating
    ``(factor, value)`` syllables with no identity values."""

    syllables: tuple[tuple[str, Value], ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    def render(self, parent: FreeProductRack) -> str:
        return " ".join(
            render_value(parent.model(name), v) for name, v in self.syllables if any(v)
        )


def render_value(model: FactorModel, value: Value) -> str:
    """A factor value in the word grammar, tokens sorted by generator name
    (so ``a.10`` comes before ``a.2``); the empty string for the identity."""
    return AbelianWord(tuple(zip(model.generator_names, value))).render()


def factorize(parent: FreeProductRack, items: Iterable[tuple[str, Value]]) -> SyllableWord:
    """Canonical factorization: merge adjacent same-factor values in the factor
    group, drop identities, and cascade until alternating.  A value that is
    not a tuple of the factor's rank ints raises ``ValueError``."""
    stack: list[tuple[str, Value]] = []
    for name, value in items:
        model = parent.model(name)
        if not model.contains_value(value):
            raise ValueError(f"value {value!r} is not in factor {name!r}")
        if not any(value):
            continue
        while stack and stack[-1][0] == name:
            value = model.multiply(stack.pop()[1], value)
            if not any(value):
                break
        if any(value):
            stack.append((name, value))
    return SyllableWord(tuple(stack))


def invert_word(word: SyllableWord) -> SyllableWord:
    return SyllableWord(
        tuple((name, scale(value, -1)) for name, value in reversed(word.syllables))
    )


def concat_words(parent: FreeProductRack, *words: SyllableWord) -> SyllableWord:
    items: list[tuple[str, Value]] = []
    for w in words:
        items.extend(w.syllables)
    return factorize(parent, items)


@dataclass(frozen=True)
class FreeProductElement:
    """A reduced element: base ``(factor, key)`` plus an alternating tail whose
    first syllable avoids the base factor.  Build via :func:`reduce_element`."""

    parent: FreeProductRack
    base_factor: str
    base_key: int
    tail: SyllableWord

    def render(self) -> str:
        return render_element(self)

    def __str__(self) -> str:
        return self.render()


def reduce_element(
    parent: FreeProductRack,
    factor: str,
    key: int,
    items: Iterable[tuple[str, Value]] = (),
) -> FreeProductElement:
    """Reduce ``(x, g)``: while the leading syllable is in the base factor,
    absorb it into the base through the factor action."""
    model = parent.model(factor)
    key = model.validate_key(key)
    word = factorize(parent, items)
    syllables = word.syllables
    while syllables and syllables[0][0] == factor:
        key = model.act(key, syllables[0][1])
        syllables = syllables[1:]
    return FreeProductElement(parent, factor, key, SyllableWord(syllables))


def rack_op(
    p: FreeProductElement, q: FreeProductElement, sign: int = 1
) -> FreeProductElement:
    """`p <| q`` (sign=+1) or ``p <|^-1 q`` (sign=-1):
    ``(x, g) <| (y, h) = (x, g h^-1 e_y^{sign} h)``."""
    if p.parent != q.parent:
        raise ValueError("elements come from different free products")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    parent = p.parent
    e_y = parent.model(q.base_factor).embed(q.base_key)
    if sign < 0:
        e_y = scale(e_y, -1)
    items = (
        list(p.tail.syllables)
        + list(invert_word(q.tail).syllables)
        + [(q.base_factor, e_y)]
        + list(q.tail.syllables)
    )
    return reduce_element(parent, p.base_factor, p.base_key, items)


def equal(p: FreeProductElement, q: FreeProductElement) -> bool:
    """Equality of reduced forms (parents must agree)."""
    if p.parent != q.parent:
        raise ValueError("elements come from different free products")
    return (
        p.base_factor == q.base_factor
        and p.base_key == q.base_key
        and p.tail == q.tail
    )


def conjugate_form(p: FreeProductElement) -> GroupWord:
    """For free-quandle elements, the conjugate ``g^-1 s g`` as a reduced word
    over the factor letters; elements are equal iff these words are equal."""
    parent = p.parent
    if not (parent.quandle and all(f.rank == 1 for f in parent.factors)):
        raise ValueError("conjugate form is defined for free quandles only")
    tail_letters = tuple((name, value[0]) for name, value in p.tail.syllables)
    inverse = tuple((n, -e) for n, e in reversed(tail_letters))
    return GroupWord(inverse + ((p.base_factor, 1),) + tail_letters)


# -- text syntax ---------------------------------------------------------------
#
#   base_factor.element | word
#
# e.g. ``b.0 | a.0^2 b.0^-1``; the word part may be empty and uses the shared
# word grammar over dotted generator names.


def parse_element(parent: FreeProductRack, text: str) -> FreeProductElement:
    """Read ``base_factor.element | word``; each generator power in the word
    becomes one ``(factor, vector)`` syllable, and the result is reduced.

    >>> T = trivial_product({"a": 2, "b": 3})
    >>> p = parse_element(T, "b.0 | a.1^2 a.0 b.2^-1")
    >>> p.tail.syllables
    (('a', (1, 2)), ('b', (0, 0, -1)))
    >>> render_element(p)
    'b.0 | a.0 a.1^2 b.2^-1'
    """
    head, sep, tail_text = text.partition("|")
    base = head.strip()
    match = _BASE.match(base)
    if match is None:
        raise WordParseError(f"malformed base {base!r}; expected factor.element", 0)
    factor = match.group("factor")
    try:
        model = parent.model(factor)
    except KeyError:
        raise WordParseError(f"unknown factor {factor!r}", 0)
    key = int(match.group("key"))
    # letter ``name^exp`` is exp times ``embed(i)``, name the i-th generator of f
    owner: dict[str, tuple[FactorModel, int]] = {}
    for f in parent.factors:
        for i, g in enumerate(f.generator_names):
            owner[g] = (f, i)
    word = parse_word(tail_text.strip(), set(owner))
    items = []
    for name, exp in word.syllables:
        f, i = owner[name]
        items.append((f.factor, scale(f.embed(i), exp)))
    return reduce_element(parent, factor, model.validate_key(key), items)


def render_element(p: FreeProductElement) -> str:
    """Inverse of :func:`parse_element` on reduced forms.

    Free-rack base shifts are re-emitted as the leading tail power, so the
    printed pair is the plain ``(s, g)`` form with the full group word.
    """
    model = p.parent.model(p.base_factor)
    lead = ""
    if isinstance(model, FreeRackFactorModel):
        base = f"{p.base_factor}.0"
        if p.base_key:
            gen = model.generator
            lead = gen if p.base_key == 1 else f"{gen}^{p.base_key}"
    else:
        base = f"{p.base_factor}.{p.base_key}"
    tail = p.tail.render(p.parent)
    word = " ".join(part for part in (lead, tail) if part)
    return f"{base} | {word}".rstrip() if word else f"{base} |"

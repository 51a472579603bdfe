"""Quasimorphisms on free products of groups and the racks they induce.

A bounded odd function per factor group (a *lambda family*) sums over the
syllables of a factorization to a group quasimorphism; evaluating that sum
on the reduced tail of a free-product element gives a rack quasimorphism
whose defect is at most ``4 * ||lambda||_inf``.  Nonzero families are
certified unbounded through explicit witness elements with exactly linear
growth.  All values are exact rationals, so the defect bounds here are hard
assertions rather than float comparisons.

A family fixes one common ``denominator`` D, the lcm of the denominators of
every value its components take, and evaluates each factor through one
integer evaluator ``v -> D * lambda(v)``.  Sums, junction terms and defect
comparisons run on those integer numerators (scaling by D > 0 keeps every
order); a ``Fraction`` is built only where a value leaves the module.

Every defect estimate and every sampled check of the bounded 2-cochain
``phi(p) - phi(p <| q)`` is read off the junction where two reduced words
meet, one pair at a time (:func:`_junction`).  The exhaustive group defect
reads no pair at all: every junction term is a merge term of two factor
values, so it takes the largest over each factor's pairs of values and counts
the pairs in closed form.  Re-summing whole words with :func:`rolli_qm` and
:func:`rack_qm` gives the same values and is kept as the tests' oracle.

The homogeneous route is also provided: Brooks counting quasimorphisms on
free-group words, numeric homogenization with certified interval arithmetic
(conditional on a user-supplied defect bound, which this module never
invents), and evaluation of homogeneous quasimorphisms on reduced elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .adjoint import Value, scale
from .free_product import (
    FreeProductElement,
    FreeProductRack,
    SyllableWord,
    concat_words,  # not called here; the benchmark's tracer patches it on this module
    generator_name,
    rack_op,
    render_value,
)
from .racks import GroupTable
from .sampling import (
    SamplerConfig,
    count_syllable_words,
    element_sampler,
    enumerate_syllable_words,  # not called here; the benchmark's tracer patches it
    make_rng,
    sample_element,  # not called here either; the tracer patches both on this module
    sample_syllable_word,
    word_sampler,
)
from .words import AbelianWord, GroupWord, parse_word

__all__ = [
    "QmError",
    "Sigma",
    "SignComponent",
    "IotaComponent",
    "TableComponent",
    "ZeroComponent",
    "LambdaFamily",
    "sign_family",
    "iota_family",
    "zero_family",
    "rolli_qm",
    "rack_qm",
    "DefectEstimate",
    "group_defect_estimate",
    "rack_defect_estimate",
    "check_cocycle_diag",
    "Bounded2CocycleReport",
    "bounded_2cocycle_check",
    "UnboundednessWitness",
    "find_unboundedness_witness",
    "witness_growth_table",
    "brooks",
    "HomogeneousEstimate",
    "homogenize",
    "homogenize_doubling",
    "homogeneous_rack_qm",
    "tail_group_word",
    "v0_dim",
    "parse_fraction",
    "family_entries",
    "family_from_dict",
    "family_to_dict",
]


class QmError(ValueError):
    pass


def parse_fraction(text) -> Fraction:
    """Accept ``"p/q"`` strings, plain integer strings, or numbers."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise QmError(f"{text!r} is not a rational number") from None


def _scaled(value: Fraction, d: int) -> int:
    """``d * value`` as an int, for d a multiple of ``value.denominator``."""
    return value.numerator * (d // value.denominator)


@dataclass(frozen=True)
class Sigma:
    """An odd bounded function on the integers, stored on the positive side.

    ``entries`` lists ``(k, value)`` for k > 0; beyond the largest stored k
    the function takes the constant ``tail`` (use 0 for finitely supported,
    a nonzero constant for truncated-sign shapes).  Oddness is built in:
    ``sigma(-k) = -sigma(k)`` and ``sigma(0) = 0``.
    """

    entries: tuple[tuple[int, Fraction], ...] = ()
    tail: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if any(k <= 0 for k, _ in self.entries):
            raise QmError("sigma entries must use positive arguments")
        table = {k: Fraction(v) for k, v in self.entries}
        if len(table) != len(self.entries):
            raise QmError("duplicate sigma argument")
        object.__setattr__(self, "entries", tuple(sorted(table.items())))
        object.__setattr__(self, "tail", Fraction(self.tail))

    @staticmethod
    def indicator(k: int) -> "Sigma":
        """The odd indicator of +-k: sigma(+-k) = +-1, and 0 elsewhere."""
        if k <= 0:
            raise QmError("indicator argument must be positive")
        return Sigma(((k, Fraction(1)),))

    @property
    def cutoff(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def bound(self) -> Fraction:
        values = [abs(v) for _, v in self.entries] + [abs(self.tail)]
        return max(values)

    @property
    def denominator(self) -> int:
        """The lcm of the denominators of the entries and the tail."""
        return lcm(self.tail.denominator, *(v.denominator for _, v in self.entries))

    def scaled(self, d: int) -> Callable[[int], int]:
        """``n -> d * sigma(n)`` as an int, for d a multiple of ``denominator``."""
        table = {0: 0}
        for k, v in self.entries:
            table[k] = _scaled(v, d)
            table[-k] = -table[k]
        cutoff, tail = self.cutoff, _scaled(self.tail, d)
        get = table.get

        def at(n: int) -> int:
            v = get(n)
            if v is not None:
                return v
            return tail if n > cutoff else -tail if n < -cutoff else 0

        return at

    def value(self, n: int) -> Fraction:
        d = self.denominator
        return Fraction(self.scaled(d)(n), d)

    def support_points(self) -> list[int]:
        points = [k for k, v in self.entries if v]
        if self.tail:
            points.append(self.cutoff + 1)
        return points


@dataclass(frozen=True)
class SignComponent:
    """Sign of the total exponent sum; odd, bounded by 1, on any factor."""

    factor: str

    bound = Fraction(1)
    denominator = 1

    def evaluator(self, d: int) -> Callable[[Value], int]:
        def value(word: Value) -> int:
            s = sum(word)
            return d if s > 0 else -d if s else 0

        return value

    def probes(self, model) -> Iterator[Value]:
        yield model.embed(0)


@dataclass(frozen=True)
class IotaComponent:
    """Nonzero only on pure powers of one distinguished generator, the
    ``index``-th of its factor, where it evaluates an odd sigma; zero
    everywhere else in the factor."""

    factor: str
    index: int
    sigma: Sigma

    @property
    def bound(self) -> Fraction:
        return self.sigma.bound

    @property
    def denominator(self) -> int:
        return self.sigma.denominator

    def evaluator(self, d: int) -> Callable[[Value], int]:
        at, index = self.sigma.scaled(d), self.index

        def value(word: Value) -> int:
            # a pure power of another generator leaves word[index] = 0
            return at(word[index]) if word.count(0) == len(word) - 1 else 0

        return value

    def probes(self, model) -> Iterator[Value]:
        for k in self.sigma.support_points():
            yield scale(model.embed(self.index), k)


@dataclass(frozen=True)
class TableComponent:
    """Finite-table lambda; only one orientation of each ``{w, w^-1}`` pair is
    stored, so oddness holds by construction."""

    factor: str
    entries: tuple[tuple[Value, Fraction], ...]
    bound: Fraction

    def __post_init__(self) -> None:
        table: dict[Value, Fraction] = {}
        for word, value in self.entries:
            value = Fraction(value)
            if not any(word):
                raise QmError("lambda tables may not assign the identity")
            if word in table or scale(word, -1) in table:
                raise QmError(f"conflicting table entry {word!r} in factor {self.factor!r}")
            if abs(value) > self.bound:
                raise QmError("table value exceeds the declared bound")
            table[word] = value
        object.__setattr__(self, "entries", tuple(table.items()))

    @property
    def denominator(self) -> int:
        return lcm(*(v.denominator for _, v in self.entries))

    def evaluator(self, d: int) -> Callable[[Value], int]:
        table: dict[Value, int] = {}  # both orientations of every stored pair
        for word, v in self.entries:
            table[word] = _scaled(v, d)
            table[scale(word, -1)] = -table[word]
        get = table.get
        return lambda word: get(word, 0)

    def probes(self, model) -> Iterator[Value]:
        for word, value in self.entries:
            if value:
                yield word


@dataclass(frozen=True)
class ZeroComponent:
    factor: str

    bound = Fraction(0)
    denominator = 1

    def evaluator(self, d: int) -> Callable[[Value], int]:
        return lambda word: 0

    def probes(self, model) -> Iterator[Value]:
        return iter(())


Component = SignComponent | IotaComponent | TableComponent | ZeroComponent


class LambdaFamily:
    """One odd bounded component per factor of a parent free product.

    ``denominator`` is the lcm D of the denominators of every value the
    components take (sign and zero components take integers), and
    ``evaluators[factor]`` maps a value v of that factor to the int
    ``D * lambda(v)``.
    """

    def __init__(self, parent: FreeProductRack, components: Iterable[Component]):
        self.parent = parent
        by_factor: dict[str, Component] = {}
        for comp in components:
            if comp.factor in by_factor:
                raise QmError(f"two components for factor {comp.factor!r}")
            by_factor[comp.factor] = comp
        for name in parent.factor_names:
            by_factor.setdefault(name, ZeroComponent(name))
        unknown = set(by_factor) - set(parent.factor_names)
        if unknown:
            raise QmError(f"components for unknown factors {sorted(unknown)}")
        self.components = tuple(by_factor[name] for name in parent.factor_names)
        self.denominator = lcm(*(comp.denominator for comp in self.components))
        self.evaluators: dict[str, Callable[[Value], int]] = {
            comp.factor: comp.evaluator(self.denominator) for comp in self.components
        }

    @property
    def bound(self) -> Fraction:
        return max(comp.bound for comp in self.components)

    def component(self, factor: str) -> Component:
        for comp in self.components:
            if comp.factor == factor:
                return comp
        raise QmError(f"no lambda component for factor {factor!r}")

    def value(self, factor: str, word: Value) -> Fraction:
        self.component(factor)  # an unknown factor raises QmError
        return Fraction(self.evaluators[factor](word), self.denominator)

    def probes(self) -> Iterator[tuple[str, Value]]:
        for comp in self.components:
            model = self.parent.model(comp.factor)
            for word in comp.probes(model):
                yield comp.factor, word


def sign_family(parent: FreeProductRack) -> LambdaFamily:
    return LambdaFamily(parent, (SignComponent(n) for n in parent.factor_names))


def iota_family(
    parent: FreeProductRack, factor: str, element: int, sigma: Sigma
) -> LambdaFamily:
    """The one-factor family supported on powers of ``e_{x0}`` for a chosen
    base element x0 of the distinguished factor; all other factors get 0."""
    model = parent.model(factor)
    index = model.embed(model.validate_key(element)).index(1)
    return LambdaFamily(parent, (IotaComponent(factor, index, sigma),))


def zero_family(parent: FreeProductRack) -> LambdaFamily:
    return LambdaFamily(parent, ())


def rolli_qm(family: LambdaFamily, word: SyllableWord) -> Fraction:
    """Sum the family over the syllables of a factorization."""
    lam = family.evaluators
    total = sum([lam[factor](value) for factor, value in word.syllables])
    return Fraction(total, family.denominator)


def rack_qm(family: LambdaFamily, element: FreeProductElement) -> Fraction:
    """Evaluate on the reduced tail; well-defined because elements are canonical."""
    return rolli_qm(family, element.tail)


def _junction(
    family: LambdaFamily,
    head: Sequence[tuple[str, Value]],
    at: Callable[[int], tuple[str, Value]],
    length: int,
) -> tuple[int | None, int, int]:
    """``(D * (phi(g) + phi(h) - phi(gh)), i, k)`` for alternating g = ``head``
    and h = ``at(0..length-1)``, D the family's denominator.  Cancelled pairs
    add 0 because the family is odd, so the walk stops at ``head[i-1]`` against
    ``at(k)``: with the merge term ``D * (lambda(a) + lambda(b) - lambda(ab))``
    if they merge, else with None (a difference of 0) once the factors differ
    or a side is used up."""
    i, k = len(head), 0
    while i and k < length:
        name, b = at(k)
        last_name, a = head[i - 1]
        if name != last_name:
            break
        merged = family.parent.model(name).multiply(a, b)
        if any(merged):
            lam = family.evaluators[name]
            return lam(a) + lam(b) - lam(merged), i, k
        i -= 1
        k += 1
    return None, i, k


def _increment(family: LambdaFamily, p: FreeProductElement, q: FreeProductElement) -> int:
    """``D * (phi(p <| q) - phi(p))`` from the syllables at the junction
    alone, D the family's denominator.

    ``p <| q`` reduces ``g . h^-1 e_y h``, where g and h are the tails of p
    and q.  The conjugate ``h^-1 e_y h`` is already alternating, and the
    family is odd, so it sums to ``lambda(e_y)``; only the end of g and the
    start of the conjugate can cancel or merge (:func:`_junction`), and once
    g is used up one leading syllable of the conjugate may be absorbed into
    p's base.  Re-summing the whole tails of ``rack_op(p, q)`` and p with
    :func:`rack_qm` gives the same difference.
    """
    if p.parent != q.parent:
        raise ValueError("elements come from different free products")
    lam = family.evaluators
    e_y = p.parent.model(q.base_factor).embed(q.base_key)
    tail = q.tail.syllables
    n = len(tail)

    def conjugate(k: int) -> tuple[str, Value]:
        # the k-th syllable of h^-1 e_y h, which has 2n + 1 of them
        if k < n:
            name, value = tail[n - 1 - k]
            return name, scale(value, -1)
        if k == n:
            return q.base_factor, e_y
        return tail[k - n - 1]

    merge, i, k = _junction(family, p.tail.syllables, conjugate, 2 * n + 1)
    increment = lam[q.base_factor](e_y)
    if merge is not None:
        return increment - merge  # a merged syllable keeps g's factor, not the base's
    if not i and k <= 2 * n:
        name, v = conjugate(k)
        if name == p.base_factor:
            increment -= lam[name](v)
    return increment


@dataclass(frozen=True)
class DefectEstimate:
    """A certified lower bound for a defect: the max observed and who achieved it."""

    max_defect: Fraction
    witness: tuple[str, str]
    checked: int


def group_defect_estimate(
    family: LambdaFamily,
    config: SamplerConfig = SamplerConfig(),
    exhaustive_syllables: int | None = None,
    exhaustive_exponent: int | None = None,
) -> DefectEstimate:
    """Max of ``|phi(g) + phi(h) - phi(gh)|`` over an exhaustive budget plus
    random samples.

    The exhaustive part covers all pairs of alternating words whose syllable
    counts sum to at most ``exhaustive_syllables`` with factor values bounded
    by ``exhaustive_exponent``; the random part draws ``config.samples`` extra
    pairs, each read off the junction of g and h (:func:`_junction`).  The
    result is a lower bound for the true defect, reported with the first pair
    that reaches it: exhaustive pairs by |g|, then |h|, then g and h in
    enumeration order; then the sampled pairs.

    The exhaustive part enumerates no word.  Past the syllables that cancel, a
    junction is 0 or the merge term ``lambda(a) + lambda(b) - lambda(ab)`` of
    a syllable a of g and b of h, two enumerated values of one factor; the
    one-syllable pair (a, b) has that same term.  So the max is the largest
    merge term over each factor's pairs of values (with a budget of at least
    2), and its first pair has one syllable on each side: the (1, 1) block
    comes first of the pairs with a junction, and only a strictly larger term
    replaces the best.  ``checked`` counts the pairs from the words of each
    length (:func:`count_syllable_words`).
    """
    parent = family.parent
    best = 0  # times the family's denominator, as every junction term
    witness = ("", "")
    checked = config.samples

    if exhaustive_syllables is not None:
        budget = exhaustive_syllables
        exponent = config.max_exponent if exhaustive_exponent is None else exhaustive_exponent
        if budget < 0:
            raise ValueError(f"--exhaustive must be at least 0, got {budget}")
        if exponent < 0:
            raise ValueError(f"--max-exponent must be at least 0, got {exponent}")
        factors = [(f, tuple(f.enumerate_values(exponent))) for f in parent.factors]
        # up_to[~n] is up_to[budget - n]: every factor has values at an exponent
        # above 0, so the counts run to the budget, and at 0 they stop at length 0
        words = list(islice(count_syllable_words(len(v) for _, v in factors), budget + 1))
        up_to = list(accumulate(words))  # up_to[n]: the words of at most n syllables
        checked += sum(w * up_to[~n] for n, w in enumerate(words))
        found = None
        for f, values in factors if budget > 1 else ():
            lam = family.evaluators[f.factor]
            lams = [lam(b) for b in values]
            for a, la in zip(values, lams):
                terms = [abs(la + lb - lam(f.multiply(a, b))) for b, lb in zip(values, lams)]
                top = max(terms)  # the cancelling b's term is 0: lambda is odd
                if top > best:  # its first b in values order is the witness's h
                    best, found = top, (f.factor, a, values[terms.index(top)])
        if found:
            name, a, b = found
            witness = tuple(SyllableWord(((name, v),)).render(parent) for v in (a, b))

    if config.samples:
        draw = word_sampler(parent, make_rng(config), config.max_syllables, config.max_exponent)
        for _ in range(config.samples):
            g, h = draw(), draw()
            merge = _junction(family, g.syllables, h.syllables.__getitem__, len(h))[0]
            if merge is not None and abs(merge) > best:
                best, witness = abs(merge), (g.render(parent), h.render(parent))

    return DefectEstimate(Fraction(best, family.denominator), witness, checked)


def rack_defect_estimate(
    family: LambdaFamily, config: SamplerConfig = SamplerConfig()
) -> DefectEstimate:
    """Max of ``|phi(p) - phi(p <| q)|`` over seeded random element pairs."""
    draw = element_sampler(
        family.parent, make_rng(config), config.max_syllables, config.max_exponent
    )
    best = 0  # times the family's denominator
    witness = ("", "")
    for _ in range(config.samples):
        p, q = draw(), draw()
        defect = abs(_increment(family, p, q))
        if defect > best:
            best = defect
            witness = (p.render(), q.render())
    return DefectEstimate(Fraction(best, family.denominator), witness, config.samples)


def check_cocycle_diag(
    family: LambdaFamily, config: SamplerConfig = SamplerConfig()
) -> tuple[bool, int]:
    """Diagonal of the quasimorphism coboundary: sampled reduced p must give
    ``phi(p) - phi(p <| p) = 0`` exactly.  Returns (all zero, samples)."""
    draw = element_sampler(
        family.parent, make_rng(config), config.max_syllables, config.max_exponent
    )
    for i in range(config.samples):
        p = draw()
        if _increment(family, p, p):
            return False, i + 1
    return True, config.samples


@dataclass(frozen=True)
class Bounded2CocycleReport:
    max_observed: Fraction
    bound: Fraction
    pairs: int
    dd_triples: int
    dd_all_zero: bool


def bounded_2cocycle_check(
    family: LambdaFamily,
    config: SamplerConfig = SamplerConfig(),
    dd_triples: int = 1000,
) -> Bounded2CocycleReport:
    """Sample the 2-cochain ``F(p, q) = phi(p) - phi(p <| q)``.

    Asserts the sup of ``|F|`` over the pairs of :func:`rack_defect_estimate`
    stays within ``4 * ||lambda||_inf`` and that the degree-2 coboundary of F
    vanishes pointwise on triples drawn from a fresh stream of the same seed:
    ``F(p,r) - F(p,q) - F(p<|q, r) + F(p<|r, q<|r) = 0`` exactly.  F is
    ``-1/D`` times the integer increment, so the sum is taken on increments.
    """
    parent = family.parent
    bound = 4 * family.bound
    worst = rack_defect_estimate(family, config).max_defect
    if worst > bound:
        raise AssertionError(f"observed |d phi| = {worst} exceeds the bound {bound}")

    draw = element_sampler(parent, make_rng(config), config.max_syllables, config.max_exponent)
    all_zero = True
    for _ in range(dd_triples):
        p, q, r = draw(), draw(), draw()
        if (
            _increment(family, p, r)
            - _increment(family, p, q)
            - _increment(family, rack_op(p, q), r)
            + _increment(family, rack_op(p, r), rack_op(q, r))
        ):
            all_zero = False
            break
    return Bounded2CocycleReport(worst, bound, config.samples, dd_triples, all_zero)


@dataclass(frozen=True)
class UnboundednessWitness:
    """Data certifying linear growth: the element ``(x, (g0 e_x^eps)^n)`` is
    reduced for every n and evaluates to exactly ``n * increment``."""

    parent: FreeProductRack
    probe_factor: str
    probe_value: Value
    base_factor: str
    base_key: int
    epsilon: int
    increment: Fraction

    @property
    def slope(self) -> Fraction:
        return abs(self.increment)

    def period(self) -> SyllableWord:
        e_x = self.parent.model(self.base_factor).embed(self.base_key)
        if self.epsilon < 0:
            e_x = scale(e_x, -1)
        return SyllableWord(((self.probe_factor, self.probe_value), (self.base_factor, e_x)))

    def element(self, n: int) -> FreeProductElement:
        if n < 0:
            raise ValueError("witness exponent must be nonnegative")
        tail = SyllableWord(self.period().syllables * n)
        return FreeProductElement(self.parent, self.base_factor, self.base_key, tail)


def find_unboundedness_witness(family: LambdaFamily) -> UnboundednessWitness:
    """Locate a nonzero probe and build the growth witness.

    The probe scans each component's declared support; the sign of ``e_x`` is
    chosen to maximize ``|lambda(g0) + lambda(e_x^eps)|``, which is nonzero
    for at least one sign because the family is odd.
    """
    parent = family.parent
    lam = family.evaluators
    for probe_factor, probe in family.probes():
        lam0 = lam[probe_factor](probe)
        if lam0 == 0:
            continue
        base_factor = next(n for n in parent.factor_names if n != probe_factor)
        model = parent.model(base_factor)
        base_key = model.validate_key(0)
        e_x = model.embed(base_key)
        lam_x = lam[base_factor](e_x)
        plus, minus = lam0 + lam_x, lam0 - lam_x
        epsilon = 1 if abs(plus) >= abs(minus) else -1
        increment = Fraction(plus if epsilon == 1 else minus, family.denominator)
        return UnboundednessWitness(
            parent, probe_factor, probe, base_factor, base_key, epsilon, increment
        )
    raise QmError("family evaluates to 0 on every probe; cannot certify growth")


def witness_growth_table(
    family: LambdaFamily, witness: UnboundednessWitness, ns: Sequence[int]
) -> dict[int, Fraction]:
    """``n -> phi(witness(n)) = n * rolli_qm(family, period)`` for every n: the
    period's two syllables are non-identity values in different factors, the
    first outside the base's, so ``period^n`` is the reduced tail."""
    if any(n < 0 for n in ns):
        raise ValueError("witness exponent must be nonnegative")
    step = rolli_qm(family, witness.period())
    return {n: Fraction(n * step.numerator, step.denominator) for n in ns}


# -- homogeneous quasimorphisms on free-group words ----------------------------


def brooks(pattern: GroupWord) -> Callable[[GroupWord], int]:
    """The Brooks quasimorphism of ``pattern``: g maps to the signed count of
    letter-level occurrences of the pattern in reduced g, occurrences of the
    pattern minus occurrences of its inverse, overlaps counted.  The pattern
    is expanded into letters once.

    >>> from rackqm.words import parse_word
    >>> brooks(parse_word("a b"))(parse_word("a b a b"))
    2
    >>> brooks(parse_word("a"))(parse_word("a^3"))
    3
    """
    if pattern.is_identity:
        raise QmError("Brooks pattern must be nonempty")
    needle = tuple(pattern.letters())
    inverse = tuple(pattern.inverse().letters())
    k = len(needle)

    def count(g: GroupWord) -> int:
        hay = tuple(g.letters())
        windows = (hay[i : i + k] for i in range(len(hay) - k + 1))
        return sum((w == needle) - (w == inverse) for w in windows)

    return count


@dataclass(frozen=True)
class HomogeneousEstimate:
    """``phi(g^N)/N`` with the interval radius ``defect_bound / N``; the
    homogenization of phi at g lies inside whenever the bound is valid, and
    ``radius * exponent`` gives the bound back."""

    center: Fraction
    radius: Fraction
    exponent: int

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.center - self.radius, self.center + self.radius)

    def intersects(self, other: "HomogeneousEstimate") -> bool:
        lo_a, hi_a = self.interval
        lo_b, hi_b = other.interval
        return lo_a <= hi_b and lo_b <= hi_a


def homogenize(
    phi: Callable[[GroupWord], int | Fraction],
    g: GroupWord,
    defect_bound: Fraction | int | str,
    exponent: int,
) -> HomogeneousEstimate:
    """One homogenization step at ``N = exponent``: the center
    ``phi(g^N)/N`` and the radius ``defect_bound / N``.

    ``defect_bound`` must be a certified upper bound for the defect of phi,
    supplied by the caller (this library only certifies lower bounds); the
    CLI checks it against a sampled observation before the first step.
    """
    if exponent < 1:
        raise QmError("homogenization exponent must be positive")
    bound = parse_fraction(defect_bound)
    if bound < 0:
        raise QmError("defect bound must be nonnegative")
    center = Fraction(phi(g**exponent)) / exponent
    return HomogeneousEstimate(center, bound / exponent, exponent)


def homogenize_doubling(
    phi: Callable[[GroupWord], int | Fraction],
    g: GroupWord,
    defect_bound: Fraction | int | str,
    doublings: int = 10,
    tolerance: Fraction | None = None,
) -> list[HomogeneousEstimate]:
    """Estimates at N = 1, 2, 4, ..., 2**doublings, stopping early once the
    radius drops below ``tolerance``."""
    estimates = []
    for k in range(doublings + 1):
        est = homogenize(phi, g, defect_bound, 2**k)
        estimates.append(est)
        if tolerance is not None and est.radius < tolerance:
            break
    return estimates


def tail_group_word(p: FreeProductElement) -> GroupWord:
    """Flatten a reduced tail to a free-group word (rank-1 factors only),
    the form homogeneous quasimorphisms of the adjoint group consume."""
    if any(f.rank != 1 for f in p.parent.factors):
        raise QmError("tail flattening needs rank-1 factors (free rack/quandle)")
    return GroupWord(
        tuple((generator_name(factor, 0), value[0]) for factor, value in p.tail.syllables)
    )


def homogeneous_rack_qm(
    phi: Callable[[GroupWord], int | Fraction], p: FreeProductElement
) -> Fraction:
    """Evaluate a homogeneous group quasimorphism on the reduced tail.

    On powers, ``phi(x, g^n) = n * phi(g)`` whenever ``(x, g^n)`` is reduced;
    an operation step whose raw product word stays reduced moves the value by
    at most ``D(phi) + max|phi(e_y)|``.  Steps that force a base absorption
    can move it by ``|phi|`` of the absorbed power, which homogeneity does
    not bound, so no uniform defect bound is asserted here.
    """
    return Fraction(phi(tail_group_word(p)))


def v0_dim(groups: Iterable[GroupTable]) -> int:
    """Dimension of the space of odd functions on a family of finite groups:
    one degree of freedom per pair ``{g, g^-1}`` with ``g^2 != 1 != g``."""
    total = 0
    for group in groups:
        free = sum(
            1
            for i in range(group.size)
            if i != group.identity and group.mul(i, i) != group.identity
        )
        total += free // 2
    return total


# -- lambda family JSON interchange --------------------------------------------
#
# {"family": [{"factor": str, "kind": "sign"|"iota"|"table", ...}],
#  "bound": "p/q"}


def _object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise QmError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    # int() would truncate 2.5 and accept true; only ints and digit strings pass
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise QmError(f"{what} must be an integer, got {value!r}")


def family_entries(data) -> list[Mapping]:
    """The component entries of a family document, checked for shape: an
    object whose ``family`` is a list of objects, each naming a ``factor``."""
    entries = _object(data, "a lambda family").get("family", [])
    if not isinstance(entries, list):
        raise QmError(f"'family' must be a JSON list, got {type(entries).__name__}")
    for entry in entries:
        if not isinstance(_object(entry, "a family entry").get("factor"), str):
            raise QmError(f"family entry {entry!r} needs a string 'factor'")
    return entries


def family_from_dict(parent: FreeProductRack, data: Mapping) -> LambdaFamily:
    entries = family_entries(data)
    if unknown := {entry["factor"] for entry in entries} - set(parent.factor_names):
        raise QmError(f"components for unknown factors {sorted(unknown)}")  # before parent.model
    components: list[Component] = []
    for entry in entries:
        factor = entry["factor"]
        kind = entry.get("kind", "sign")
        if kind == "sign":
            components.append(SignComponent(factor))
        elif kind == "iota":
            if (sigma_data := entry.get("sigma")) is None:
                raise QmError("iota component needs 'sigma'")
            sigma = Sigma(
                tuple(
                    (_integer(k, "a sigma argument"), parse_fraction(v))
                    for k, v in _object(sigma_data, "'sigma'").items()
                ),
                tail=parse_fraction(entry.get("tail", 0)),
            )
            model = parent.model(factor)
            if "generator" in entry:
                generator = entry["generator"]
                names = [generator_name(factor, i) for i in range(model.rank)]
                if generator not in names:
                    raise QmError(f"generator {generator!r} is not in factor {factor!r}")
                index = names.index(generator)
            else:
                key = model.validate_key(_integer(entry.get("element", 0), "'element'"))
                index = model.embed(key).index(1)
            components.append(IotaComponent(factor, index, sigma))
        elif kind == "table":
            names = [generator_name(factor, i) for i in range(parent.model(factor).rank)]
            entries = []
            for word, v in _object(entry.get("values", {}), "'values'").items():
                exponents = dict(AbelianWord(parse_word(word, set(names)).syllables).exponents)
                vector = tuple(exponents.get(name, 0) for name in names)
                entries.append((vector, parse_fraction(v)))
            if "bound" not in entry:
                raise QmError(f"table component for factor {factor!r} needs a 'bound'")
            bound = parse_fraction(entry["bound"])
            components.append(TableComponent(factor, tuple(entries), bound))
        elif kind == "zero":
            components.append(ZeroComponent(factor))
        else:
            raise QmError(f"unknown lambda kind {kind!r}")
    family = LambdaFamily(parent, components)
    if "bound" in data:
        declared = parse_fraction(data["bound"])
        if declared < family.bound:
            raise QmError(
                f"declared family bound {declared} is below the component max "
                f"{family.bound}"
            )
    return family


def family_to_dict(family: LambdaFamily) -> dict:
    entries = []
    for comp in family.components:
        if isinstance(comp, SignComponent):
            entries.append({"factor": comp.factor, "kind": "sign"})
        elif isinstance(comp, IotaComponent):
            entries.append(
                {
                    "factor": comp.factor,
                    "kind": "iota",
                    "generator": generator_name(comp.factor, comp.index),
                    "sigma": {str(k): str(v) for k, v in comp.sigma.entries},
                    "tail": str(comp.sigma.tail),
                }
            )
        elif isinstance(comp, TableComponent):
            entries.append(
                {
                    "factor": comp.factor,
                    "kind": "table",
                    "values": {
                        render_value(family.parent.model(comp.factor), w): str(v)
                        for w, v in comp.entries
                    },
                    "bound": str(comp.bound),
                }
            )
        else:
            entries.append({"factor": comp.factor, "kind": "zero"})
    return {"family": entries, "bound": str(family.bound)}

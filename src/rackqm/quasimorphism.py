"""Quasimorphisms on free products of groups and the racks they induce.

A bounded odd function per factor group (a *lambda family*) sums over the
syllables of a factorization to a group quasimorphism; evaluating that sum
on the reduced tail of a free-product element gives a rack quasimorphism
whose defect is at most ``4 * ||lambda||_inf``.  Nonzero families are
certified unbounded through explicit witness elements with exactly linear
growth.  All values are exact rationals, so the defect bounds here are hard
assertions rather than float comparisons.

Every defect and cocycle check is computed at the junction where two reduced
words meet (:func:`_junction`); re-summing whole words with :func:`rolli_qm`
and :func:`rack_qm` gives the same values and is kept as the tests' oracle.

The homogeneous route is also provided: Brooks counting quasimorphisms on
free-group words, numeric homogenization with certified interval arithmetic
(conditional on a user-supplied defect bound, which this module never
invents), and evaluation of homogeneous quasimorphisms on reduced elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .free_product import (
    FreeProductElement,
    FreeProductRack,
    SyllableWord,
    concat_words,  # concat_words and rack_op are not called here; the
    rack_op,  # benchmark's tracer patches them on this module
)
from .racks import GroupTable
from .sampling import (
    SamplerConfig,
    enumerate_syllable_words,
    make_rng,
    sample_element,
    sample_syllable_word,
)
from .words import AbelianWord, GroupWord

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
    "UnboundednessWitness",
    "find_unboundedness_witness",
    "witness_growth_table",
    "brooks_qm",
    "brooks",
    "exponent_sum_hom",
    "HomogeneousEstimate",
    "homogenize",
    "homogenize_doubling",
    "homogeneous_rack_qm",
    "tail_group_word",
    "v0_dim",
    "parse_fraction",
    "format_fraction",
    "family_from_dict",
    "family_to_dict",
]


class QmError(ValueError):
    pass


def parse_fraction(text) -> Fraction:
    """Accept ``"p/q"`` strings, plain integer strings, or numbers."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return str(value)


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
    def indicator(k: int, value: Fraction | int = 1) -> "Sigma":
        """The odd indicator of +-k: sigma(k) = value, sigma(-k) = -value."""
        if k <= 0:
            raise QmError("indicator argument must be positive")
        return Sigma(((k, Fraction(value)),))

    @property
    def cutoff(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def bound(self) -> Fraction:
        values = [abs(v) for _, v in self.entries] + [abs(self.tail)]
        return max(values)

    def value(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        sign = 1 if n > 0 else -1
        n = abs(n)
        for k, v in self.entries:
            if k == n:
                return sign * v
        if n > self.cutoff:
            return sign * self.tail
        return Fraction(0)

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

    def value(self, word: AbelianWord) -> Fraction:
        d = word.total_degree()
        return Fraction(0) if d == 0 else Fraction(1 if d > 0 else -1)

    def probes(self, model) -> Iterator[AbelianWord]:
        yield model.embed(0)


@dataclass(frozen=True)
class IotaComponent:
    """Nonzero only on pure powers of one distinguished generator, where it
    evaluates an odd sigma; zero everywhere else in the factor."""

    factor: str
    generator: str
    sigma: Sigma

    @property
    def bound(self) -> Fraction:
        return self.sigma.bound

    def value(self, word: AbelianWord) -> Fraction:
        power = word.single_power()
        if power is None or power[0] != self.generator:
            return Fraction(0)
        return self.sigma.value(power[1])

    def probes(self, model) -> Iterator[AbelianWord]:
        for k in self.sigma.support_points():
            yield AbelianWord(((self.generator, k),))


@dataclass(frozen=True)
class TableComponent:
    """Finite-table lambda; only one orientation of each ``{w, w^-1}`` pair is
    stored, so oddness holds by construction."""

    factor: str
    entries: tuple[tuple[AbelianWord, Fraction], ...]
    bound: Fraction

    def __post_init__(self) -> None:
        table: dict[AbelianWord, Fraction] = {}
        for word, value in self.entries:
            value = Fraction(value)
            if word.is_identity:
                raise QmError("lambda tables may not assign the identity")
            if word in table or word.inverse() in table:
                raise QmError(f"conflicting table entry for {word.render()!r}")
            if abs(value) > self.bound:
                raise QmError("table value exceeds the declared bound")
            table[word] = value
        object.__setattr__(self, "entries", tuple(table.items()))
        object.__setattr__(self, "_table", table)

    def value(self, word: AbelianWord) -> Fraction:
        table = self._table  # type: ignore[attr-defined]
        if word in table:
            return table[word]
        inv = word.inverse()
        if inv in table:
            return -table[inv]
        return Fraction(0)

    def probes(self, model) -> Iterator[AbelianWord]:
        for word, value in self.entries:
            if value:
                yield word


@dataclass(frozen=True)
class ZeroComponent:
    factor: str

    bound = Fraction(0)

    def value(self, word: AbelianWord) -> Fraction:
        return Fraction(0)

    def probes(self, model) -> Iterator[AbelianWord]:
        return iter(())


Component = SignComponent | IotaComponent | TableComponent | ZeroComponent


class LambdaFamily:
    """One odd bounded component per factor of a parent free product."""

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
        self._by_factor = by_factor

    @property
    def bound(self) -> Fraction:
        return max(comp.bound for comp in self.components)

    def component(self, factor: str) -> Component:
        try:
            return self._by_factor[factor]
        except KeyError:
            raise QmError(f"no lambda component for factor {factor!r}")

    def value(self, factor: str, word: AbelianWord) -> Fraction:
        return self.component(factor).value(word)

    def probes(self) -> Iterator[tuple[str, AbelianWord]]:
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
    generator = model.embed(model.validate_key(element)).single_power()[0]
    return LambdaFamily(parent, (IotaComponent(factor, generator, sigma),))


def zero_family(parent: FreeProductRack) -> LambdaFamily:
    return LambdaFamily(parent, ())


def rolli_qm(family: LambdaFamily, word: SyllableWord) -> Fraction:
    """Sum the family over the syllables of a factorization."""
    total = Fraction(0)
    for factor, value in word.syllables:
        total += family.value(factor, value)
    return total


def rack_qm(family: LambdaFamily, element: FreeProductElement) -> Fraction:
    """Evaluate on the reduced tail; well-defined because elements are canonical."""
    return rolli_qm(family, element.tail)


def _junction(
    family: LambdaFamily,
    head: Sequence[tuple[str, AbelianWord]],
    at: Callable[[int], tuple[str, AbelianWord]],
    length: int,
) -> tuple[Fraction | None, int, int]:
    """``(phi(g) + phi(h) - phi(gh), i, k)`` for alternating g = ``head`` and
    h = ``at(0..length-1)``.  Cancelled pairs add 0 because the family is odd,
    so the walk stops at ``head[i-1]`` against ``at(k)``: with the merge term
    ``lambda(a) + lambda(b) - lambda(ab)`` if they merge, else with None (a
    difference of 0) once the factors differ or a side is used up."""
    models = family.parent.model
    value = family.value
    i, k = len(head), 0
    while i and k < length:
        name, b = at(k)
        last_name, a = head[i - 1]
        if name != last_name:
            break
        merged = models(name).multiply(a, b)
        if not merged.is_identity:
            return value(name, a) + value(name, b) - value(name, merged), i, k
        i -= 1
        k += 1
    return None, i, k


def rack_qm_increment(
    family: LambdaFamily,
    p: FreeProductElement,
    q: FreeProductElement,
) -> Fraction:
    """``phi(p <| q) - phi(p)`` from the syllables at the junction alone.

    ``p <| q`` reduces ``g . h^-1 e_y h``, where g and h are the tails of p
    and q.  The conjugate ``h^-1 e_y h`` is already alternating, and the
    family is odd, so it sums to ``lambda(e_y)``; only the end of g and the
    start of the conjugate can cancel or merge (:func:`_junction`), and once
    g is used up one leading syllable of the conjugate may be absorbed into
    p's base.  :func:`rack_op` and :func:`rack_qm` on whole tails give the
    same value.
    """
    if p.parent != q.parent:
        raise ValueError("elements come from different free products")
    e_y = p.parent.model(q.base_factor).embed(q.base_key)
    tail = q.tail.syllables
    n = len(tail)

    def conjugate(k: int) -> tuple[str, AbelianWord]:
        # the k-th syllable of h^-1 e_y h, which has 2n + 1 of them
        if k < n:
            name, value = tail[n - 1 - k]
            return name, value.inverse()
        if k == n:
            return q.base_factor, e_y
        return tail[k - n - 1]

    merge, i, k = _junction(family, p.tail.syllables, conjugate, 2 * n + 1)
    increment = family.value(q.base_factor, e_y)
    if merge is not None:
        return increment - merge  # a merged syllable keeps g's factor, not the base's
    if not i and k <= 2 * n:
        name, v = conjugate(k)
        if name == p.base_factor:
            increment -= family.value(name, v)
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

    The exhaustive part enumerates all pairs of alternating words whose
    syllable counts sum to at most ``exhaustive_syllables`` with factor
    values bounded by ``exhaustive_exponent``; the random part draws
    ``config.samples`` extra pairs.  Each difference is read off the junction
    of g and h (:func:`_junction`).  The result is a lower bound for the true
    defect, reported with an achieving pair.
    """
    parent = family.parent
    best = Fraction(0)
    witness = ("", "")
    checked = 0

    def consider(g: SyllableWord, h: SyllableWord) -> None:
        nonlocal best, witness, checked
        checked += 1
        merge = _junction(family, g.syllables, h.syllables.__getitem__, len(h))[0]
        if merge is not None and abs(merge) > best:
            best = abs(merge)
            witness = (g.render(), h.render())

    if exhaustive_syllables is not None:
        exponent = config.max_exponent if exhaustive_exponent is None else exhaustive_exponent
        by_length: dict[int, list[SyllableWord]] = {}
        for word in enumerate_syllable_words(parent, exhaustive_syllables, exponent):
            by_length.setdefault(len(word), []).append(word)
        for lg, gs in sorted(by_length.items()):
            for lh, hs in sorted(by_length.items()):
                if lg + lh > exhaustive_syllables:
                    break
                for g in gs:
                    for h in hs:
                        consider(g, h)

    rng = make_rng(config)
    for _ in range(config.samples):
        g = sample_syllable_word(parent, rng, config.max_syllables, config.max_exponent)
        h = sample_syllable_word(parent, rng, config.max_syllables, config.max_exponent)
        consider(g, h)

    return DefectEstimate(best, witness, checked)


def rack_defect_estimate(
    family: LambdaFamily, config: SamplerConfig = SamplerConfig()
) -> DefectEstimate:
    """Max of ``|phi(p) - phi(p <| q)|`` over seeded random element pairs."""
    parent = family.parent
    rng = make_rng(config)
    best = Fraction(0)
    witness = ("", "")
    for _ in range(config.samples):
        p = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        q = sample_element(parent, rng, config.max_syllables, config.max_exponent)
        defect = abs(rack_qm_increment(family, p, q))
        if defect > best:
            best = defect
            witness = (p.render(), q.render())
    return DefectEstimate(best, witness, config.samples)


@dataclass(frozen=True)
class UnboundednessWitness:
    """Data certifying linear growth: the element ``(x, (g0 e_x^eps)^n)`` is
    reduced for every n and evaluates to exactly ``n * increment``."""

    parent: FreeProductRack
    probe_factor: str
    probe_value: AbelianWord
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
            e_x = e_x.inverse()
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
    for probe_factor, probe in family.probes():
        lam0 = family.value(probe_factor, probe)
        if lam0 == 0:
            continue
        base_factor = next(n for n in parent.factor_names if n != probe_factor)
        model = parent.model(base_factor)
        base_key = model.validate_key(0)
        e_x = model.embed(base_key)
        lam_x = family.value(base_factor, e_x)
        plus, minus = lam0 + lam_x, lam0 - lam_x
        epsilon = 1 if abs(plus) >= abs(minus) else -1
        increment = plus if epsilon == 1 else minus
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
    return {n: n * step for n in ns}


# -- homogeneous quasimorphisms on free-group words ----------------------------


def brooks_qm(pattern: GroupWord, g: GroupWord) -> int:
    """Signed count of letter-level occurrences of ``pattern`` in reduced g:
    occurrences of the pattern minus occurrences of its inverse, overlaps
    counted.

    >>> from rackqm.words import parse_word
    >>> brooks_qm(parse_word("a b"), parse_word("a b a b"))
    2
    >>> brooks_qm(parse_word("a"), parse_word("a^3"))
    3
    """
    return brooks(pattern)(g)


def brooks(pattern: GroupWord) -> Callable[[GroupWord], int]:
    """:func:`brooks_qm` for one pattern, expanded into letters once."""
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


def exponent_sum_hom(g: GroupWord) -> int:
    """Total exponent sum: a homomorphism, hence homogeneous with defect 0."""
    return g.exponent_sum()


@dataclass(frozen=True)
class HomogeneousEstimate:
    """``phi(g^N)/N`` with the interval radius ``defect_bound / N``; the
    homogenization of phi at g lies inside whenever the bound is valid."""

    center: Fraction
    radius: Fraction
    exponent: int
    defect_bound: Fraction

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
    observed_defect: Fraction | None = None,
) -> HomogeneousEstimate:
    """One homogenization step at ``N = exponent``.

    ``defect_bound`` must be a certified upper bound for the defect of phi,
    supplied by the caller (this library only certifies lower bounds); when
    an observed lower bound is passed it is checked for consistency.
    """
    if exponent < 1:
        raise QmError("homogenization exponent must be positive")
    bound = parse_fraction(defect_bound)
    if bound < 0:
        raise QmError("defect bound must be nonnegative")
    if observed_defect is not None and bound < observed_defect:
        raise QmError(
            f"declared defect bound {bound} is below the observed defect "
            f"{observed_defect}"
        )
    center = Fraction(phi(g**exponent)) / exponent
    return HomogeneousEstimate(center, bound / exponent, exponent, bound)


def homogenize_doubling(
    phi: Callable[[GroupWord], int | Fraction],
    g: GroupWord,
    defect_bound: Fraction | int | str,
    doublings: int = 10,
    tolerance: Fraction | None = None,
    observed_defect: Fraction | None = None,
) -> list[HomogeneousEstimate]:
    """Estimates at N = 1, 2, 4, ..., 2**doublings, stopping early once the
    radius drops below ``tolerance``."""
    estimates = []
    for k in range(doublings + 1):
        est = homogenize(phi, g, defect_bound, 2**k, observed_defect=observed_defect)
        estimates.append(est)
        if tolerance is not None and est.radius < tolerance:
            break
    return estimates


def tail_group_word(p: FreeProductElement) -> GroupWord:
    """Flatten a reduced tail to a free-group word (rank-1 factors only),
    the form homogeneous quasimorphisms of the adjoint group consume."""
    if any(f.rank != 1 for f in p.parent.factors):
        raise QmError("tail flattening needs rank-1 factors (free rack/quandle)")
    letters = []
    for factor, value in p.tail.syllables:
        name, exp = value.single_power()
        letters.append((name, exp))
    return GroupWord(tuple(letters))


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


def family_from_dict(parent: FreeProductRack, data: Mapping) -> LambdaFamily:
    components: list[Component] = []
    for entry in data.get("family", ()):
        factor = entry["factor"]
        kind = entry.get("kind", "sign")
        if kind == "sign":
            components.append(SignComponent(factor))
        elif kind == "iota":
            sigma_data = entry.get("sigma")
            if "indicator" in entry:
                sigma = Sigma.indicator(
                    int(entry["indicator"]), parse_fraction(entry.get("value", 1))
                )
            elif sigma_data is not None:
                sigma = Sigma(
                    tuple((int(k), parse_fraction(v)) for k, v in sigma_data.items()),
                    tail=parse_fraction(entry.get("tail", 0)),
                )
            else:
                raise QmError("iota component needs 'indicator' or 'sigma'")
            if "generator" in entry:
                generator = entry["generator"]
                if generator not in parent.model(factor).generator_names:
                    raise QmError(f"generator {generator!r} is not in factor {factor!r}")
            else:
                model = parent.model(factor)
                key = model.validate_key(int(entry.get("element", 0)))
                generator = model.embed(key).single_power()[0]
            components.append(IotaComponent(factor, generator, sigma))
        elif kind == "table":
            from .words import parse_abelian

            alphabet = set(parent.model(factor).generator_names)
            entries = tuple(
                (parse_abelian(word, alphabet), parse_fraction(v))
                for word, v in entry.get("values", {}).items()
            )
            bound = parse_fraction(entry["bound"])
            components.append(TableComponent(factor, entries, bound))
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
                    "generator": comp.generator,
                    "sigma": {str(k): format_fraction(v) for k, v in comp.sigma.entries},
                    "tail": format_fraction(comp.sigma.tail),
                }
            )
        elif isinstance(comp, TableComponent):
            entries.append(
                {
                    "factor": comp.factor,
                    "kind": "table",
                    "values": {w.render(): format_fraction(v) for w, v in comp.entries},
                    "bound": format_fraction(comp.bound),
                }
            )
        else:
            entries.append({"factor": comp.factor, "kind": "zero"})
    return {"family": entries, "bound": format_fraction(family.bound)}

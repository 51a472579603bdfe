"""Command-line surface.

Exit codes: 0 success/verified, 1 violated invariant, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable

from . import cochain as cochain_mod
from . import free_product as fp
from . import quasimorphism as qm
from .adjoint import _below, presentation
from .certify import boundedness_refutation, independence_certificate
from .racks import RackValidationError, components, load_group, load_rack
from .sampling import SamplerConfig, count_syllable_words
from .words import GroupWord, parse_word

OK, INVARIANT_VIOLATED, INPUT_ERROR = 0, 1, 2

HOMOGENIZE_LETTERS = 2**20  # letter budget of qm homogenize's pattern and of its longest power
EXHAUSTIVE_WORDS = 10**6  # budget of factor values --exhaustive enumerates plus words it counts
EXHAUSTIVE_TERMS = 4 * 10**6  # budget of the merge terms qm defect --exhaustive 2 and up evaluates
CERTIFICATE_ENTRIES = 10**6  # budget of the rank^2 matrix entries certify independence prints
FACTOR_RANKS = 10**5  # budget of the summed factor ranks that --sizes asks for
SAMPLED_EXPONENTS = 10**7  # budget of the exponents qm defect's sampled pairs may draw
HOMOGENIZE_SAMPLES = 10**5  # budget of the pairs qm homogenize samples to check its bound
RANK_ROWS = 2 * 10**4  # budget of the rows of the largest coboundary rack cohomology ranks
DUMP_ENTRIES = 5 * 10**7  # budget of the rows times columns rack cohomology --dump-matrix prints


def _parse_sizes(text: str) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if name.strip() in sizes or not value.strip().removeprefix("-").isdecimal():
            raise ValueError(f"bad --sizes entry {part!r}; expected name=count, each name once")
        sizes[name.strip()] = int(value)
    return sizes


def build_parent(args, names: Iterable[str]) -> fp.FreeProductRack:
    """Parent from flags, falling back to the given factor names, sorted."""
    if args.factors and args.sizes:
        raise ValueError("--factors and --sizes both name the factors; pass one")
    if args.sizes:
        sizes = _parse_sizes(args.sizes)
        if (total := sum(sizes.values())) > FACTOR_RANKS:
            raise ValueError(f"--sizes ranks sum to {total}, over the budget of {FACTOR_RANKS}")
        return fp.trivial_product(sizes)
    names = [n.strip() for n in args.factors.split(",")] if args.factors else sorted(set(names))
    if len(names) < 2:
        raise ValueError(
            "need at least two factors; pass --factors or mention them in the input"
        )
    return fp.free_quandle(names) if args.quandle else fp.free_rack(names)


def _add_parent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--factors", help="comma-separated factor names (free rack)")
    parser.add_argument(
        "--quandle", action="store_true", help="free quandle instead of free rack"
    )
    parser.add_argument(
        "--sizes", help="trivial-rack free product, e.g. a=2,b=3"
    )


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(SamplerConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)


def _sampler(args) -> SamplerConfig:
    fields = dataclasses.fields(SamplerConfig)
    return SamplerConfig(**{f.name: getattr(args, f.name) for f in fields})


def _load_family(args, path: str, *texts: str):
    with open(path) as fh:
        data = json.load(fh)
    names = {entry["factor"] for entry in qm.family_entries(data)}
    parent = build_parent(args, names | fp.mentioned_factors(*texts))
    return parent, qm.family_from_dict(parent, data)


# -- rack ----------------------------------------------------------------------


def cmd_rack_check(args) -> int:
    try:
        rack = load_rack(args.file)
    except RackValidationError as exc:
        print(f"invalid: {exc}")
        return INVARIANT_VIOLATED
    kind = "quandle" if rack.quandle else "rack"
    if args.json:
        print(json.dumps({"name": rack.name, "size": rack.size, "kind": kind}))
    else:
        print(f"{rack.name}: valid {kind} on {rack.size} elements")
    return OK


def cmd_rack_components(args) -> int:
    rack = load_rack(args.file)
    part = components(rack)
    if args.json:
        print(
            json.dumps(
                {"count": part.count, "component_of": list(part.component_of)}
            )
        )
    else:
        print(f"{part.count} component(s)")
        for c in range(part.count):
            members = [rack.label(i) for i, comp in enumerate(part.component_of) if comp == c]
            print(f"  component {c}: {' '.join(members)}")
    return OK


def cmd_rack_cohomology(args) -> int:
    degree = args.degree
    if degree < 0:
        raise ValueError(f"--degree must be at least 0, got {degree}")
    rack = load_rack(args.file)
    if args.quandle and not rack.quandle:
        raise ValueError("--quandle requested but the input is not a quandle")
    cochain_mod._check_degree(rack.size, degree)
    if degree + 1 >= cochain_mod.CAP.bit_length():  # |X| = 1, whose powers never grow
        raise ValueError(
            f"--degree {degree} prints {degree + 1} dims; a degree d with d + 1 >= "
            f"{cochain_mod.CAP.bit_length()} (the bit length of the cap {cochain_mod.CAP}) "
            "is refused on every rack"
        )
    rows = cochain_mod._coboundary_rows(rack.size, degree, args.quandle)
    # d^k needs a rank only where dim C^k exceeds the orbit lemma's m_k; for
    # k >= 1 that holds at every k if the rack has more elements than orbits
    # and at none if not, so the largest one ranked is d^degree
    if degree and components(rack).count < rack.size and rows > RANK_ROWS:
        raise ValueError(
            f"--degree {degree} ranks d^{degree} of {rows} rows, more than the budget of "
            f"{RANK_ROWS}"
        )
    if args.dump_matrix:
        cols = cochain_mod._coboundary_rows(rack.size, degree - 1, args.quandle)
        if rows * cols > DUMP_ENTRIES:
            raise ValueError(
                f"--dump-matrix prints d^{degree} as {rows} x {cols} entries, more than "
                f"the budget of {DUMP_ENTRIES}"
            )
    dims = cochain_mod.cohomology_dims(rack, degree, quandle_mode=args.quandle)
    if args.dump_matrix:
        build = cochain_mod.quandle_coboundary if args.quandle else cochain_mod.coboundary
        d = build(rack, degree)
        cols = len(d.col_idx)
        print(f"# delta {degree} {len(d.entries)} {cols if d.entries else 0}")
        for row in d.entries:
            print(" ".join(str(row.get(j, 0)) for j in range(cols)))
    if args.json:
        print(json.dumps({"dims": dims, "quandle_mode": args.quandle}))
    else:
        for k, d in enumerate(dims):
            print(f"dim H^{k} = {d}")
    return OK


def cmd_rack_presentation(args) -> int:
    rack = load_rack(args.file)
    text = presentation(rack).export_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


# -- word ----------------------------------------------------------------------


def cmd_word_reduce(args) -> int:
    word = parse_word(args.word)
    print(word.render())
    return OK


# -- fp ------------------------------------------------------------------------


def cmd_fp_op(args) -> int:
    parent = build_parent(args, fp.mentioned_factors(args.p, args.q))
    p = fp.parse_element(parent, args.p)
    q = fp.parse_element(parent, args.q)
    result = fp.rack_op(p, q, sign=-1 if args.inverse else 1)
    print(result.render())
    return OK


def cmd_fp_equal(args) -> int:
    parent = build_parent(args, fp.mentioned_factors(args.p, args.q))
    p = fp.parse_element(parent, args.p)
    q = fp.parse_element(parent, args.q)
    same = p == q
    print("true" if same else "false")
    return OK if same else INVARIANT_VIOLATED


# -- qm ------------------------------------------------------------------------


def cmd_qm_eval(args) -> int:
    parent, family = _load_family(args, args.family, args.element)
    p = fp.parse_element(parent, args.element)
    value = qm.rack_qm(family, p)
    print(value)
    return OK


def _value_counts(parent: fp.FreeProductRack, exponent: int) -> list[int]:
    """The values of each factor that the exhaustive search enumerates, in
    closed form; a count past ``EXHAUSTIVE_WORDS`` stops growing there."""
    counts = []  # a rank-r factor has every exponent vector in [-E, E]^r but 0
    for f in parent.factors:
        count = 1
        for _ in range(f.rank):
            count *= 2 * exponent + 1
            if count > EXHAUSTIVE_WORDS:
                break
        counts.append(count - 1)
    return counts


def _exhaustive_size(parent: fp.FreeProductRack, syllables: int, exponent: int) -> int:
    """The factor values that the exhaustive search enumerates plus the
    alternating words of at most ``syllables`` syllables that it counts, in
    closed form and only until the total passes ``EXHAUSTIVE_WORDS``."""
    values = _value_counts(parent, exponent)
    total = sum(values)
    for words in islice(count_syllable_words(values), syllables + 1):
        total += words
        if total > EXHAUSTIVE_WORDS:
            break
    return total


def _merge_terms(parent: fp.FreeProductRack, exponent: int) -> int:
    """The merge terms ``lambda(a) + lambda(b) - lambda(ab)`` that the
    exhaustive group defect evaluates: every pair of values of each factor."""
    return sum(v * v for v in _value_counts(parent, exponent))


def _sampled_exponents(parent: fp.FreeProductRack, config: SamplerConfig) -> int:
    """The most exponents the sampled pairs draw: two elements per pair, each
    of at most ``max_syllables`` syllables, each a value of at most the
    largest factor rank."""
    return 2 * config.samples * config.max_syllables * max(f.rank for f in parent.factors)


def cmd_qm_defect(args) -> int:
    if args.exhaustive is not None and not args.group:
        raise ValueError("--exhaustive bounds the group defect's syllables; pass --group with it")
    parent, family = _load_family(args, args.family)
    config = _sampler(args)
    if (draws := _sampled_exponents(parent, config)) > SAMPLED_EXPONENTS:
        raise ValueError(
            f"--samples {config.samples} with --max-syllables {config.max_syllables} draws up "
            f"to {draws} exponents on these factors, more than the budget of "
            f"{SAMPLED_EXPONENTS}; lower --samples, --max-syllables or the --sizes ranks"
        )
    if args.group:
        if args.exhaustive is not None:
            run = f"--exhaustive {args.exhaustive} at --max-exponent {args.max_exponent}"
            if _exhaustive_size(parent, args.exhaustive, args.max_exponent) > EXHAUSTIVE_WORDS:
                raise ValueError(
                    f"{run} takes more than the budget of {EXHAUSTIVE_WORDS} factor values "
                    "enumerated plus words counted"
                )
            # a budget below 2 syllables has no pair of syllables to merge
            terms = _merge_terms(parent, args.max_exponent) if args.exhaustive >= 2 else 0
            if terms > EXHAUSTIVE_TERMS:
                raise ValueError(
                    f"{run} evaluates {terms} merge terms, more than the budget of "
                    f"{EXHAUSTIVE_TERMS}"
                )
        estimate = qm.group_defect_estimate(
            family,
            config,
            exhaustive_syllables=args.exhaustive,
            exhaustive_exponent=args.max_exponent,
        )
        bound = 3 * family.bound
        mode = "group"
    else:
        estimate = qm.rack_defect_estimate(family, config)
        bound = 4 * family.bound
        mode = "rack"
    if args.json:
        print(
            json.dumps(
                {
                    "mode": mode,
                    "observed": str(estimate.max_defect),
                    "bound": str(bound),
                    "checked": estimate.checked,
                    "witness": list(estimate.witness),
                }
            )
        )
    else:
        print(f"{mode} defect: observed {estimate.max_defect} <= bound {bound} "
              f"({estimate.checked} pairs)")
        print(f"witness: {estimate.witness[0]!r} , {estimate.witness[1]!r}")
    return OK if estimate.max_defect <= bound else INVARIANT_VIOLATED


def cmd_qm_witness(args) -> int:
    _, family = _load_family(args, args.family)
    try:
        report = boundedness_refutation(family)
    except qm.QmError as exc:
        print(f"cannot certify: {exc}")
        return INVARIANT_VIOLATED
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"witness period: {report.witness_text}")
        print(f"slope: {report.slope}")
        print(f"components ({report.component_count_label}): {report.component_count}")
        for n, value in report.table.items():
            print(f"  n = {n}: {value}")
    return OK


def cmd_qm_homogenize(args) -> int:
    pattern = parse_word(args.word)
    target = parse_word(args.target)
    try:
        defect_bound = qm.parse_fraction(args.defect_bound)
    except qm.QmError as exc:
        raise ValueError(f"--defect-bound: {exc}") from None
    try:
        tolerance = qm.parse_fraction(args.tolerance) if args.tolerance else None
    except qm.QmError as exc:
        raise ValueError(f"--tolerance: {exc}") from None
    for flag, value in (
        ("--doublings", args.doublings),
        ("--samples", args.samples),
        ("--defect-bound", defect_bound),
        ("--tolerance", tolerance or 0),
    ):
        if value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    if args.samples > HOMOGENIZE_SAMPLES:
        raise ValueError(
            f"--samples {args.samples} exceeds the budget of {HOMOGENIZE_SAMPLES} pairs"
        )
    if pattern.length() > HOMOGENIZE_LETTERS:
        raise ValueError(
            f"--word of {pattern.length()} letters exceeds the budget of "
            f"{HOMOGENIZE_LETTERS} letters"
        )
    # the last power has |target| * 2^doublings letters
    if max(target.length(), 1) > HOMOGENIZE_LETTERS >> args.doublings:
        raise ValueError(
            f"--doublings {args.doublings} on a target of {target.length()} letters "
            f"exceeds the budget of {HOMOGENIZE_LETTERS} letters"
        )
    phi = qm.brooks(pattern)

    # quick sampled consistency check of the declared bound
    import random

    rng = random.Random(args.seed)
    alphabet = sorted(pattern.generators() | target.generators())
    observed = Fraction(0)
    for _ in range(args.samples):
        g = _random_group_word(rng, alphabet, 6, 3)
        h = _random_group_word(rng, alphabet, 6, 3)
        observed = max(observed, abs(Fraction(phi(g)) + phi(h) - phi(g * h)))
    try:
        estimates = qm.homogenize_doubling(
            phi,
            target,
            defect_bound,
            doublings=args.doublings,
            tolerance=tolerance,
            observed_defect=observed,
        )
    except qm.QmError as exc:
        print(f"inconsistent input: {exc}")
        return INVARIANT_VIOLATED
    for est in estimates:
        print(
            f"N = {est.exponent}: center {est.center}, radius {est.radius}"
        )
    for a, b in zip(estimates, estimates[1:]):
        if not a.intersects(b):
            print("successive intervals fail to intersect; defect bound is invalid")
            return INVARIANT_VIOLATED
    return OK


def _random_group_word(rng, alphabet, syllables: int, max_exp: int) -> GroupWord:
    # the draws of randint(0, syllables), then per syllable choice(alphabet),
    # randint(1, max_exp) and choice((1, -1))
    getrandbits = rng.getrandbits
    out = []
    for _ in range(_below(getrandbits, syllables + 1)):
        name = alphabet[_below(getrandbits, len(alphabet))]
        exp = (1 + _below(getrandbits, max_exp)) * (1, -1)[_below(getrandbits, 2)]
        out.append((name, exp))
    return GroupWord(tuple(out))


def cmd_qm_v0dim(args) -> int:
    groups = [load_group(path) for path in args.groups]
    dim = qm.v0_dim(groups)
    if args.json:
        print(json.dumps({"dim": dim, "groups": [g.name for g in groups]}))
    else:
        print(dim)
    return OK


# -- certify -------------------------------------------------------------------


def cmd_certify_independence(args) -> int:
    if args.rank * args.rank > CERTIFICATE_ENTRIES:
        raise ValueError(
            f"--rank {args.rank} prints {args.rank * args.rank} matrix entries, more than "
            f"the budget of {CERTIFICATE_ENTRIES}"
        )
    parent = build_parent(args, ("a", "b"))
    cert = independence_certificate(parent, args.rank, args.n)
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2))
    else:
        for row in cert.matrix:
            print("  ".join(str(v) for v in row))
        print(f"rank = {cert.verdict}")
    return OK if cert.verdict == args.rank else INVARIANT_VIOLATED


# -- parser --------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackqm",
        description="racks, quandles, free products, quasimorphisms, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rack = sub.add_parser("rack", help="finite racks from JSON tables")
    rack_sub = rack.add_subparsers(dest="subcommand", required=True)
    p = rack_sub.add_parser("check")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rack_check)
    p = rack_sub.add_parser("components")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rack_components)
    p = rack_sub.add_parser("cohomology")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--quandle", action="store_true")
    p.add_argument("--dump-matrix", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rack_cohomology)
    p = rack_sub.add_parser("presentation")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_rack_presentation)

    word = sub.add_parser("word", help="free-group words")
    word_sub = word.add_subparsers(dest="subcommand", required=True)
    p = word_sub.add_parser("reduce")
    p.add_argument("word")
    p.set_defaults(func=cmd_word_reduce)

    fp_parser = sub.add_parser("fp", help="free products of racks")
    fp_sub = fp_parser.add_subparsers(dest="subcommand", required=True)
    p = fp_sub.add_parser("op")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--inverse", action="store_true")
    _add_parent_flags(p)
    p.set_defaults(func=cmd_fp_op)
    p = fp_sub.add_parser("equal")
    p.add_argument("p")
    p.add_argument("q")
    _add_parent_flags(p)
    p.set_defaults(func=cmd_fp_equal)

    qm_parser = sub.add_parser("qm", help="quasimorphisms")
    qm_sub = qm_parser.add_subparsers(dest="subcommand", required=True)
    p = qm_sub.add_parser("eval")
    p.add_argument("family")
    p.add_argument("element")
    _add_parent_flags(p)
    p.set_defaults(func=cmd_qm_eval)
    p = qm_sub.add_parser("defect")
    p.add_argument("family")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--group", action="store_true")
    group.add_argument("--rack", action="store_true")
    p.add_argument("--exhaustive", type=int, help="exhaustive group defect syllable budget")
    p.add_argument("--json", action="store_true")
    _add_parent_flags(p)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_qm_defect)
    p = qm_sub.add_parser("witness")
    p.add_argument("family")
    p.add_argument("--json", action="store_true")
    _add_parent_flags(p)
    p.set_defaults(func=cmd_qm_witness)
    p = qm_sub.add_parser("homogenize")
    p.add_argument("--word", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--defect-bound", required=True)
    p.add_argument("--doublings", type=int, default=10)
    p.add_argument("--tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(func=cmd_qm_homogenize)
    p = qm_sub.add_parser("v0dim")
    p.add_argument("groups", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qm_v0dim)

    certify = sub.add_parser("certify", help="finite-rank certificates")
    certify_sub = certify.add_subparsers(dest="subcommand", required=True)
    p = certify_sub.add_parser("independence")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    _add_parent_flags(p)
    p.set_defaults(func=cmd_certify_independence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        if isinstance(exc, RackValidationError):
            print(f"invalid: {exc}", file=sys.stderr)
            return INVARIANT_VIOLATED
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

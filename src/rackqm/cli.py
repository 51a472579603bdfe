"""Command-line surface.

Exit codes: 0 success/verified, 1 violated invariant, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import cochain as cochain_mod
from . import free_product as fp
from . import quasimorphism as qm
from .adjoint import presentation
from .certify import boundedness_refutation, independence_certificate
from .racks import RackValidationError, components, load_group, load_rack
from .sampling import SamplerConfig
from .words import GroupWord, parse_word

OK, INVARIANT_VIOLATED, INPUT_ERROR = 0, 1, 2

HOMOGENIZE_LETTERS = 2**20  # letter budget of qm homogenize's pattern and of its longest power
EXHAUSTIVE_WORDS = 10**6  # budget of factor values plus words qm defect --exhaustive enumerates

_FACTOR_REF = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\.")


class CliInputError(Exception):
    pass


def _parse_sizes(text: str) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise CliInputError(f"bad --sizes entry {part!r}; expected name=count")
        sizes[name.strip()] = int(value)
    return sizes


def build_parent(args, *texts: str) -> fp.FreeProductRack:
    """Parent from flags, falling back to factor names mentioned in texts."""
    if getattr(args, "sizes", None):
        return fp.trivial_product(_parse_sizes(args.sizes))
    if getattr(args, "factors", None):
        names = [n.strip() for n in args.factors.split(",")]
    else:
        mentioned: list[str] = []
        for text in texts:
            for name in _FACTOR_REF.findall(text):
                if name not in mentioned:
                    mentioned.append(name)
        names = sorted(mentioned)
    if len(names) < 2:
        raise CliInputError(
            "need at least two factors; pass --factors or mention them in the input"
        )
    if getattr(args, "quandle", False):
        return fp.free_quandle(names)
    return fp.free_rack(names)


def _add_parent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--factors", help="comma-separated factor names (free rack)")
    parser.add_argument(
        "--quandle", action="store_true", help="free quandle instead of free rack"
    )
    parser.add_argument(
        "--sizes", help="trivial-rack free product, e.g. a=2,b=3"
    )


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--max-syllables", type=int, default=12)
    parser.add_argument("--max-exponent", type=int, default=5)


def _sampler(args) -> SamplerConfig:
    return SamplerConfig(
        seed=args.seed,
        samples=args.samples,
        max_syllables=args.max_syllables,
        max_exponent=args.max_exponent,
    )


def _load_family(args, path: str, *texts: str):
    with open(path) as fh:
        data = json.load(fh)
    factor_names = [entry["factor"] for entry in qm.family_entries(data)]
    parent = build_parent(args, " ".join(f"{n}.0" for n in factor_names), *texts)
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
    rack = load_rack(args.file)
    if args.quandle and not rack.quandle:
        raise CliInputError("--quandle requested but the input is not a quandle")
    dims = cochain_mod.cohomology_dims(rack, args.degree, quandle_mode=args.quandle)
    if args.dump_matrix:
        if args.quandle:
            _, col_idx, matrix = cochain_mod.quandle_coboundary(rack, args.degree)
            cols = len(col_idx)
        else:
            full = cochain_mod.coboundary(rack, args.degree)
            matrix, cols = full.entries, full.cols
        print(f"# delta {args.degree} {len(matrix)} {cols if matrix else 0}")
        for row in matrix:
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
    parent = build_parent(args, args.p, args.q)
    p = fp.parse_element(parent, args.p)
    q = fp.parse_element(parent, args.q)
    result = fp.rack_op(p, q, sign=-1 if args.inverse else 1)
    print(result.render())
    return OK


def cmd_fp_equal(args) -> int:
    parent = build_parent(args, args.p, args.q)
    p = fp.parse_element(parent, args.p)
    q = fp.parse_element(parent, args.q)
    same = fp.equal(p, q)
    print("true" if same else "false")
    return OK if same else INVARIANT_VIOLATED


# -- qm ------------------------------------------------------------------------


def cmd_qm_eval(args) -> int:
    parent, family = _load_family(args, args.family, args.element)
    p = fp.parse_element(parent, args.element)
    value = qm.rack_qm(family, p)
    print(qm.format_fraction(value))
    return OK


def _exhaustive_size(parent: fp.FreeProductRack, syllables: int, exponent: int) -> int:
    """The factor values plus alternating words of at most ``syllables``
    syllables that the exhaustive enumeration builds, counted in closed form
    and only until the count passes ``EXHAUSTIVE_WORDS``."""
    values = {}  # a rank-r factor has every exponent vector in [-E, E]^r but 0
    for f in parent.factors:
        count = 1
        for _ in range(f.rank):
            count *= 2 * exponent + 1
            if count > EXHAUSTIVE_WORDS:
                break
        values[f.factor] = count - 1
    total = 1 + sum(values.values())  # the empty word and the factor values
    ending = dict(values)  # the words of the current length, by last factor
    for _ in range(syllables):
        if total > EXHAUSTIVE_WORDS:
            break
        words = sum(ending.values())
        total += words
        ending = {name: v * (words - ending[name]) for name, v in values.items()}
    return total


def cmd_qm_defect(args) -> int:
    parent, family = _load_family(args, args.family)
    config = _sampler(args)
    if args.group:
        if (
            args.exhaustive is not None
            and _exhaustive_size(parent, args.exhaustive, args.max_exponent) > EXHAUSTIVE_WORDS
        ):
            raise CliInputError(
                f"--exhaustive {args.exhaustive} at --max-exponent {args.max_exponent} enumerates "
                f"more than the budget of {EXHAUSTIVE_WORDS} factor values and words"
            )
        estimate = qm.group_defect_estimate(
            family,
            config,
            exhaustive_syllables=args.exhaustive,
            exhaustive_exponent=args.max_exponent if args.exhaustive else None,
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
                    "observed": qm.format_fraction(estimate.max_defect),
                    "bound": qm.format_fraction(bound),
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
    defect_bound = qm.parse_fraction(args.defect_bound)
    for flag, value in (
        ("--doublings", args.doublings),
        ("--samples", args.samples),
        ("--defect-bound", defect_bound),
    ):
        if value < 0:
            raise CliInputError(f"{flag} must be at least 0, got {value}")
    if pattern.length() > HOMOGENIZE_LETTERS:
        raise CliInputError(
            f"--word of {pattern.length()} letters exceeds the budget of "
            f"{HOMOGENIZE_LETTERS} letters"
        )
    # the last power has |target| * 2^doublings letters
    if max(target.length(), 1) > HOMOGENIZE_LETTERS >> args.doublings:
        raise CliInputError(
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
            tolerance=qm.parse_fraction(args.tolerance) if args.tolerance else None,
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
    out = []
    for _ in range(rng.randint(0, syllables)):
        name = rng.choice(alphabet)
        exp = rng.randint(1, max_exp) * rng.choice((1, -1))
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
    if not (args.factors or args.sizes):
        args.factors = "a,b"
    parent = build_parent(args)
    cert = independence_certificate(parent, args.rank, args.n)
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2))
    else:
        for row in cert.matrix:
            print("  ".join(qm.format_fraction(v) for v in row))
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
    p.add_argument("--exhaustive", type=int, help="exhaustive pair budget (syllables)")
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
    except (CliInputError, OSError, KeyError, ValueError) as exc:
        if isinstance(exc, RackValidationError):
            print(f"invalid: {exc}", file=sys.stderr)
            return INVARIANT_VIOLATED
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

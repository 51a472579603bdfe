"""The four benchmark workloads.

Each workload draws its inputs from the seed when it is made, builds rackqm
objects in ``setup`` (timed as set-up), and lists the calls of one round in
``tasks``: every round makes the same calls on the same inputs.  ``check``
compares the outputs of a round with a property of the method or with a
computation from :mod:`oracles`.  Calls go through module attributes
(``rq.qm.rack_defect_estimate``), so the traced run sees them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles


def _odd_function(rng: random.Random, max_k: int) -> oracles.OddFunction:
    """A seeded odd bounded function with small rational values, never zero."""
    choices = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    while True:
        entries = {k: rng.choice(choices) for k in range(1, max_k + 1)}
        tail = rng.choice(choices)
        f = oracles.OddFunction(entries, tail)
        if f.bound:
            return f


def _sigma_dict(f: oracles.OddFunction) -> dict:
    return {
        "sigma": {str(k): str(v) for k, v in f.entries.items()},
        "tail": str(f.tail),
    }


class Workload:
    """A round is ``[(label, units, thunk)]``; a unit is the workload's unit of work."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.p = self.sizes[size]

    def setup(self, rq) -> None:
        raise NotImplementedError

    def tasks(self, rq):
        raise NotImplementedError

    def check(self, rq, outputs: dict) -> list[str]:
        raise NotImplementedError


class RackDefect(Workload):
    """``rack_defect_estimate`` on FR, FQ and T2*T3, sign and iota families.
    A unit is one sampled pair (p, q)."""

    name = "rack_defect"
    # Full size samples the shape of ``SamplerConfig``'s defaults, 12
    # syllables and exponents up to 5, which acceptance criterion 2 and the
    # CLI run; pinned here so that a change of the defaults does not change
    # the benchmark's work.
    sizes = {
        "full": {"samples": 400, "max_syllables": 12, "max_exponent": 5},
        "small": {"samples": 30, "max_syllables": 6, "max_exponent": 3},
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.sigma = _odd_function(self.rng, self.p["max_exponent"])
        self.seeds = [self.rng.randrange(2**32) for _ in range(6)]

    def setup(self, rq):
        qm, fp = rq.qm, rq.fp
        sigma = qm.Sigma(tuple(self.sigma.entries.items()), self.sigma.tail)
        self.parents = {
            "FR": fp.free_rack(["a", "b"]),
            "FQ": fp.free_quandle(["a", "b"]),
            "T2*T3": fp.trivial_product({"a": 2, "b": 3}),
        }
        self.calls = []
        seeds = iter(self.seeds)
        for pname, parent in self.parents.items():
            for fname, family in (
                ("sign", qm.sign_family(parent)),
                ("iota", qm.iota_family(parent, "a", 0, sigma)),
            ):
                config = rq.sampling.SamplerConfig(
                    seed=next(seeds),
                    samples=self.p["samples"],
                    max_syllables=self.p["max_syllables"],
                    max_exponent=self.p["max_exponent"],
                )
                self.calls.append((f"{pname}/{fname}", pname, fname, family, config))

    def tasks(self, rq):
        return [
            (label, config.samples, lambda f=family, c=config: rq.qm.rack_defect_estimate(f, c))
            for label, _, _, family, config in self.calls
        ]

    def _lambdas(self, fname):
        if fname == "sign":
            return {"a.0": oracles.sign, "b.0": oracles.sign}
        return {"a.0": self.sigma}

    def check(self, rq, outputs):
        errors = []
        for label, pname, fname, family, config in self.calls:
            if label not in outputs:  # the call failed; counted in ``failed``
                continue
            est = outputs[label]
            norm = Fraction(1) if fname == "sign" else self.sigma.bound
            if family.bound != norm:
                errors.append(f"{label}: ||lambda|| is {family.bound}, expected {norm}")
            if est.checked != config.samples:
                errors.append(f"{label}: checked {est.checked} of {config.samples} pairs")
            if not 0 <= est.max_defect <= 4 * norm:
                errors.append(f"{label}: defect {est.max_defect} exceeds 4 * {norm}")
            if pname == "FR":
                lambdas = self._lambdas(fname)
                errors += self._check_free_rack(rq, label, lambdas, family, est, config)
        return errors

    def _check_free_rack(self, rq, label, lambdas, family, est, config):
        """Recompute p <| q and phi with the plain free-group reducer on every
        pair the estimate drew, and on its reported witness."""
        parent = self.parents["FR"]
        phi = lambda e: oracles.syllable_sum(oracles.free_rack_tail(e), lambdas)  # noqa: E731
        rng = rq.sampling.make_rng(config)
        ms, me = config.max_syllables, config.max_exponent
        errors = []
        for i in range(config.samples):
            p = rq.sampling.sample_element(parent, rng, ms, me)
            q = rq.sampling.sample_element(parent, rng, ms, me)
            r = rq.fp.rack_op(p, q)
            mine_p = oracles.parse_free_rack_element(p.render())
            mine = oracles.free_rack_op(mine_p, oracles.parse_free_rack_element(q.render()))
            if oracles.parse_free_rack_element(r.render()) != mine:
                errors.append(f"{label}: pair {i}: p <| q is {r.render()!r}, expected {mine}")
                break
            for element, expected in ((p, mine_p), (r, mine)):
                value = rq.qm.rack_qm(family, element)
                if value != phi(expected):
                    errors.append(f"{label}: pair {i}: phi({element.render()!r}) = {value}")
            defect = abs(phi(mine_p) - phi(mine))
            if defect > est.max_defect:
                errors.append(f"{label}: pair {i} has defect {defect} > reported max")
        wp, wq = (oracles.parse_free_rack_element(t) for t in est.witness)
        if abs(phi(wp) - phi(oracles.free_rack_op(wp, wq))) != est.max_defect:
            errors.append(f"{label}: witness {est.witness} does not reach {est.max_defect}")
        return errors


class GroupDefect(Workload):
    """Exhaustive ``group_defect_estimate`` on the free rack over all pairs
    with |g| + |h| <= L syllables and exponents in [-E, E], for the sign
    family and seeded families of odd tables.  A unit is one (g, h) pair."""

    name = "group_defect"
    sizes = {
        "full": {"syllables": 4, "exponent": 2, "table_families": 5},
        "small": {"syllables": 2, "exponent": 2, "table_families": 1},
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        e = self.p["exponent"]
        self.tables = [
            {"a.0": _odd_function(self.rng, e), "b.0": _odd_function(self.rng, e)}
            for _ in range(self.p["table_families"])
        ]
        self.expected = oracles.alternating_pair_count(2, 2 * e, self.p["syllables"])

    def setup(self, rq):
        qm = rq.qm
        self.parent = rq.fp.free_rack(["a", "b"])
        signs = {"a.0": oracles.sign, "b.0": oracles.sign}
        self.families = {"sign": (qm.sign_family(self.parent), signs, Fraction(1))}
        for i, tables in enumerate(self.tables):
            data = {
                "family": [
                    {"factor": gen[0], "kind": "iota", "generator": gen, **_sigma_dict(f)}
                    for gen, f in tables.items()
                ]
            }
            self.families[f"tables{i}"] = (
                qm.family_from_dict(self.parent, data),
                tables,
                max(f.bound for f in tables.values()),
            )
        self.config = rq.sampling.SamplerConfig(seed=0, samples=0)

    def tasks(self, rq):
        return [
            (
                label,
                self.expected,
                lambda f=family: rq.qm.group_defect_estimate(
                    f,
                    self.config,
                    exhaustive_syllables=self.p["syllables"],
                    exhaustive_exponent=self.p["exponent"],
                ),
            )
            for label, (family, _, _) in self.families.items()
        ]

    def check(self, rq, outputs):
        errors = []
        for label, (family, lambdas, norm) in self.families.items():
            if label not in outputs:
                continue
            est = outputs[label]
            if family.bound != norm:
                errors.append(f"{label}: ||lambda|| is {family.bound}, expected {norm}")
            if est.checked != self.expected:
                errors.append(f"{label}: checked {est.checked}, closed form {self.expected}")
            if not 0 <= est.max_defect <= 3 * norm:
                errors.append(f"{label}: defect {est.max_defect} exceeds 3 * {norm}")
            g, h = (oracles.parse_word_text(t) for t in est.witness)
            gh = oracles.reduce_word(g + h)
            phi = lambda w: oracles.syllable_sum(w, lambdas)  # noqa: E731
            if abs(phi(g) + phi(h) - phi(gh)) != est.max_defect:
                errors.append(f"{label}: witness {est.witness} does not reach {est.max_defect}")
        return errors


class Certificate(Workload):
    """``independence_certificate`` on the three stock parents plus the
    sign-family ``witness_growth_table``.  A unit is one certificate matrix
    entry."""

    name = "certificate"
    sizes = {
        "full": {"rank": 8, "n": 500, "growth_max": 10_000, "growth_points": 200},
        "small": {"rank": 3, "n": 20, "growth_max": 100, "growth_points": 10},
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.letters = self.rng.sample(["a", "b", "c", "u", "v", "x", "y"], 2)
        top = self.p["growth_max"]
        self.ns = sorted(self.rng.sample(range(1, top), self.p["growth_points"] - 1)) + [top]

    def setup(self, rq):
        fp, qm = rq.fp, rq.qm
        s, t = self.letters
        self.parents = {
            "FR": fp.free_rack([s, t]),
            "FQ": fp.free_quandle([s, t]),
            "T2*T3": fp.trivial_product({s: 2, t: 3}),
        }
        self.sign = qm.sign_family(self.parents["FR"])
        self.witness = qm.find_unboundedness_witness(self.sign)

    def tasks(self, rq):
        rank, n = self.p["rank"], self.p["n"]
        tasks = [
            (label, rank * rank, lambda p=parent: rq.certify.independence_certificate(p, rank, n))
            for label, parent in self.parents.items()
        ]
        tasks.append(
            ("growth", 0, lambda: rq.qm.witness_growth_table(self.sign, self.witness, self.ns))
        )
        return tasks

    def check(self, rq, outputs):
        rank, n = self.p["rank"], self.p["n"]
        expected = oracles.certificate_matrix(rank, n)
        errors = []
        for label in self.parents:
            if label not in outputs:
                continue
            cert = outputs[label]
            if (cert.rank, cert.exponent) != (rank, n):
                errors.append(f"{label}: certificate has rank {cert.rank}, n {cert.exponent}")
            if cert.matrix != expected:
                errors.append(f"{label}: scaled matrix is not the {rank} x {rank} identity")
            if cert.verdict != rank:
                errors.append(f"{label}: verdict {cert.verdict}, expected {rank}")
        growth = outputs.get("growth")
        if growth is not None and growth != {m: 2 * m for m in self.ns}:
            errors.append("growth: phi(w(n)) != 2n for the sign family")
        return errors


class Cohomology(Workload):
    """``cohomology_dims`` over a fixed list of (rack, degree, mode) jobs.  A
    unit is one job.  The seed sets only the order of the jobs: relabelling a
    rack changes the fill-in of the rational elimination, and with it the
    cost of a job, by up to a third."""

    name = "cohomology"
    sizes = {
        "full": {
            "jobs": [
                ("R5", 3, True),
                ("Conj(S3)", 3, True),
                ("R4", 3, False),
                ("R4", 3, True),
                ("R3", 3, False),
                ("Conj(Z4)", 3, False),
                ("T2", 9, False),
                ("T3", 6, False),
                ("T3", 5, True),
            ]
        },
        "small": {
            "jobs": [
                ("R3", 2, True),
                ("R4", 2, False),
                ("Conj(S3)", 2, True),
                ("T2", 4, False),
                ("T3", 3, True),
            ]
        },
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.jobs = list(self.p["jobs"])
        self.rng.shuffle(self.jobs)

    def setup(self, rq):
        racks = rq.racks
        builders = {
            "R3": lambda: racks.dihedral_quandle(3),
            "R4": lambda: racks.dihedral_quandle(4),
            "R5": lambda: racks.dihedral_quandle(5),
            "Conj(S3)": lambda: racks.conjugation_rack(racks.symmetric_group(3)),
            "Conj(Z4)": lambda: racks.conjugation_rack(racks.cyclic_group(4)),
            "T2": lambda: racks.trivial_rack(2),
            "T3": lambda: racks.trivial_rack(3),
        }
        self.racks = {name: builders[name]() for name in {job[0] for job in self.jobs}}

    def tasks(self, rq):
        return [
            (
                f"{name}/{degree}/{'quandle' if quandle else 'rack'}",
                1,
                lambda r=self.racks[name], d=degree, m=quandle: rq.cochain.cohomology_dims(r, d, m),
            )
            for name, degree, quandle in self.jobs
        ]

    def check(self, rq, outputs):
        errors = []
        for name, degree, quandle in self.jobs:
            label = f"{name}/{degree}/{'quandle' if quandle else 'rack'}"
            if label not in outputs:
                continue
            rack = self.racks[name]
            expected = oracles.expected_cohomology(
                oracles.orbit_count(rack.table), degree, quandle
            )
            if outputs[label] != expected:
                errors.append(f"{label}: dims {outputs[label]}, expected {expected}")
        return errors


WORKLOADS = {w.name: w for w in (RackDefect, GroupDefect, Certificate, Cohomology)}

"""Golden outputs of the README's command-line examples.

Each example runs through ``main`` and its exit code and standard output are
compared with the text below, character for character.  Sample sizes are
smaller than the README's so that the whole file runs in a few seconds.
"""

import json

import pytest

from rackqm.cli import main
from rackqm.racks import cyclic_group, dihedral_quandle, rack_to_dict, trivial_rack


@pytest.fixture()
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def group(n):
        g = cyclic_group(n)
        return {"name": g.name, "elements": list(g.elements), "table": [list(r) for r in g.table]}

    return {
        "r3": write("r3.json", rack_to_dict(dihedral_quandle(3))),
        "t3": write("t3.json", rack_to_dict(trivial_rack(3))),
        "sign": write(
            "sign.json",
            {
                "family": [{"factor": "a", "kind": "sign"}, {"factor": "b", "kind": "sign"}],
                "bound": "1",
            },
        ),
        "z2": write("z2.json", group(2)),
        "z3": write("z3.json", group(3)),
    }


R3_QUANDLE_DELTA_2 = """\
# delta 2 12 6
-1 1 0 0 -1 0
-1 1 1 0 0 0
1 -1 -1 0 0 0
1 -1 0 0 1 0
0 0 -1 1 0 -1
1 0 -1 1 0 0
0 0 1 -1 0 1
-1 0 1 -1 0 0
0 1 0 0 -1 1
0 0 0 -1 -1 1
0 0 0 1 1 -1
0 -1 0 0 1 -1
"""

R3_PRESENTATION = """\
generators: e_0 e_1 e_2

e_0 e_1 e_2^-1 e_1^-1
e_0 e_2 e_1^-1 e_2^-1
e_1 e_0 e_2^-1 e_0^-1

e_1 e_2 e_0^-1 e_2^-1
e_2 e_0 e_1^-1 e_0^-1
e_2 e_1 e_0^-1 e_1^-1

"""

RACK_DEFECT = {
    "mode": "rack",
    "observed": "2",
    "bound": "4",
    "checked": 2000,
    "witness": [
        "b.0 | b.0^-4 a.0^2",
        "a.0 | a.0^3 b.0^-5 a.0^-2 b.0^-4 a.0^-1 b.0^-4 a.0^2 b.0 a.0^-2 b.0 a.0^2",
    ],
}

GROUP_DEFECT = {
    "mode": "group",
    "observed": "1",
    "bound": "3",
    "checked": 1113,
    "witness": ["a.0^-2", "a.0^-2"],
}

# sampled defects on the free quandle, a trivial-rack product and a
# three-factor free rack, where the stream takes the paths that the free
# rack's two factors never take
OFF_THE_FREE_RACK = {
    ("rack", "quandle"): (
        ["--quandle"], "2", "4",
        ["a.0 | b.0^-4 a.0^4 b.0 a.0^3 b.0^3 a.0^-5", "b.0 | a.0^4"],
    ),
    ("rack", "sizes"): (
        ["--sizes", "a=2,b=3"], "2", "4",
        [
            "b.2 | a.0^2 a.1^-4 b.0^-5 b.2^4",
            "a.0 | b.1^-3 b.2^-4 a.0^-4 b.0^-4 b.1^-2 b.2 a.0^2 b.0^-5 b.1 b.2^-4 a.0^-3 a.1 "
            "b.0^2 b.1^-4 b.2^3",
        ],
    ),
    ("rack", "factors"): (
        ["--factors", "a,b,c"], "2", "4",
        ["a.0 | a.0^-2", "a.0 | a.0^4 b.0 a.0^5 c.0^4 a.0^-1 c.0^-3 a.0"],
    ),
    ("group", "quandle"): (
        ["--quandle"], "1", "3",
        ["a.0^-4 b.0^-3 a.0^-1 b.0 a.0^-5 b.0 a.0^3", "a.0^-5 b.0^-5 a.0^-4 b.0^-2"],
    ),
    ("group", "sizes"): (
        ["--sizes", "a=2,b=3"], "1", "3",
        [
            "a.0^-4 a.1^-4 b.0^-2 b.1 b.2^-1 a.0^-3 a.1^-5 b.2^-3",
            "b.0^2 b.1^3 b.2 a.0^4 a.1^3 b.0 b.1^5 b.2^-2 a.0 a.1^-1 b.0^3 b.2^-5 a.0^4",
        ],
    ),
    ("group", "factors"): (
        ["--factors", "a,b,c"], "1", "3",
        [
            "b.0^-2 c.0^-4 a.0^-5 c.0^-2 b.0^-3",
            "b.0^-1 c.0^-1 a.0^-1 c.0^-3 b.0^4 a.0^-1 c.0^-4 b.0^-2",
        ],
    ),
}

WITNESS = {
    "components": 2,
    "components_method": "factor-orbit sum",
    "witness_period": "a.0 b.0",
    "slope": "2",
    "growth": {"1": "2", "10": "20", "100": "200"},
}

HOMOGENIZE = """\
N = 1: center 1, radius 2
N = 2: center 1, radius 1
N = 4: center 1, radius 1/2
N = 8: center 1, radius 1/4
N = 16: center 1, radius 1/8
N = 32: center 1, radius 1/16
N = 64: center 1, radius 1/32
N = 128: center 1, radius 1/64
N = 256: center 1, radius 1/128
N = 512: center 1, radius 1/256
N = 1024: center 1, radius 1/512
"""

CERTIFICATE = {
    "rank": 4,
    "n": 50,
    "family": [
        {
            "family": [
                {
                    "factor": "a",
                    "kind": "iota",
                    "generator": "a.0",
                    "sigma": {str(i): "1"},
                    "tail": "0",
                },
                {"factor": "b", "kind": "zero"},
            ],
            "bound": "1",
        }
        for i in range(1, 5)
    ],
    "witnesses": [
        {"j": j, "base": "b.0", "period": "a.0 b.0" if j == 1 else f"a.0^{j} b.0", "power": 50}
        for j in range(1, 5)
    ],
    "matrix": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
    "verdict": 4,
}

CASES = {
    "rack-check-r3": (["rack", "check", "{r3}"], "R3: valid quandle on 3 elements\n"),
    "rack-components-r3": (
        ["rack", "components", "{r3}"],
        "1 component(s)\n  component 0: 0 1 2\n",
    ),
    "rack-cohomology-r3": (
        ["rack", "cohomology", "{r3}", "--degree", "2"],
        "dim H^0 = 1\ndim H^1 = 1\ndim H^2 = 1\n",
    ),
    "rack-cohomology-quandle-r3": (
        ["rack", "cohomology", "{r3}", "--degree", "2", "--quandle", "--dump-matrix"],
        R3_QUANDLE_DELTA_2 + "dim H^0 = 1\ndim H^1 = 1\ndim H^2 = 0\n",
    ),
    "rack-check-t3": (["rack", "check", "{t3}"], "T3: valid quandle on 3 elements\n"),
    "rack-components-t3": (
        ["rack", "components", "{t3}"],
        "3 component(s)\n  component 0: 0\n  component 1: 1\n  component 2: 2\n",
    ),
    "rack-cohomology-t3": (
        ["rack", "cohomology", "{t3}", "--degree", "2"],
        "dim H^0 = 1\ndim H^1 = 3\ndim H^2 = 9\n",
    ),
    "rack-cohomology-quandle-t3": (
        ["rack", "cohomology", "{t3}", "--degree", "2", "--quandle", "--dump-matrix"],
        "# delta 2 12 6\n" + "0 0 0 0 0 0\n" * 12 + "dim H^0 = 1\ndim H^1 = 3\ndim H^2 = 6\n",
    ),
    "rack-presentation": (["rack", "presentation", "{r3}"], R3_PRESENTATION),
    "word-reduce": (["word", "reduce", "a b b^-1"], "a\n"),
    "fp-op": (["fp", "op", "a.0 | b.0", "b.0 | a.0"], "a.0 | b.0 a.0^-1 b.0 a.0\n"),
    "fp-equal-quandle": (
        ["fp", "equal", "a.0 | a.0^3 b.0", "a.0 | b.0", "--quandle"],
        "true\n",
    ),
    "qm-eval": (["qm", "eval", "{sign}", "b.0 | a.0^2 b.0^-3 a.0"], "1\n"),
    "qm-defect-rack": (
        ["qm", "defect", "{sign}", "--rack", "--samples", "2000", "--seed", "0", "--json"],
        json.dumps(RACK_DEFECT) + "\n",
    ),
    "qm-defect-group": (
        [
            "qm", "defect", "{sign}", "--group", "--exhaustive", "3",
            "--max-exponent", "2", "--samples", "200", "--json",
        ],
        json.dumps(GROUP_DEFECT) + "\n",
    ),
    "qm-witness": (["qm", "witness", "{sign}", "--json"], json.dumps(WITNESS) + "\n"),
    **{
        f"qm-defect-{mode}-{name}": (
            ["qm", "defect", "{sign}", f"--{mode}", "--samples", "300", "--seed", "3",
             "--json", *flags],
            json.dumps(
                {"mode": mode, "observed": observed, "bound": bound, "checked": 300,
                 "witness": witness}
            ) + "\n",
        )
        for (mode, name), (flags, observed, bound, witness) in OFF_THE_FREE_RACK.items()
    },
    "qm-homogenize": (
        ["qm", "homogenize", "--word", "a b", "--target", "a b", "--defect-bound", "2"],
        HOMOGENIZE,
    ),
    "qm-v0dim": (["qm", "v0dim", "{z2}", "{z3}"], "1\n"),
    "certify-independence": (
        ["certify", "independence", "--rank", "4", "--n", "50", "--json"],
        json.dumps(CERTIFICATE, indent=2) + "\n",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_readme_example(name, files, capsys):
    argv, expected = CASES[name]
    assert main([arg.format(**files) for arg in argv]) == 0
    assert capsys.readouterr().out == expected

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rackqm
from rackqm import cli, cochain
from rackqm.adjoint import TrivialRackModel
from rackqm.cli import main
from rackqm.free_product import free_quandle, free_rack, trivial_product
from rackqm.racks import dihedral_quandle, rack_to_dict, trivial_rack
from rackqm.sampling import SamplerConfig, enumerate_syllable_words


@pytest.fixture()
def rack_file(tmp_path):
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(rack_to_dict(dihedral_quandle(3))))
    return str(path)


@pytest.fixture()
def sign_family_file(tmp_path):
    path = tmp_path / "sign.json"
    path.write_text(
        json.dumps(
            {
                "family": [
                    {"factor": "a", "kind": "sign"},
                    {"factor": "b", "kind": "sign"},
                ],
                "bound": "1",
            }
        )
    )
    return str(path)


def group_file(tmp_path, n):
    from rackqm.racks import cyclic_group

    g = cyclic_group(n)
    path = tmp_path / f"z{n}.json"
    path.write_text(
        json.dumps(
            {"name": g.name, "elements": list(g.elements), "table": [list(r) for r in g.table]}
        )
    )
    return str(path)


def test_word_reduce(capsys):
    assert main(["word", "reduce", "a b b^-1"]) == 0
    assert capsys.readouterr().out.strip() == "a"


def test_word_reduce_parse_error(capsys):
    assert main(["word", "reduce", "a^x"]) == 2


def test_rack_check_valid(rack_file, capsys):
    assert main(["rack", "check", rack_file]) == 0
    assert "quandle" in capsys.readouterr().out


def test_rack_check_corrupted(tmp_path, capsys):
    data = rack_to_dict(dihedral_quandle(3))
    data["table"][0][1] = 0  # break bijectivity in column 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["rack", "check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "bijectivity" in out and "witness" in out


def test_rack_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["rack", "check", str(path)]) == 2


def test_rack_check_missing_file():
    assert main(["rack", "check", "/nonexistent/file.json"]) == 2


def test_rack_components(rack_file, capsys):
    assert main(["rack", "components", rack_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_rack_cohomology(tmp_path, capsys):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(rack_to_dict(trivial_rack(3))))
    assert main(["rack", "cohomology", str(path), "--degree", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 3, 9]


def test_rack_cohomology_rejects_a_negative_degree(rack_file):
    for extra in ((), ("--quandle",), ("--dump-matrix",)):
        result = run_cli("rack", "cohomology", rack_file, "--degree", "-1", *extra)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: --degree must be at least 0, got -1\n"


def test_rack_cohomology_dump_matrix(rack_file, capsys):
    assert main(["rack", "cohomology", rack_file, "--degree", "1", "--dump-matrix"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# delta 1 9 3")


def test_rack_cohomology_refuses_a_dump_over_its_budget(tmp_path):
    # d^13 of T2 has 2^14 x 2^13 entries, over cli.DUMP_ENTRIES; the dump
    # was still printing after 20 s before the budget
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(rack_to_dict(trivial_rack(2))))
    args = ("rack", "cohomology", str(path), "--degree", "13", "--dump-matrix")
    result = run_cli(*args, timeout=10)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --dump-matrix"), result.stderr
    # without the dump a trivial rack ranks nothing, so degree 20 still answers
    result = run_cli("rack", "cohomology", str(path), "--degree", "20", "--json", timeout=10)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["dims"] == [2**k for k in range(21)]


def test_rack_cohomology_refuses_rank_work_over_its_budget(rack_file):
    # d^9 of R3 has 3^10 = 59049 rows, over cli.RANK_ROWS; ranking it was
    # still running after 20 s before the budget
    result = run_cli("rack", "cohomology", rack_file, "--degree", "9", timeout=10)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --degree 9"), result.stderr


def test_rack_cohomology_refuses_a_huge_degree_before_any_power(rack_file, tmp_path):
    # 3^20001 and 2^20001 have over 4300 digits: formatting either count
    # leaked Python's own "Exceeds the limit" error before the degree check
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps(rack_to_dict(trivial_rack(2))))
    for path, size in ((rack_file, 3), (str(t2), 2)):
        for extra in ((), ("--quandle",), ("--dump-matrix",)):
            result = run_cli("rack", "cohomology", path, "--degree", "20000", *extra, timeout=10)
            assert result.returncode == 2, result.stderr
            assert result.stderr == (
                f"error: |X|^20001 with |X| = {size} exceeds the cap {cochain.CAP}\n"
            ), result.stderr


def test_rack_cohomology_on_one_element_refuses_the_same_degrees(tmp_path):
    # |X|^(d+1) = 1 never reaches the cap, so without a degree rule the
    # command printed d + 1 lines (300,001 at --degree 300000)
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps(rack_to_dict(trivial_rack(1))))
    bits = cochain.CAP.bit_length()
    for extra in ((), ("--quandle",), ("--dump-matrix",), ("--quandle", "--dump-matrix")):
        result = run_cli("rack", "cohomology", str(t1), "--degree", "300000", *extra, timeout=10)
        assert result.returncode == 2, result.stderr
        assert result.stdout == "" and "Traceback" not in result.stderr
        assert result.stderr.startswith("error: --degree 300000 prints 300001 dims")
        assert f"d + 1 >= {bits}" in result.stderr
    # the last degree below the rule still runs
    result = run_cli("rack", "cohomology", str(t1), "--degree", str(bits - 2), "--json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["dims"] == [1] * (bits - 1)


def test_rack_presentation(rack_file, capsys):
    assert main(["rack", "presentation", rack_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("generators: e_0 e_1 e_2")
    assert out.endswith("\n")
    assert len(out.split("\n")[:-1]) == 1 + 9


def test_fp_op_and_round_trip(capsys):
    assert main(["fp", "op", "a.0 |", "b.0 |"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "a.0 | b.0"
    assert main(["fp", "equal", printed, "a.0 | b.0"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_fp_op_inverse(capsys):
    assert main(["fp", "op", "a.0 | b.0", "b.0 |", "--inverse"]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["fp", "op", first, "b.0 |"]) == 0
    assert capsys.readouterr().out.strip() == "a.0 | b.0"


def test_fp_equal_false_exit_code(capsys):
    assert main(["fp", "equal", "a.0 | b.0", "a.0 | b.0^2"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_fp_quandle_mode(capsys):
    assert main(["fp", "equal", "a.0 | a.0^3 b.0", "a.0 | b.0", "--quandle"]) == 0
    assert main(["fp", "equal", "a.0 | a.0^3 b.0", "a.0 | b.0"]) == 1


def test_fp_needs_two_factors(capsys):
    assert main(["fp", "op", "a.0 |", "a.0 |"]) == 2


def test_qm_eval(sign_family_file, capsys):
    assert main(["qm", "eval", sign_family_file, "b.0 | a.0^2 b.0^-3 a.0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_qm_defect_rack(sign_family_file, capsys):
    assert (
        main(
            [
                "qm", "defect", sign_family_file, "--rack",
                "--samples", "500", "--seed", "0", "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "rack"
    from fractions import Fraction

    assert Fraction(data["observed"]) <= Fraction(data["bound"]) == 4


def test_qm_defect_group_exhaustive(sign_family_file, capsys):
    assert (
        main(
            [
                "qm", "defect", sign_family_file, "--group",
                "--exhaustive", "3", "--max-exponent", "2",
                "--samples", "200", "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    from fractions import Fraction

    assert Fraction(data["observed"]) <= 3


def run_cli(*args, timeout=30):
    # a separate process, so that a command that never returns fails the
    # test through the timeout instead of hanging the suite
    src = os.path.dirname(os.path.dirname(rackqm.__file__))
    return subprocess.run(
        [sys.executable, "-m", "rackqm.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize(
    "flag, value",
    [("--max-exponent", "0"), ("--samples", "-5"), ("--max-syllables", "-1")],
)
def test_qm_defect_rejects_bad_sampler_input(sign_family_file, flag, value):
    result = run_cli("qm", "defect", sign_family_file, "--sizes", "a=2,b=3", flag, value)
    assert result.returncode == 2
    assert flag in result.stderr
    assert result.stdout == ""


def test_sampler_flags_default_to_the_config(sign_family_file):
    args = cli.make_parser().parse_args(["qm", "defect", sign_family_file])
    assert cli._sampler(args) == SamplerConfig()


def test_factors_and_sizes_together_exit_2(sign_family_file, capsys):
    for command in (
        ("fp", "op", "a.0 | b.0", "b.0 | a.0"),
        ("qm", "defect", sign_family_file, "--samples", "10"),
        ("certify", "independence", "--rank", "2", "--n", "3"),
    ):
        assert main([*command, "--sizes", "a=2,b=3", "--factors", "x,y"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: --factors and --sizes"), command


@pytest.mark.parametrize("mode", [(), ("--rack",)])
def test_qm_defect_rejects_exhaustive_without_group(sign_family_file, mode):
    # --exhaustive bounds the group defect's syllables; the rack estimate used to ignore it
    result = run_cli("qm", "defect", sign_family_file, *mode, "--exhaustive", "3", "--samples", "5")
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --exhaustive"), result.stderr
    assert "--group" in result.stderr
    assert result.stdout == ""


def test_qm_defect_rejects_negative_exhaustive(sign_family_file):
    result = run_cli("qm", "defect", sign_family_file, "--group", "--exhaustive", "-1")
    assert result.returncode == 2
    assert result.stderr.startswith("error: --exhaustive")


@pytest.mark.parametrize(
    "budget",
    [("--exhaustive", "3"), ("--exhaustive", "0", "--max-exponent", "200"),
     ("--exhaustive", "21", "--max-exponent", "2")],
    ids=" ".join,
)
def test_qm_defect_rejects_exhaustive_runs_over_budget(sign_family_file, budget):
    result = run_cli(
        "qm", "defect", sign_family_file, "--sizes", "a=2,b=3", "--group", "--samples", "0",
        *budget,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --exhaustive")


@pytest.mark.parametrize(
    "parent, syllables, exponent",
    [
        pytest.param(trivial_product({"a": 2, "b": 3}), 1, 2, id="T2*T3-1-2"),
        pytest.param(trivial_product({"a": 2, "b": 3}), 3, 1, id="T2*T3-3-1"),
        pytest.param(free_rack(["a", "b"]), 6, 3, id="FR-6-3"),
        pytest.param(free_rack(["a", "b", "c"]), 4, 2, id="FR3-4-2"),
    ],
)
def test_exhaustive_size_counts_what_the_enumeration_builds(parent, syllables, exponent):
    values = sum(len(list(f.enumerate_values(exponent))) for f in parent.factors)
    words = sum(1 for _ in enumerate_syllable_words(parent, syllables, exponent))
    assert cli._exhaustive_size(parent, syllables, exponent) == values + words


def test_exhaustive_budget_admits_the_documented_runs():
    # two syllables on a=2,b=3 at the default exponent: 1450 values, 320,651 words
    assert cli._exhaustive_size(trivial_product({"a": 2, "b": 3}), 2, 5) == 322_101
    assert cli._exhaustive_size(free_rack(["a", "b"]), 6, 3) <= cli.EXHAUSTIVE_WORDS


def test_qm_defect_refuses_exhaustive_runs_over_the_merge_term_budget(sign_family_file):
    # about 380,000 words pass the word budget, but the search would evaluate
    # 20^2 + 9260^2 merge terms: every pair of values of each factor
    parent = trivial_product({"a": 1, "b": 3})
    assert cli._exhaustive_size(parent, 2, 10) <= cli.EXHAUSTIVE_WORDS
    assert cli._merge_terms(parent, 10) == 20**2 + 9260**2 > cli.EXHAUSTIVE_TERMS
    result = run_cli(
        "qm", "defect", sign_family_file, "--sizes", "a=1,b=3", "--group", "--samples", "0",
        "--exhaustive", "2", "--max-exponent", "10",
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --exhaustive"), result.stderr
    assert result.stdout == ""


def test_merge_term_budget_is_checked_before_any_enumeration(sign_family_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(cli.qm, "group_defect_estimate", refuse)
    monkeypatch.setattr(TrivialRackModel, "enumerate_values", refuse)
    argv = ["qm", "defect", sign_family_file, "--sizes", "a=1,b=3", "--group", "--samples", "0",
            "--exhaustive", "2", "--max-exponent", "10"]
    assert main(argv) == 2
    # one syllable has no pair to merge, so the same exponent is admitted there
    monkeypatch.undo()
    assert main([*argv[:-3], "1", "--max-exponent", "10"]) == 0


def test_merge_term_budget_admits_the_documented_run():
    # README's two-syllable run on a=2,b=3: 120^2 + 1330^2 merge terms
    assert cli._merge_terms(trivial_product({"a": 2, "b": 3}), 5) == 1_783_300
    assert 1_783_300 <= cli.EXHAUSTIVE_TERMS


def test_the_largest_exhaustive_run_the_budget_admits_finishes(sign_family_file):
    # 524,285 words, 16,777,225 pairs, counted in closed form
    result = run_cli(
        "qm", "defect", sign_family_file, "--group", "--exhaustive", "17",
        "--max-exponent", "1", "--samples", "0",
    )
    assert result.returncode == 0, result.stderr
    assert "(16777225 pairs)" in result.stdout


def test_qm_homogenize_expands_a_long_pattern_once():
    # 500 sampled pairs against a pattern of a million letters
    result = run_cli(
        "qm", "homogenize", "--word", "a^1000000", "--target", "a", "--defect-bound", "2",
        "--doublings", "0",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "N = 1: center 0, radius 2\n"


HOMOGENIZE = ("qm", "homogenize", "--word", "a b", "--target", "a b", "--defect-bound", "2")


@pytest.mark.parametrize(
    "args",
    [
        (*HOMOGENIZE, "--doublings", "-3"),
        (*HOMOGENIZE, "--samples", "-4"),
        # sampled pairs over the budget of 10^5
        (*HOMOGENIZE, "--samples", str(10**30)),
        (*HOMOGENIZE, "--defect-bound", "-1"),
        (*HOMOGENIZE, "--tolerance", "-1"),
        (*HOMOGENIZE, "--tolerance", "x"),
        # |target| * 2^doublings letters over the budget of 2^20
        (*HOMOGENIZE, "--doublings", "20"),
        (*HOMOGENIZE, "--doublings", "30"),
        (*HOMOGENIZE, "--doublings", str(10**30)),
        ("qm", "homogenize", "--word", "a", "--target", "a^2000000", "--defect-bound", "0",
         "--doublings", "0"),
        ("qm", "homogenize", "--target", "a", "--defect-bound", "2", "--doublings", "0",
         "--word", "a^2000000"),
        (*HOMOGENIZE, "--defect-bound", "x"),
    ],
)
def test_qm_homogenize_rejects_bad_numeric_input(args):
    result = run_cli(*args)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {args[-2]}")


def test_qm_homogenize_at_the_letter_budget():
    # the last power, (a b)^(2^19), has 2^20 letters; the output is unchanged
    # from the power that also built (a b)^(2^20)
    result = run_cli(*HOMOGENIZE, "--doublings", "19", "--samples", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"N = {2**k}: center 1, radius {Fraction(2, 2**k)}" for k in range(20)
    ]


@pytest.mark.parametrize(
    "command, document",
    [
        ("rack check", {"table": 5}),
        ("rack check", {"table": [1, 2]}),
        ("rack check", {"table": [[0]], "elements": 5}),
        ("qm v0dim", {"table": [1]}),
        ("qm v0dim", {"table": [[0, 1], [1, 0.0]]}),
        ("qm v0dim", {"table": [[0]], "inverse": 5}),
        ("qm v0dim", {"table": [[0]], "elements": ["e", "f"]}),
        ("rack check", {"table": [[0]], "name": [1]}),
        ("rack check", {"table": [[0]], "name": 5}),
        ("rack check", []),
        ("qm v0dim", {"table": [[0]], "name": 5}),
        ("qm v0dim", []),
    ],
    ids=lambda value: value if isinstance(value, str) else json.dumps(value),
)
def test_malformed_rack_and_group_json_exits_2(tmp_path, command, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    result = run_cli(*command.split(), str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr
    if not isinstance(document, dict):
        assert "must be a JSON object" in result.stderr, result.stderr
    elif "name" in document:
        assert "'name' must be a string" in result.stderr, result.stderr


def test_directory_paths_exit_2(tmp_path, rack_file):
    for args in (("rack", "check", str(tmp_path)),
                 ("rack", "presentation", rack_file, "-o", str(tmp_path))):
        result = run_cli(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr.startswith("error: "), (args, result.stderr)
        assert "Traceback" not in result.stderr


DEFECT_FLAGS = ("--exhaustive", "--seed", "--samples", "--max-syllables", "--max-exponent")
HOMOGENIZE_FLAGS = ("--doublings", "--seed", "--samples")


@pytest.mark.parametrize("value", ["-1", "0", "21"])
def test_qm_numeric_flags_never_leak_a_traceback(sign_family_file, value):
    # 21 is over the letter budget for --doublings and the word budget for
    # --exhaustive, and ordinary elsewhere
    runs = [
        ("qm", "defect", sign_family_file, "--group", "--samples", "20",
         "--max-syllables", "3", "--max-exponent", "2", flag, value)
        for flag in DEFECT_FLAGS
    ]
    runs += [(*HOMOGENIZE, "--samples", "20", flag, value) for flag in HOMOGENIZE_FLAGS]
    for args in runs:
        result = run_cli(*args)
        assert result.returncode in (0, 1, 2), (args, result.stderr)
        assert "Traceback" not in result.stderr, (args, result.stderr)


@pytest.mark.parametrize("value", ["-1", "0", "21"])
def test_rack_cohomology_degree_never_leaks_a_traceback(rack_file, value):
    # 21 puts |X|^(degree+1) = 3^22 over the cochain cap, which exits 2
    for extra in ((), ("--quandle",), ("--dump-matrix",), ("--quandle", "--dump-matrix")):
        args = ("rack", "cohomology", rack_file, "--degree", value, *extra)
        result = run_cli(*args)
        assert result.returncode in (0, 1, 2), (args, result.stderr)
        assert "Traceback" not in result.stderr, (args, result.stderr)


def _iota(**fields):
    return {"family": [{"factor": "a", "kind": "iota", **fields}]}


@pytest.mark.parametrize(
    "document",
    [
        [],
        {"family": [1]},
        {"family": {"a": 1}},
        {"family": [{"kind": "sign"}]},
        _iota(sigma=[1]),
        _iota(sigma={"1": "1/0"}),
        _iota(sigma={"1": [1]}),
        _iota(indicator=[1]),
        _iota(indicator=2.5),
        _iota(element=True, sigma={"1": "1"}),
        _iota(indicator=1, value=True),
        _iota(sigma={"1": True}),
        {"family": [{"factor": "a", "kind": "sign"}], "bound": True},
        {"family": [{"factor": "a", "kind": "table", "values": [1], "bound": "1"}]},
    ],
    ids=json.dumps,
)
def test_qm_defect_rejects_malformed_family_json(tmp_path, document):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(document))
    result = run_cli("qm", "defect", str(path), "--factors", "a,b", "--samples", "10")
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "entry",
    [
        {"factor": "c", "kind": "iota", "indicator": 1},
        {"factor": "c", "kind": "table", "values": {}, "bound": "1"},
        {"factor": "c", "kind": "sign"},
    ],
    ids=lambda entry: entry["kind"],
)
def test_a_component_on_an_unknown_factor_names_it(tmp_path, entry):
    # iota and table entries used to print the repr of a KeyError
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": [entry]}))
    result = run_cli("qm", "defect", str(path), "--factors", "a,b", "--samples", "10")
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: components for unknown factors ['c']\n"


def test_table_component_without_a_bound_names_it(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": [{"factor": "a", "kind": "table", "values": {}}]}))
    result = run_cli("qm", "defect", str(path), "--factors", "a,b", "--samples", "10")
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: table component for factor 'a' needs a 'bound'\n"


def test_qm_witness(sign_family_file, capsys):
    assert main(["qm", "witness", sign_family_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["slope"] == "2"
    assert data["growth"]["100"] == "200"


def test_qm_witness_zero_family(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"family": [{"factor": "a", "kind": "zero"}, {"factor": "b", "kind": "zero"}]})
    )
    assert main(["qm", "witness", str(path)]) == 1


def test_qm_homogenize(capsys):
    assert (
        main(
            [
                "qm", "homogenize", "--word", "a b", "--target", "a b",
                "--defect-bound", "2", "--doublings", "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "N = 1024: center 1, radius 1/512" in out


def test_qm_homogenize_rejects_low_bound(capsys):
    assert (
        main(
            [
                "qm", "homogenize", "--word", "a b", "--target", "a b",
                "--defect-bound", "0", "--doublings", "4",
            ]
        )
        == 1
    )


def test_qm_v0dim(tmp_path, capsys):
    z2 = group_file(tmp_path, 2)
    z3 = group_file(tmp_path, 3)
    assert main(["qm", "v0dim", z2, z3]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_certify_independence(capsys):
    assert main(["certify", "independence", "--rank", "3", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert "rank = 3" in out


def test_certify_independence_json(capsys):
    assert (
        main(
            [
                "certify", "independence", "--rank", "4", "--n", "10",
                "--sizes", "a=2,b=3", "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == 4
    assert data["matrix"][2][2] == "1" and data["matrix"][2][1] == "0"


def test_certify_independence_rejects_ranks_over_budget():
    # rank^2 = 1,002,001 entries; the closed-form check exits before any work
    assert 1001 * 1001 > cli.CERTIFICATE_ENTRIES >= 1000 * 1000
    result = run_cli("certify", "independence", "--rank", "1001", "--n", "1", timeout=10)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --rank 1001"), result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("value", ["-1", "0", "21"])
def test_certify_numeric_flags_never_leak_a_traceback(value):
    for flag, other in (("--rank", "--n"), ("--n", "--rank")):
        args = ("certify", "independence", flag, value, other, "3")
        result = run_cli(*args)
        assert result.returncode in (0, 1, 2), (args, result.stderr)
        assert "Traceback" not in result.stderr, (args, result.stderr)


def test_fp_sizes_over_budget_exit_2():
    # the ranks sum to 100,000,003; building that parent used to run out of
    # memory, and the check exits before any factor is built
    assert 100_000_003 > cli.FACTOR_RANKS
    result = run_cli("fp", "op", "a.0 |", "b.0 |", "--sizes", "a=100000000,b=3", timeout=10)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: --sizes"), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("samples", ["200", "20"])
def test_qm_defect_rejects_sampled_work_over_budget(sign_family_file, samples):
    # the ranks are within the --sizes budget, but every sampled value of the
    # rank-99999 factor draws 99,999 exponents: --samples 200 ran for half a
    # minute and --samples 20 printed a witness of megabytes
    result = run_cli(
        "qm", "defect", sign_family_file, "--sizes", "a=99999,b=1", "--samples", samples,
        timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: --samples {samples} with --max-syllables 12"), (
        result.stderr
    )
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_sampled_work_budget_admits_the_defaults_on_stock_parents():
    config = SamplerConfig()
    for parent in (
        free_rack(["a", "b"]),
        free_quandle(["a", "b"]),
        free_rack(["a", "b", "c"]),
        trivial_product({"a": 2, "b": 3}),
    ):
        draws = cli._sampled_exponents(parent, config)
        assert draws == 2 * 10_000 * 12 * max(f.rank for f in parent.factors)
        assert draws <= cli.SAMPLED_EXPONENTS


@pytest.mark.parametrize(
    "sizes, entry", [("a=2,a=3,b=1", "a=3"), ("a=2,b=x", "b=x"), ("a,b=1", "a")]
)
def test_fp_sizes_rejects_a_bad_entry(sizes, entry):
    # a repeated name used to keep its last count, and a count that is not an
    # integer printed int()'s message
    result = run_cli("fp", "op", "a.0 |", "b.0 |", "--sizes", sizes)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: bad --sizes entry {entry!r}"), result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("sizes", ["a=-1,b=2", "a=0,b=2", "a=21,b=2", "a=100000000,b=3"])
def test_fp_sizes_never_leak_a_traceback(sizes):
    args = ("fp", "op", "a.0 | b.1", "b.0 | a.0^2", "--sizes", sizes)
    result = run_cli(*args, timeout=10)
    assert result.returncode in (0, 1, 2), (args, result.stderr)
    assert "Traceback" not in result.stderr, (args, result.stderr)


def test_cli_round_trip_of_printed_elements(capsys):
    # everything fp prints must re-parse to an equal value
    for args in (
        ["fp", "op", "a.0 | a.0^2", "b.0 | a.0"],
        ["fp", "op", "b.0 | a.0^-1", "a.0 | b.0^2", "--inverse"],
        ["fp", "op", "a.0 | b.0", "a.0 | b.0", "--quandle"],
    ):
        assert main(args) == 0
        printed = capsys.readouterr().out.strip()
        extra = ["--quandle"] if "--quandle" in args else []
        assert main(["fp", "equal", printed, printed] + extra) == 0
        capsys.readouterr()

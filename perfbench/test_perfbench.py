"""Smoke test of the benchmark harness, so it cannot rot unseen.

Runs every workload at ``--size small`` (all checks, a few seconds in all),
untraced and traced, and checks the result line against BENCHMARK.json.
From the root of the checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(cwd, workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "rack_defect", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_closed_form_pair_count():
    # criterion 8 shape: |g| + |h| <= 5 syllables, exponents in [-3, 3]
    assert oracles.alternating_pair_count(2, 6, 5) == 179_161
    assert oracles.alternating_pair_count(2, 6, 0) == 1


def test_oracles_on_known_racks():
    dihedral_3 = [[(2 * j - i) % 3 for j in range(3)] for i in range(3)]
    trivial_3 = [[i] * 3 for i in range(3)]
    assert oracles.orbit_count(dihedral_3) == 1
    assert oracles.orbit_count(trivial_3) == 3
    assert oracles.expected_cohomology(3, 4, quandle=True) == [1, 3, 6, 12, 24]
    assert oracles.expected_cohomology(2, 3, quandle=False) == [1, 2, 4, 8]


def test_free_rack_op_oracle():
    p = oracles.parse_free_rack_element("a.0 | a.0^2 b.0")
    q = oracles.parse_free_rack_element("b.0 | a.0")
    # (a, a^2 b) <| (b, a) = (a, a^2 b a^-1 b a)
    expected = [("a.0", 2), ("b.0", 1), ("a.0", -1), ("b.0", 1), ("a.0", 1)]
    assert oracles.free_rack_op(p, q) == ("a.0", expected)
    assert oracles.free_rack_tail(p) == [("b.0", 1)]

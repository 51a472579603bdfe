"""Smoke runs of the experiment scripts in ``scripts/`` at small budgets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rackqm

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(Path(rackqm.__file__).resolve().parent.parent)}


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60, env=ENV,
    )


def test_defect_survey_runs():
    result = run_script("defect_survey.py", "--samples", "20", "--exhaustive", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_make_certificates_writes_three_files(tmp_path):
    result = run_script("make_certificates.py", "--rank", "2", "--n", "5", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [
        "free_quandle_ab_rank2.json",
        "free_rack_ab_rank2.json",
        "trivial_t2_t3_rank2.json",
    ]
    for name in written:
        assert json.loads((tmp_path / name).read_text())["verdict"] == 2

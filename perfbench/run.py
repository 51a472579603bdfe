"""rackqm benchmark: one workload, end to end or traced.

From the root of a rackqm checkout::

    python3 perfbench/run.py --workload rack_defect --seed 1 --seconds 20 --trace 0

The workload runs in a process of its own (``worker.py``).  Untraced, set-up
is timed in that process and in ``SETUP_PROBES`` more processes that only
set up, and ``setup_s`` is their median.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).  Run
outputs go to ``.perfbench/``: this result with the set-up samples, the raw
``ops_per_s`` and every round's time and reference pass, and the traced
run's spans.
``--size small`` runs every workload with all its checks in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 5
RUN_TIMEOUT_S = 150
OUT_DIR = ".perfbench"


def run_child(cmd: list[str], timeout: float) -> dict:
    """Run one worker process to its end and return its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rackqm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rackqm", "__init__.py")):
        print("error: run from the root of a rackqm checkout (no src/rackqm here)", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        print("error: --seconds must be between 1 and 120", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    worker = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
    ]  # fmt: skip

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(worker + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
        extra = ["--spans", stem + ".spans.jsonl.gz"] if args.trace else []
        result = run_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
            RUN_TIMEOUT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(result.pop("setup_s"))
    detail = {key: result.pop(key) for key in ("ops_per_s", "round_s", "ref_s")}
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    with open(stem + ".json", "w") as out:
        json.dump(dict(result, setup_samples_s=setups, **detail), out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

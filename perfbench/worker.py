"""One workload in one process: set up, run rounds for the given seconds,
check the outputs, print one JSON line.

Run by ``run.py``; from the root of a checkout::

    python3 perfbench/worker.py --workload rack_defect --seed 1 --seconds 10 --trace 0

Untraced (``--trace 0``), it times each round, with reference-kernel passes
sampled inside it (``refkernel.Sampler``), and reports the median round.  Traced (``--trace 1``), it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones.  ``--setup-only`` stops after set-up and prints its time.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

import refkernel
import tracing
from workloads import WORKLOADS

SPAN_ROUNDS = 2  # traced rounds whose spans are kept and written out

RACKQM_MODULES = {
    "qm": "quasimorphism",
    "fp": "free_product",
    "sampling": "sampling",
    "adjoint": "adjoint",
    "words": "words",
    "certify": "certify",
    "cochain": "cochain",
    "racks": "racks",
}


def import_rackqm(root: str) -> types.SimpleNamespace:
    """Import rackqm from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    package = importlib.import_module("rackqm")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != src:
        raise ImportError(f"rackqm was imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(
        **{key: importlib.import_module("rackqm." + mod) for key, mod in RACKQM_MODULES.items()}
    )


def run_round(tasks, sample: bool = False) -> tuple[dict, float, float, int, int, list[str]]:
    """One round: every call of the workload once.  Returns the outputs, the
    round's seconds, the mean reference pass beside it (with ``sample``; else
    0), the units attempted and failed, and the failures.  A call that raises
    counts its units as failed."""
    outputs, attempted, failed, errors = {}, 0, 0, []
    sampler = refkernel.Sampler() if sample else contextlib.nullcontext()
    start = time.perf_counter()
    with sampler:
        for label, units, call in tasks:
            attempted += units
            try:
                outputs[label] = call()
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += units
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
    busy = time.perf_counter() - start
    ref = 0.0
    if sample:
        busy -= sampler.overhead
        ref = statistics.fmean(sampler.passes or [refkernel.measure()])
    return outputs, busy, ref, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans (gzip JSON lines)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    start = time.perf_counter()
    rq = import_rackqm(os.getcwd())
    tracer = tracing.Tracer(rq) if args.trace else None
    if tracer:
        tracer.install_setup()
    workload.setup(rq)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        _, setup_self = tracer.take()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tasks = workload.tasks(rq)
    first = None
    attempted = failed = 0
    failures: list[str] = []  # operations that raised: counted in ``failed``
    errors: list[str] = []  # outputs that are wrong: ``correct`` is false
    times: list[float] = []
    traced_times: list[float] = []
    layer_rounds: list[dict] = []
    refs: list[float] = []
    begin = time.perf_counter()
    while True:
        outputs, busy, ref, a, f, fails = run_round(tasks, sample=not tracer)
        times.append(busy)
        refs.append(ref)
        attempted, failed = attempted + a, failed + f
        failures += fails
        if tracer:
            tracer.keep_spans = len(traced_times) < SPAN_ROUNDS
            tracer.install()
            traced, busy, _, a, f, fails = run_round(tasks)
            traced_times.append(busy)
            tracer.uninstall()
            counts, self_ns = tracer.take()
            layer_rounds.append(tracing.layer_values(counts, self_ns))
            attempted, failed = attempted + a, failed + f
            failures += fails
            if traced != outputs:
                errors.append("a traced round gave other outputs than an untraced one")
        first = outputs if first is None else first
        if outputs != first:
            errors.append("rounds of the same inputs gave different outputs")
        if time.perf_counter() - begin >= args.seconds:
            break

    errors += workload.check(rq, first)
    for message in sorted(set(failures)) + sorted(set(errors)):
        print(message, file=sys.stderr)
    correct = not errors

    units = (attempted - failed) / len(times)
    if tracer:
        metrics = {
            name: {
                "value": statistics.median(r[name] for r in layer_rounds),
                "unit": tracing.unit(name),
            }
            for name in tracing.LAYER_METRICS
        }
        metrics["racks.build.self_ms"] = {"value": setup_self["racks.build"] / 1e6, "unit": "ms"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_times) - statistics.median(times),
            "unit": "s",
        }
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = {
            "ops_per_ref": {
                "value": units / statistics.median(t / r for t, r in zip(times, refs)),
                "unit": "1/ref",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "setup_s": setup_s,
                # raw throughput; it follows the host's speed (README, "Steadiness")
                "ops_per_s": units / statistics.median(times),
                "round_s": times,
                "ref_s": refs,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Does the reference kernel's time follow the state a workload leaves?

``ops_per_ref`` divides round time by the time of the reference kernel
measured beside it.  That takes out the host's drift only if the kernel's
time does not follow the process's own state: a large live heap, or what
earlier rounds left behind.  This script times, in one process, the kernel
and the rounds of one workload in alternating phases -- a plain heap, then
beside a ballast of live tuples and Fractions, which is freed again -- and
prints the medians of each kind of phase.  From the root of a checkout::

    python3 perfbench/refcheck.py --workload rack_defect
"""

from __future__ import annotations

import argparse
import os
import statistics
from fractions import Fraction

import refkernel
from worker import import_rackqm, run_round
from workloads import WORKLOADS

SEED = 1
ROUNDS = 4  # rounds per phase
CYCLES = 3  # plain/ballast phase pairs
BALLAST = 500_000  # live tuples in the ballast


def phase(tasks, rounds: int, refs: list, times: list) -> None:
    for _ in range(rounds):
        _, busy, ref, _, failed, _ = run_round(tasks, sample=True)
        if failed:
            raise RuntimeError("an operation failed")
        times.append(busy)
        refs.append(ref)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rack_defect", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](SEED, "full")
    fresh = [refkernel.measure() for _ in range(50)]
    rq = import_rackqm(os.getcwd())
    workload.setup(rq)
    tasks = workload.tasks(rq)

    plain: tuple[list, list] = ([], [])
    heavy: tuple[list, list] = ([], [])
    for _ in range(CYCLES):
        phase(tasks, ROUNDS, *plain)
        ballast = [(i, Fraction(i, 7), (i, -i)) for i in range(BALLAST)]
        phase(tasks, ROUNDS, *heavy)
        del ballast

    print(
        f"workload {args.workload}: {CYCLES} x ({ROUNDS} rounds plain heap, "
        f"{ROUNDS} rounds beside {BALLAST} live tuples + Fractions); medians"
    )
    print(f"{'phase':32s} {'ref pass ms':>12s} {'round s':>9s} {'round/ref':>10s}")
    print(f"{'fresh process, no round yet':32s} {statistics.median(fresh) * 1e3:12.3f}")
    for label, (refs, times) in (("plain heap", plain), ("with ballast", heavy)):
        ratio = statistics.median(t / r for t, r in zip(times, refs))
        print(
            f"{label:32s} {statistics.median(refs) * 1e3:12.3f} "
            f"{statistics.median(times):9.3f} {ratio:10.1f}"
        )


if __name__ == "__main__":
    main()

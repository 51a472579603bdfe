"""A fixed reference kernel, timed inside the rounds to measure the host's speed.

Pure standard library; it never imports rackqm, so no change to rackqm can
change its time.  It does the kind of work rackqm's inner loops do -- small
tuples, dict lookups, list slicing and Fraction arithmetic -- so a host that
slows the interpreter slows both alike.  The cyclic garbage collector is off
while it runs: otherwise a collection could walk the live objects a
workload holds, and the kernel's time would follow the workload's heap.

The host's speed changes within seconds, so one pass between rounds says
little about the round beside it.  :class:`Sampler` instead runs a short pass
from a timer signal every ``INTERVAL_S`` while a round runs; Python runs the
handler between bytecodes, inside rackqm's own calls, so the passes sample
the same seconds as the round's work.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

ITERATIONS = 1000
EXPECTED = (91, Fraction(-1, 3))
INTERVAL_S = 0.02


def kernel(iterations: int = ITERATIONS):
    table: dict[tuple[int, int], int] = {}
    stack: list[tuple[tuple[int, int], int]] = []
    acc = Fraction(0)
    for i in range(iterations):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + 1
        stack.append((key, i & 3))
        if len(stack) > 8:
            stack = stack[4:]
        if i % 4 == 0:
            acc += Fraction(i % 5 - 2, 1 + i % 3)
    return len(table), acc


def measure() -> float:
    """Seconds for one pass of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}")
    return elapsed


class Sampler:
    """``with Sampler() as s:`` times a kernel pass every ``INTERVAL_S``
    seconds of the block.  ``s.passes`` holds the pass times and
    ``s.overhead`` all time spent in the handler, which the caller takes off
    the block's time."""

    def __init__(self):
        self.passes: list[float] = []
        self.overhead = 0.0
        self._inside = False

    def _tick(self, signum, frame) -> None:
        if self._inside:  # a tick that arrives during a pass is dropped
            return
        self._inside = True
        start = time.perf_counter()
        self.passes.append(measure())
        self.overhead += time.perf_counter() - start
        self._inside = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

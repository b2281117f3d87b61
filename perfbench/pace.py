"""The host's pace, measured next to every timed call.

On a shared host the same session can take 1.6 times as long from one
second to the next, as other tenants come and go; the set-up of an
interpreter slows with it, so the slowdown is the machine's, not the
program's. ``calibrate`` times a fixed piece of interpreter-bound work
that imports nothing from the program, so no change to the program
can move it. The child times it just before and just after its timed
call; a sample's seconds divided by the pace are seconds at the pace
of a quiet 2-core x86-64 VM, on which the work took
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time

#: Seconds ``calibrate`` took on a quiet 2-core x86-64 VM.
REFERENCE_S = 0.07
_NAMES = tuple(f"r{i}" for i in range(16))
_MASK = (1 << 64) - 1


def _work(reps: int) -> int:
    """Register-file updates like the emulator's: dicts, bit operations,
    small tuples, calls."""
    rng = random.Random(0)
    ops = [(rng.choice(_NAMES), rng.choice(_NAMES), rng.randrange(4))
           for _ in range(256)]
    total = 0
    for rep in range(reps):
        regs = dict.fromkeys(_NAMES, rep)
        trace = []
        for dst, src, op in ops:
            a, b = regs[dst], regs[src]
            if op == 0:
                value = (a + b + 1) & _MASK
            elif op == 1:
                value = (a ^ (b << 3)) & _MASK
            elif op == 2:
                value = (a * 0x9E3779B97F4A7C15 + b) & _MASK
            else:
                value = (a >> 7) | (b & 0xFF)
            regs[dst] = value
            trace.append((dst, value))
        total ^= hash(tuple(sorted(regs.items()))) ^ len(trace)
    return total


def calibrate() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _work(1000)
    return time.perf_counter() - start

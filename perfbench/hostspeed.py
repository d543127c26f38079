"""Host-speed calibration for the end-to-end times.

On a shared host the speed of the cores moves between levels up to
1.8x apart, for periods of 5 to 45 s, so a whole run can sit at one
level.  Medians within a run cannot remove such a shift: on 2 vCPUs,
sets of five seeds spread by 13 to 30% in raw wall time.

A fixed block of interpreter work that does not touch the package is
timed next to the ops: once before every op, once after the last, and
every ``INTERVAL_S`` during an op, from a ``SIGALRM`` handler.  Python
runs the handler in the main thread between bytecodes, so those blocks
run on the op's core while the op runs.  Their time is taken out of the
op's time.  The op's time is then scaled by ``REFERENCE_BLOCK_S``
divided by the mean time of the blocks before, during and after it: a
time is reported in seconds at the speed where one block takes
``REFERENCE_BLOCK_S``.  Blocks timed only beside an op, not during it,
missed the level changes within the seconds-long ops.

Because the block is independent of the package, a change that makes
the package slower or faster moves the scaled times by the same share
as the raw ones; only the host's level cancels.  The raw times stay on
the detail line.

The block mixes what the package spends its time on: small tuples,
lists and dicts, and ``Fraction`` elimination.  It runs with the
garbage collector off, so its time does not depend on how many objects
the ops left on the heap.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# About the median time of one block on a 2-vCPU host with Python 3.11.7.
REFERENCE_BLOCK_S = 0.006
# One block per 0.12 s of op time: calibration takes about 5% of a run.
INTERVAL_S = 0.12


def block() -> int:
    """One unit of fixed interpreter work."""
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        table[i % 97, i % 89, i] = [i, -i, (i, i + 1)]
        acc += Fraction(i % 13 + 1, i % 11 + 1)
    rows = [[Fraction((i * j) % 7 - 3, 1 + (i + j) % 5) for j in range(8)] for i in range(8)]
    for c in range(8):
        pivot = next((r for r in range(c, 8) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, 8):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return len(table) + acc.denominator


def calibrate() -> tuple[int, float]:
    """Time one block with the collector off: (1, seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        block()
        return 1, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """While entered, times one block every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.blocks = 0
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        blocks, seconds = calibrate()
        self.blocks += blocks
        self.seconds += seconds

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def sample(self) -> tuple[int, float]:
        return self.blocks, self.seconds


def scaled(seconds: float, *samples: tuple[int, float]) -> float:
    """``seconds`` at the reference speed, from (blocks, seconds) samples."""
    blocks = sum(b for b, _ in samples)
    calibration_s = sum(s for _, s in samples)
    return seconds * blocks * REFERENCE_BLOCK_S / calibration_s

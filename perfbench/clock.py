"""CPU time scaled to a reference machine speed.

On a shared machine the CPU time of identical work drifts, by up to a factor
of two, over spans of seconds: another tenant on the sibling hardware thread
slows every instruction of this process.  A run-length median cannot remove
a slow spell that lasts the whole run, so :class:`Stopwatch` interleaves a
fixed *calibration slice* with the work and scales the CPU time of each unit
by ``REFERENCE_SLICE_S`` over the mean of the slices measured just before and
just after it.  The slice is pure-Python ``Fraction`` arithmetic that does not
touch troprays, so a change to the program cannot change it.

Scaled times read as the CPU seconds the work takes when one slice takes
``REFERENCE_SLICE_S``: the median slice time measured on an unloaded 2-core
x86-64 virtual machine with CPython 3.11.7.
"""

from __future__ import annotations

import resource
import time
from bisect import bisect_right
from fractions import Fraction

REFERENCE_SLICE_S = 0.0014
SLICE_TERMS = 600
SLICE_EVERY_S = 0.025  # CPU seconds of work between slices


def cpu() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_slice() -> float:
    """CPU seconds of one fixed slice of Fraction arithmetic."""
    start = time.process_time()
    total = Fraction(0)
    for i in range(1, SLICE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.process_time() - start


class Stopwatch:
    """Scaled CPU time of each unit of work, listed by part."""

    def __init__(self):
        self._events = []  # (part, raw seconds) for units, (None, seconds) for slices
        self._since_slice = 0.0
        self._start = 0.0
        self._slice()

    def _slice(self):
        self._events.append((None, calibration_slice()))
        self._since_slice = 0.0

    def start(self):
        self._start = cpu()

    def stop(self, part):
        elapsed = cpu() - self._start
        self._events.append((part, elapsed))
        self._since_slice += elapsed
        if self._since_slice >= SLICE_EVERY_S:
            self._slice()

    def parts(self) -> dict:
        """Part -> scaled CPU seconds of each of its units, in order."""
        if self._events[-1][0] is not None:
            self._slice()
        slices = [i for i, (part, _) in enumerate(self._events) if part is None]
        out = {}
        before = 0
        for i, (part, seconds) in enumerate(self._events):
            if part is None:
                before = i
                continue
            after = slices[bisect_right(slices, i)]
            speed = (self._events[before][1] + self._events[after][1]) / 2
            out.setdefault(part, []).append(seconds * REFERENCE_SLICE_S / speed)
        return out

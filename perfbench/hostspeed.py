"""Host-speed reference for the end-to-end times.

On a shared host the speed of the same Python code drifts by 20-40 %
over seconds to minutes (another tenant's load), which is wider than any
bound the benchmark may set.  So every timed body is interleaved with
short slices of a fixed kernel that belongs to the benchmark, not to the
program: plain attribute reads and writes and integer arithmetic on
preallocated objects, no allocation that could make its speed depend on
the program's heap.  The median slice time during a body measures how
fast the host ran *then*; times are reported scaled to the kernel's
reference speed:

    normalized seconds = raw seconds x REFERENCE_S / median slice seconds

A change to the program moves the body, never the kernel, so the scaled
times still show it.  Slice time is excluded from the body's raw time.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Nominal seconds of one kernel slice (roughly its time on this host).
REFERENCE_S = 0.002
_ROUNDS = 110


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self, value: int) -> None:
        self.value = value
        self.count = 0


def _kernel(cells: List[_Cell]) -> int:
    acc = 1
    for _ in range(_ROUNDS):
        for cell in cells:
            acc = (acc * 31 + cell.value) & 0xFFF
            cell.count = acc
            if acc & 1:
                cell.value = acc >> 3
    return acc


class HostSpeed:
    """Kernel slices taken between pieces of one timed body."""

    def __init__(self) -> None:
        self._cells = [_Cell(i) for i in range(128)]
        self.slices: List[float] = []

    def sample(self) -> float:
        """Run one slice; return its seconds (also recorded)."""
        t0 = time.perf_counter()
        _kernel(self._cells)
        seconds = time.perf_counter() - t0
        self.slices.append(seconds)
        return seconds

    def scale(self) -> float:
        """REFERENCE_S over the median slice: > 1 when the host ran fast."""
        return REFERENCE_S / statistics.median(self.slices)

    def normalize(self, seconds: float) -> float:
        return seconds * self.scale()

"""Offending fixture: botched attempts at a scoped DET004 waiver.

A line waiver only covers its own line (the second import still fires),
and an exemption is only as good as the exact code it names (the third
import's waiver names the wrong rule).
"""

import numpy as np  # repro-lint: disable=DET004 - integer SoA only
from numpy import int64  # expect: DET004
import numpy.linalg  # repro-lint: disable=DET003 - wrong code  # expect: DET004


def counters(k: int) -> object:
    return np.zeros(k, dtype=int64)

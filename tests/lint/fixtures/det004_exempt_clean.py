"""Clean fixture: a scoped DET004 waiver, done right.

A kernel-package module may import numpy only under a *line-scoped*
disable naming DET004, with a rationale after `` - `` saying why the use
cannot reach the simulated trajectory.  The import is also optional, so
numpy-less hosts keep working.
"""

try:
    import numpy as np  # repro-lint: disable=DET004 - integer counters only, never fed back into the run
except ImportError:
    np = None

HAVE_NUMPY = np is not None


def counters(k: int) -> object:
    if np is None:
        raise RuntimeError("requires numpy")
    return np.zeros(k, dtype=np.int64)

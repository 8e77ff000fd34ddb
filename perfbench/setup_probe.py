"""Time one workload's set-up in a fresh interpreter; print the seconds.

Set-up runs from this process's first statement through the imports, the
workload's config/spec/job enumeration and the first network build — up
to the first simulated cycle.  ``run.py`` takes the median of several.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import set_up

    set_up(workload, seed)
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper512-sat --seed 7 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric and writes the run's spans to ``.perfbench-out/``.
Human-readable lines go to stderr.  The program under test is imported
from ``src/`` of the checkout that holds this file; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
#: Host-speed slices taken on each side of a set-up probe.
HOST_SLICES = 5


def setup_samples(workload: str, seed: int, n: int = SETUP_SAMPLES) -> List[float]:
    """Time ``n`` fresh-process set-ups (imports through first network build).

    Each is scaled by host-speed slices taken just before and after it.
    """
    from perfbench.hostspeed import HostSpeed

    samples = []
    for _ in range(n):
        host = HostSpeed()
        for _ in range(HOST_SLICES):
            host.sample()
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        for _ in range(HOST_SLICES):
            host.sample()
        samples.append(host.normalize(float(done.stdout.strip().splitlines()[-1])))
    return samples


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics, workloads

    if args.workload not in workloads.WORKLOAD_BODIES:
        parser.error(f"unknown workload {args.workload!r}; choose from {metrics.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    values = {}
    if not args.trace:
        setup = metrics.median_of(setup_samples(args.workload, args.seed))
        values["setup_s"] = setup.value
        print(f"setup_s = {setup}", file=sys.stderr)
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)),
        outcome=metrics.Outcome(),
    )
    try:
        values.update(workloads.WORKLOAD_BODIES[args.workload](ctx))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    if "raw_wall_s" in values:
        print(f"raw wall time (not host-scaled): {values.pop('raw_wall_s'):.6g} s",
              file=sys.stderr)
    outcome = ctx.outcome
    for op, reason in sorted(outcome.failures.items()):
        print(f"FAILED {op}: {reason}", file=sys.stderr)
    if args.trace:
        names = metrics.per_layer_names()
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
        ctx.tracer.dump(out, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    else:
        names = metrics.end_to_end_names()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_frac"] = outcome.ok_frac
    for name in names:
        print(f"{name:32} {values[name]:.6g} {metrics.UNITS[name]}", file=sys.stderr)
    print(f"attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_frac={outcome.failed / max(outcome.attempted, 1):.4g}", file=sys.stderr)
    print(metrics.result_line(outcome, values, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())

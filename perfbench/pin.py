"""Regenerate the pinned correctness references from the current program.

Usage (from the repository root)::

    python3 perfbench/pin.py --seed 7 --seed 1009   # refs/seed-<n>.json
    python3 perfbench/pin.py --verify-cells         # verify_cells.json

Re-pin only in a change that is meant to alter simulated behaviour, and
say so in the change description: the references are what the benchmark
calls correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def pin_seed(seed: int) -> Dict[str, Any]:
    from repro.campaign import CampaignCheckpoint, ResultCache
    from repro.experiments.report import table_to_json
    from repro.experiments.runner import cell_from_stats
    from repro.experiments.tables import regenerate_table
    from repro.network.simulator import Simulator

    from perfbench.workloads import paper512_config

    config, rate = paper512_config(seed)
    sim = Simulator(config)
    stats = sim.run()
    sim.check_invariants()
    with tempfile.TemporaryDirectory() as where:
        table = regenerate_table(
            2,
            full=False,
            seed=seed,
            jobs=1,
            cache=ResultCache(str(Path(where) / "cache")),
            checkpoint=CampaignCheckpoint(str(Path(where) / "manifest.jsonl")),
        )
    return {
        "seed": seed,
        "paper512-sat": asdict(cell_from_stats(stats, rate)),
        "table2-quick": json.loads(table_to_json(table)),
    }


def pin_verify_cells() -> Dict[str, Any]:
    """Verdicts of the slow-tier grid plus the refutation self-test (48 cells)."""
    from repro.verify.checker import explore
    from repro.verify.library import all_cases, refutation_selftest_case

    cases = list(all_cases(slow=True)) + [refutation_selftest_case()]
    return {
        "verdicts": {case.label(): explore(case).verdict for case in cases},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", default=[])
    parser.add_argument("--verify-cells", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    here = Path(__file__).resolve().parent
    for seed in args.seed:
        path = here / "refs" / f"seed-{seed}.json"
        path.write_text(json.dumps(pin_seed(seed), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    if args.verify_cells:
        path = here / "verify_cells.json"
        path.write_text(json.dumps(pin_verify_cells(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

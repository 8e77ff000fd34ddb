#!/usr/bin/env python3
"""Campaign engine walkthrough: parallel and cached table runs.

Runs a small threshold-by-load grid of NDM simulations three ways —
serial, on a two-process pool, and again against a warm on-disk cache —
then interrupts a campaign partway and re-runs it against the same
cache, which resumes it: only the unfinished cells are simulated.  The
point to notice: every variant prints the *same table, byte for byte*,
because jobs carry fully resolved configs (content-hashed) and the
engine reassembles results in canonical cell order.

Run:  python examples/campaign_sweep.py
"""

import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import repro.campaign.executor as executor
from repro.campaign import (
    CampaignCheckpoint,
    ResultCache,
    render_summary,
    run_table_campaign,
    summarize_manifest,
)
from repro.experiments.report import render_table
from repro.experiments.spec import TableSpec, base_config


def small_table() -> TableSpec:
    """A 3-threshold x 2-load slice of Table 2's grid (NDM, uniform)."""
    return TableSpec(
        table_id=2,
        title="NDM, uniform traffic [example slice]",
        mechanism="ndm",
        pattern="uniform",
        sizes=("s",),
        load_fractions=(0.857, 1.0),
        paper_rates=(0.514, 0.600),
        thresholds=(8, 32, 128),
        saturated_loads=(1,),
    )


def small_base():
    base = base_config(full=False)
    base.radix = 4  # 16 nodes keeps the example quick
    base.warmup_cycles = 200
    base.measure_cycles = 1000
    return base


def timed(label, **kwargs):
    start = time.perf_counter()
    result = run_table_campaign(small_table(), small_base(),
                                saturation=0.45, **kwargs)
    print(f"{label}: {time.perf_counter() - start:.2f}s")
    return result


@contextmanager
def ctrl_c_after(cells: int):
    """Stand-in for Ctrl-C: the campaign dies once ``cells`` have run."""
    run_cell = executor._execute_payload
    ran = []

    def run_or_interrupt(payload):
        if len(ran) == cells:
            raise KeyboardInterrupt
        ran.append(payload["key"])
        return run_cell(payload)

    executor._execute_payload = run_or_interrupt
    try:
        yield
    except KeyboardInterrupt:
        print(f"interrupted     (Ctrl-C)    : after {cells} cells")
    finally:
        executor._execute_payload = run_cell


def main() -> None:
    serial = timed("serial run      (--jobs 1)")
    pooled = timed("process pool    (--jobs 2)", num_workers=2)
    assert render_table(pooled) == render_table(serial)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = timed("cold cache      (populates) ", num_workers=2,
                     cache=cache)
        warm_cache = ResultCache(tmp)
        warm = timed("warm cache      (100% hits) ", num_workers=2,
                     cache=warm_cache)
        print(f"  second run served {warm_cache.hits}/{warm_cache.hits + warm_cache.misses} "
              "cells from the cache")
        assert render_table(cold) == render_table(serial)
        assert render_table(warm) == render_table(serial)

    with tempfile.TemporaryDirectory() as tmp:
        # An interrupted campaign keeps every finished cell in its cache;
        # re-running the same campaign against that cache resumes it.
        with ctrl_c_after(2):
            run_table_campaign(small_table(), small_base(), saturation=0.45,
                               cache=ResultCache(tmp))
        manifest = Path(tmp) / "manifest.jsonl"
        rerun_cache = ResultCache(tmp)
        resumed = timed("re-run          (same cache)", cache=rerun_cache,
                        checkpoint=CampaignCheckpoint(manifest))
        print(f"  re-run served {rerun_cache.hits} cells from the cache and "
              f"simulated {rerun_cache.misses}")
        assert render_table(resumed) == render_table(serial)

        print("\ncampaign summary of the re-run " + "-" * 29)
        print(render_summary(summarize_manifest(manifest)))

    print("\n" + render_table(serial))
    print("\nall five runs produced this table byte-identically")


if __name__ == "__main__":
    main()

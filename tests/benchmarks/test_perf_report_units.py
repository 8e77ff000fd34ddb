"""Unit tests for the perf-harness plumbing (no timed simulation runs).

Covers the baseline-selection rules (same-host preference, quick/full
separation), the regression-comparison guards, and the probe-overhead
noise-band contract — the logic bugs that made committed ``BENCH_kernel``
entries compare a v19-kernel host against a v20 one and flag a -2.3%
"overhead" as meaningful.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def perf_report():
    spec = importlib.util.spec_from_file_location(
        "perf_report", REPO_ROOT / "benchmarks" / "perf_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_report", module)
    spec.loader.exec_module(module)
    return module


def _entry(quick=True, host=True, stamp="2026-01-01", headline=None):
    return {
        "timestamp": stamp,
        "quick": quick,
        "python": platform.python_version() if host else "3.0.0",
        "platform": platform.platform() if host else "Linux-other-host",
        "headline": headline or {},
    }


def _write(tmp_path, entries):
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


class TestLoadBaseline:
    def test_missing_file_is_none(self, perf_report, tmp_path):
        assert perf_report.load_baseline(tmp_path / "nope.json", True) is None

    def test_prefers_newest_same_host_entry(self, perf_report, tmp_path):
        path = _write(
            tmp_path,
            [
                _entry(host=True, stamp="old"),
                _entry(host=False, stamp="foreign"),
                _entry(host=True, stamp="new"),
            ],
        )
        baseline = perf_report.load_baseline(path, True)
        assert baseline["same_host"] is True
        assert baseline["entry"]["timestamp"] == "new"

    def test_same_host_beats_newer_foreign_entry(self, perf_report, tmp_path):
        """The committed trajectory mixes machines; a same-host entry is
        the regression baseline even when a foreign one is newer."""
        path = _write(
            tmp_path,
            [_entry(host=True, stamp="mine"), _entry(host=False, stamp="new")],
        )
        baseline = perf_report.load_baseline(path, True)
        assert baseline["same_host"] is True
        assert baseline["entry"]["timestamp"] == "mine"

    def test_cross_platform_fallback_flagged(self, perf_report, tmp_path):
        path = _write(tmp_path, [_entry(host=False)])
        baseline = perf_report.load_baseline(path, True)
        assert baseline["same_host"] is False

    def test_quick_and_full_never_mix(self, perf_report, tmp_path):
        path = _write(tmp_path, [_entry(quick=False, host=True)])
        assert perf_report.load_baseline(path, True) is None
        assert perf_report.load_baseline(path, False)["same_host"] is True


class TestCompareToBaseline:
    def test_regression_flagged(self, perf_report):
        headline = {"r": {"scan": 80.0, "event": 100.0, "speedup": 1.2}}
        base = _entry(headline={"r": {"scan": 100.0, "event": 100.0}})
        warnings = perf_report.compare_to_baseline(headline, base)
        assert len(warnings) == 1
        assert "r/scan" in warnings[0]

    def test_missing_engine_keys_ignored(self, perf_report):
        """A hand-edited or differently-shaped entry must not crash the
        comparison — the recorded batch-campaign entries have no scan/event
        keys at all."""
        headline = {
            "r": {"event": 100.0},
            "batch-campaign": {"speedup": 6.0, "cells": 8},
        }
        base = _entry(
            headline={
                "r": {"scan": 100.0},
                "batch-campaign": {"speedup": 6.1},
            }
        )
        assert perf_report.compare_to_baseline(headline, base) == []

    def test_recorded_batch_campaign_keys_not_compared(self, perf_report):
        """Entries recorded before the batch backend was deleted still
        carry ``batch-campaign`` speedups; a drop between two of them is
        not a regression of anything the harness still measures."""
        headline = {"batch-campaign": {"speedup": 5.0}}
        base = _entry(headline={"batch-campaign": {"speedup": 8.0}})
        assert perf_report.compare_to_baseline(headline, base) == []


class TestProbeOverheadBand:
    def test_band_constants_and_shape(self, perf_report):
        """The recorded datapoint carries the noise band; the budget
        check uses the band's lower edge (a negative median — seen in
        committed entries at -2.3% — is noise, not a speedup claim)."""
        assert perf_report.PROBE_OVERHEAD_TOLERANCE == 0.05
        # Contract sanity on a synthetic result shaped like the bench.
        ratios = sorted([0.977, 1.01, 1.099])
        overhead = ratios[len(ratios) // 2] - 1.0
        low, high = ratios[0] - 1.0, ratios[-1] - 1.0
        assert low <= overhead <= high
        assert low < 0 < high  # the noisy regime: band straddles zero
        assert not low > perf_report.PROBE_OVERHEAD_TOLERANCE

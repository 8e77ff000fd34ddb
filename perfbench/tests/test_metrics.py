"""Metric naming and units, the result line and the median helper."""

import json
import re

import pytest

from perfbench import metrics
from perfbench.tests.conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_registry():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(row) for row in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(row) for row in metrics.PER_LAYER]


def test_names_and_units_follow_the_format():
    names = [row[0] for row in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    assert 1 <= len(metrics.PER_LAYER) <= 128


def test_setup_has_the_largest_bound_and_bounds_are_shares():
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    assert 0 < min(bounds.values()) and max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert ("setup_s", "s", "lower") == metrics.END_TO_END[2][:3]


def test_time_metrics_use_seconds():
    for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        if name.endswith(".s") or (name.endswith("_s") and not name.endswith("_per_s")):
            assert unit == "s", name


def test_result_line_has_exactly_the_contract_keys():
    outcome = metrics.Outcome()
    outcome.attempt(4)
    outcome.fail("a", "boom")
    line = json.loads(metrics.result_line(outcome, {"wall_s": 1.5}, ["wall_s"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line == {
        "correct": False,
        "attempted": 4,
        "failed": 1,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
    }


def test_result_line_refuses_a_missing_metric():
    outcome = metrics.Outcome()
    outcome.attempt()
    with pytest.raises(KeyError, match="cycles_per_s"):
        metrics.result_line(outcome, {"wall_s": 1.0}, ["wall_s", "cycles_per_s"])


def test_median_states_its_sample_count():
    assert metrics.median_of([3.0, 1.0, 2.0]) == metrics.Median(2.0, 3)
    assert metrics.median_of([4.0, 1.0]) == metrics.Median(2.5, 2)
    assert str(metrics.median_of([1.0])) == "1 (median of 1)"
    with pytest.raises(ValueError):
        metrics.median_of([])


def test_host_scaling_uses_the_median_slice():
    from perfbench.hostspeed import REFERENCE_S, HostSpeed

    host = HostSpeed()
    host.slices = [REFERENCE_S * 2, REFERENCE_S * 4, REFERENCE_S * 100]
    # The host ran 4x slower than the reference: 8 raw seconds are 2 scaled.
    assert host.normalize(8.0) == pytest.approx(2.0)
    host.sample()
    assert len(host.slices) == 4 and host.slices[-1] > 0

"""Span nesting, cell ids and self-time accounting of the tracer."""

import json

import pytest

from perfbench.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_spans_nest_and_share_their_cell_id(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.region("workload", span=True, cell=tracer.new_cell("w")):
        for label in ("a", "b"):
            with tracer.region("cell", span=True, cell=tracer.new_cell(label)):
                with tracer.region("network.build", span=True):
                    pass
                tracer.wrap("core.on_vc_released", lambda: None)()
                with tracer.region("network.run", span=True):
                    pass
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    assert [s["name"] for s in spans] == [
        "workload", "cell", "network.build", "network.run",
        "cell", "network.build", "network.run",
    ]
    for span in spans:
        if span["parent"] == -1:
            assert span["name"] == "workload"
            continue
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] < span["end"] <= parent["end"]
        if span["name"] != "cell":
            assert span["cell"] == parent["cell"]
    cells = [s["cell"] for s in spans if s["name"] == "cell"]
    assert len(set(cells)) == 2
    # Per-call regions are aggregated, never recorded as spans.
    assert tracer.calls["core.on_vc_released"] == 2
    out = tmp_path / "t.json"
    tracer.dump(out, {"workload": "x"})
    assert json.loads(out.read_text())["spans"] == spans


def test_self_time_goes_to_the_layer_and_excludes_children():
    tracer = Tracer(clock=FakeClock())
    with tracer.region("workload", span=True):  # opens at 1
        with tracer.region("campaign.execute_jobs"):  # 2
            tracer.wrap("campaign.cache_get", lambda: None)()  # 3..4
        # closes at 5: 3 s, 1 of them in cache_get
    # workload closes at 6: 5 s, 3 of them in execute_jobs
    assert tracer.seconds["campaign.execute_jobs"] == 3.0
    assert tracer.layer_self["campaign"] == 3.0
    assert tracer.layer_self["workload"] == 2.0


def test_attribute_replaces_a_regions_own_time():
    tracer = Tracer(clock=FakeClock())
    with tracer.region("network.run") as frame:  # 1 .. 4
        tracer.wrap("core.hook", lambda: None)()  # 2..3
        tracer.attribute(frame, 2.5)
    assert tracer.seconds["network.run"] == 3.0
    assert tracer.layer_self["core"] == 1.0
    assert tracer.layer_self["network"] == 1.5  # 2.5 attributed - 1 in core


def test_regions_must_close_in_order():
    tracer = Tracer(clock=FakeClock())
    outer = tracer._open("a", False, None)
    tracer._open("b", False, None)
    with pytest.raises(RuntimeError, match="out of order"):
        tracer._close(outer)

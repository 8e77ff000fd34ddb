"""Tests for the channel wait-for graph."""

import sys

import pytest

from repro.analysis.deadlock import waiting_chain
from repro.analysis.waitgraph import (
    build_wait_graph,
    describe_deadlock,
    tree_depth_histogram,
)
from repro.figures.scenarios import build_figure2, build_figure3
from repro.network.config import SimulationConfig
from repro.network.probes import wait_edges
from repro.network.simulator import Simulator


class TestBuildWaitGraph:
    def test_empty_when_nothing_blocked(self):
        scenario = build_figure2("none")
        scenario.sim.free_worm(scenario.messages["B"], scenario.sim.cycle)
        scenario.sim.free_worm(scenario.messages["C"], scenario.sim.cycle)
        scenario.sim.free_worm(scenario.messages["D"], scenario.sim.cycle)
        graph = build_wait_graph([])
        assert graph.blocked_count() == 0

    def test_figure2_chain_structure(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        names = {m.id: n for n, m in scenario.messages.items()}
        b = scenario.messages["B"]
        c = scenario.messages["C"]
        d = scenario.messages["D"]
        assert graph.holders_of(c) == {b.id}
        assert graph.holders_of(d) == {c.id}
        assert graph.holders_of(b) == {scenario.messages["A"].id}
        assert names  # names resolvable

    def test_figure3_cycle_structure(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        b = scenario.messages["B"]
        e = scenario.messages["E"]
        assert graph.holders_of(b) == {e.id}

    def test_free_alternatives_counted(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        # Single-VC scenario channels: no free alternatives anywhere.
        assert all(v == 0 for v in graph.free_alternatives.values())


class TestCycleAnalysis:
    def test_no_cycle_in_figure2(self):
        pytest.importorskip("networkx")
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        assert graph.candidate_cycles() == []
        assert graph.knot_members() == set()

    def test_cycle_found_in_figure3(self):
        pytest.importorskip("networkx")
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        cycles = graph.candidate_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 4

    def test_knot_matches_fixpoint(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        expected = {m.id for n, m in scenario.messages.items() if n != "A"}
        assert graph.knot_members() == expected

    def test_networkx_graph_shape(self):
        pytest.importorskip("networkx")
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages).to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 4

    def test_missing_networkx_is_a_clear_error(self, monkeypatch):
        # A None entry makes ``import networkx`` raise ImportError.
        monkeypatch.setitem(sys.modules, "networkx", None)
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        with pytest.raises(RuntimeError, match="networkx is not available"):
            graph.candidate_cycles()
        # The fixpoint oracle needs no networkx.
        assert len(graph.knot_members()) == 4


class TestDiagnostics:
    def test_describe_deadlock_lines(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        names = {m.id: n for n, m in scenario.messages.items()}
        lines = describe_deadlock(graph, names)
        assert len(lines) == 4
        assert any("B" in line and "waits on" in line for line in lines)

    def test_tree_depth_histogram_chain(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        histogram = tree_depth_histogram(graph)
        # D->C->B chain: depths 0 (B: holder A not blocked), 1 (C), 2 (D).
        assert histogram == {0: 1, 1: 1, 2: 1}

    def test_tree_depth_histogram_cycle_saturates(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        histogram = tree_depth_histogram(graph)
        assert histogram == {3: 4}  # each member sees the 3 others


class TestVirtualChannelClasses:
    """Under Duato routing a blocked header may use only some lanes of a
    feasible channel (``Message.feasible_vcs``); the graph must walk
    exactly those, as the probe transport and the oracle do."""

    @staticmethod
    def duato_samples():
        config = SimulationConfig(
            radix=4,
            dimensions=2,
            warmup_cycles=0,
            measure_cycles=10,
            seed=3,
            ground_truth_interval=0,
        )
        config.routing = "duato-adaptive"
        config.traffic.injection_rate = 0.9
        config.traffic.lengths = "l"
        config.detector.mechanism = "none"
        config.recovery = "none"
        sim = Simulator(config)
        for cycle in range(1, 1501):
            sim.step()
            if cycle % 50 == 0:
                yield build_wait_graph(sim.active_messages)

    def test_matches_probe_wait_edges(self):
        samples = restricted = 0
        for graph in self.duato_samples():
            for message_id, m in graph.messages.items():
                samples += 1
                restricted += m.feasible_vcs is not None
                escape, edges = wait_edges(m)
                assert (graph.free_alternatives[message_id] > 0) == escape
                if escape:
                    continue
                assert [
                    (e.channel_index, e.vc_index, e.holder)
                    for e in graph.edges[message_id]
                ] == edges
                holder = edges[0][2] if edges else None
                chain = waiting_chain(m, limit=1)
                assert chain[1:] == ([] if holder is None else [holder])
        assert samples > 100
        assert restricted > 0  # the lane classes were in play

"""Tests for the channel wait-for graph."""

import sys

import pytest

from repro.analysis.waitgraph import (
    build_wait_graph,
    describe_deadlock,
    tree_depth_histogram,
)
from repro.figures.scenarios import build_figure2, build_figure3


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

"""Property-based consistency between the wait graph and the fixpoint oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.deadlock import find_deadlocked
from repro.analysis.waitgraph import build_wait_graph
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "rate": st.floats(min_value=0.2, max_value=0.9),
        "vcs": st.integers(min_value=1, max_value=3),
        "cycles": st.integers(min_value=100, max_value=400),
    }
)


def build_sim(params) -> Simulator:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=params["vcs"],
        warmup_cycles=0,
        measure_cycles=10,
        seed=params["seed"],
        ground_truth_interval=0,
    )
    config.traffic.injection_rate = params["rate"]
    config.detector.mechanism = "none"
    config.recovery = "none"
    sim = Simulator(config)
    for _ in range(params["cycles"]):
        sim.step()
    return sim


class TestWaitGraphProperties:
    @given(params_strategy)
    @SLOW
    def test_knot_equals_fixpoint(self, params):
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        fixpoint_ids = {m.id for m in find_deadlocked(sim.active_messages)}
        assert graph.knot_members() == fixpoint_ids

    @given(params_strategy)
    @SLOW
    def test_knot_members_have_no_free_alternatives(self, params):
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        for message_id in graph.knot_members():
            assert graph.free_alternatives[message_id] == 0

    @given(params_strategy)
    @SLOW
    def test_edges_point_at_real_occupants(self, params):
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        for edges in graph.edges.values():
            for edge in edges:
                pc = sim.channels[edge.channel_index]
                assert pc.vcs[edge.vc_index].occupant is edge.holder

    @given(params_strategy)
    @SLOW
    def test_knot_is_cyclic_in_graph(self, params):
        """Every nonempty knot contains at least one directed cycle."""
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        knot = graph.knot_members()
        if not knot:
            return
        networkx = pytest.importorskip("networkx")
        digraph = graph.to_networkx().subgraph(knot)
        assert not networkx.is_directed_acyclic_graph(digraph)

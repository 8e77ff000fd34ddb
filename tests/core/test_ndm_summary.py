"""The NDM's per-router "all inputs are G" summary.

The simple promotion rule fires on every flit that clears a set I flag
and promotes every P input of the router.  Once the hook has run, the
router's summary box says every input and injection channel is G; every
P write clears it again, and while it is set an I-flag reset skips the
hook.  ``Simulator.check_invariants`` asserts the box never lies.
"""

import pytest

from repro.experiments.spec import base_config
from repro.network.simulator import Simulator
from repro.network.types import GPState
from repro.verify.recording import RecordingNDM


def saturated_config(**overrides):
    """Quick Table 2 regime at saturation: NDM Th=8, ``sl`` lengths."""
    config = base_config(full=False)
    config.seed = 11
    config.traffic.injection_rate = 0.738
    config.traffic.lengths = "sl"
    config.detector.mechanism = "ndm"
    config.detector.threshold = 8
    config.warmup_cycles = 0
    config.measure_cycles = 600
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def clean_routers(sim):
    """Router nodes whose summary box is currently set."""
    return {router.node for router in sim.routers if router.all_g[0]}


def step_checking(sim, cycles, every=50):
    """Step ``sim``; check invariants every ``every`` cycles.

    Returns how many checkpoints saw at least one clean router.
    """
    seen_clean = 0
    for cycle in range(1, cycles + 1):
        sim.step()
        if cycle % every == 0:
            sim.check_invariants()
            if clean_routers(sim):
                seen_clean += 1
    return seen_clean


class TestRouterSummary:
    def test_boxes_shared_per_router(self):
        sim = Simulator(saturated_config())
        for router in sim.routers:
            box = router.all_g
            for pc in router.header_input_pcs():
                assert pc.dst_all_g is box
            for pc in router.output_pc_list + router.ejection_pcs:
                assert pc.src_all_g is box
            assert box == [False]

    def test_invariant_holds_while_saturated(self):
        sim = Simulator(saturated_config())
        seen_clean = step_checking(sim, 600)
        assert sim.stats.detections > 0
        # The check is not vacuous: routers are marked clean at saturation.
        assert seen_clean > 0

    def test_invariant_holds_with_faults_and_crossbar_limit(self):
        config = saturated_config(
            crossbar_input_limit=True,
            faults=[
                {"kind": "link-down", "start": 50, "end": 200, "channel": 5},
                {"kind": "counter-lag", "start": 80, "end": 81,
                 "channel": 9, "lag": 6},
            ],
        )
        assert step_checking(Simulator(config), 400) > 0

    def test_stale_summary_detected(self):
        sim = Simulator(saturated_config())
        for _ in range(400):
            sim.step()
            if clean_routers(sim):
                break
        node = min(clean_routers(sim))
        victim = sim.routers[node].input_pcs[0]
        assert victim.gp is GPState.GENERATE
        victim.gp = GPState.PROPAGATE  # a P write that bypasses the NDM
        with pytest.raises(AssertionError, match="all-G"):
            sim.check_invariants()


class TestHooksThatMustNotUseTheSummary:
    """Variants whose reset hook must run on every I-flag reset."""

    def test_selective_variant_never_sets_summary(self):
        config = saturated_config()
        config.detector.selective_promotion = True
        assert step_checking(Simulator(config), 300) == 0

    def test_recording_ndm_never_sets_summary(self):
        sim = Simulator(saturated_config(), detector=RecordingNDM(8))
        assert step_checking(sim, 300) == 0

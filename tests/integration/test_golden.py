"""Golden-run regression: pin the exact behaviour of a fixed-seed run.

A cycle-accurate simulator's value rests on its behaviour being stable
under refactoring.  This test replays a fixed scenario (seeded, pure-
Python RNG path) and compares a digest of the full event stream against a
recorded value.  If an intentional model change breaks it, re-record by
running the test with ``--update-golden`` semantics: print the new digest
(shown in the assertion message) and update the constant.
"""

import hashlib
import json

import pytest

from repro.experiments.spec import base_config
from repro.network.simulator import Simulator
from repro.network.tracing import Tracer
from tests.conftest import small_config

#: sha256 over the traced event stream of the fixed run below.
GOLDEN_DIGEST = (
    "c7d186f1599a4d4fe6dbf2ec47a5d35ee74cd0422339a79f8bc0eb13a4bcb198"
)


def fixed_run():
    config = small_config(seed=424242)
    config.traffic.injection_rate = 0.35
    config.traffic.lengths = "sl"
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    config.warmup_cycles = 0
    config.measure_cycles = 600
    sim = Simulator(config)
    sim._gen_rng = None  # force the pure-Python generation path
    sim.tracer = Tracer(capacity=0)
    sim.run()
    return sim


def digest_of(sim) -> str:
    payload = "\n".join(repr(e) for e in sim.tracer.events)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenRun:
    def test_event_stream_reproducible_within_session(self):
        a, b = fixed_run(), fixed_run()
        assert digest_of(a) == digest_of(b)

    def test_event_stream_matches_golden_digest(self):
        sim = fixed_run()
        digest = digest_of(sim)
        assert digest == GOLDEN_DIGEST, (
            "behaviour of the fixed-seed run changed; if intentional, "
            f"update GOLDEN_DIGEST to {digest!r}"
        )

    def test_event_stream_stats_stable(self):
        """Coarse golden values: these pin the run's aggregate behaviour
        (update deliberately if the model changes)."""
        sim = fixed_run()
        stats = sim.stats
        assert stats.generated == 93
        assert stats.injected == 93
        assert stats.delivered == 79
        assert stats.detections == 0

    def test_event_ordering_causal(self):
        sim = fixed_run()
        for message_id in range(0, sim._next_message_id, 7):
            kinds = sim.tracer.lifecycle(message_id)
            if "deliver" in kinds and "inject" in kinds:
                assert kinds.index("inject") < kinds.index("deliver")


# ----------------------------------------------------------------------
# Paper-regime golden runs
# ----------------------------------------------------------------------
# The run above never detects and never recovers, so it cannot see a
# change in the NDM hooks or in the flit-movement path the tables spend
# their time in.  The runs below use the quick Table 2 regime instead:
# the saturated 8-ary 2-cube, 3 VCs, fully adaptive routing, ``sl``
# lengths, progressive recovery and NDM Th=8.  Each variant pins the
# sha256 of the behavioural stats plus the full traced event stream.

#: Variant name -> sha256 of its stats dict and traced event stream.
PAPER_REGIME_DIGESTS = {
    "simple": "30c0e21eef665b1fa7f1c3e4d57b4161496ff9faa2a984666f2eb84572684d56",
    "selective": "62a4c3da93f3632ea1be283c253677e37fdf0e02962ec7d5a2c6ef5a818dd9f6",
    "crossbar": "fed005c85902ced7261f937766d21a536d5fe8988d5d1504588b462cb70e866c",
    "faults": "fd242e5340fae1dacd2d765ece0a0d8c4ade05ceb1381887cf836b86548dc311",
}

#: One link-down and one stuck-lane window on network channels.
_FAULT_WINDOWS = [
    {"kind": "link-down", "start": 100, "end": 250, "channel": 5},
    {"kind": "vc-stuck", "start": 120, "end": 300, "channel": 17, "lane": 1},
]


def paper_regime_config(variant: str):
    config = base_config(full=False)
    config.seed = 2024
    config.traffic.injection_rate = 0.738  # calibrated quick saturation
    config.traffic.lengths = "sl"
    config.detector.mechanism = "ndm"
    config.detector.threshold = 8
    config.warmup_cycles = 0
    config.measure_cycles = 1000
    if variant == "selective":
        config.detector.selective_promotion = True
    elif variant == "crossbar":
        config.crossbar_input_limit = True
    elif variant == "faults":
        config.faults = [dict(w) for w in _FAULT_WINDOWS]
    else:
        assert variant == "simple", variant
    return config


def paper_regime_run(variant: str) -> Simulator:
    sim = Simulator(paper_regime_config(variant))
    sim.tracer = Tracer(capacity=0)
    sim.run()
    return sim


def paper_regime_digest(sim) -> str:
    h = hashlib.sha256()
    h.update(
        json.dumps(sim.stats.to_dict(include_perf=False), sort_keys=True).encode()
    )
    for event in sim.tracer.events:
        h.update(b"\n")
        h.update(repr(event).encode())
    return h.hexdigest()


class TestPaperRegimeGolden:
    @pytest.mark.parametrize("variant", sorted(PAPER_REGIME_DIGESTS))
    def test_matches_golden_digest(self, variant):
        sim = paper_regime_run(variant)
        # The run must exercise detection and recovery, or it pins
        # nothing the recovery-free run above does not.
        assert sim.stats.detections > 0
        assert sim.stats.recoveries > 0
        sim.check_invariants()
        digest = paper_regime_digest(sim)
        assert digest == PAPER_REGIME_DIGESTS[variant], (
            f"behaviour of the paper-regime {variant!r} run changed; if "
            f"intentional, update PAPER_REGIME_DIGESTS[{variant!r}] to "
            f"{digest!r}"
        )

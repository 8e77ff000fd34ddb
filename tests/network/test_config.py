"""Tests for simulation configuration and validation."""

import pytest

from repro.network.config import (
    DetectorConfig,
    SimulationConfig,
    TrafficConfig,
    paper_config,
    quick_config,
)
from repro.network.topology import KAryNCube, Mesh


class TestDefaults:
    def test_defaults_match_paper_model(self):
        config = SimulationConfig()
        assert config.vcs_per_channel == 3
        assert config.buffer_depth == 4
        assert config.routing == "fully-adaptive"
        assert config.detector.t1 == 1

    def test_paper_config_is_512_nodes(self):
        assert paper_config().build_topology().num_nodes == 512

    def test_quick_config_is_64_nodes(self):
        assert quick_config().build_topology().num_nodes == 64

    def test_default_validates(self):
        SimulationConfig().validate()


class TestTopologyBuilding:
    def test_builds_torus(self):
        assert isinstance(SimulationConfig(topology="torus").build_topology(), KAryNCube)

    def test_builds_mesh(self):
        assert isinstance(SimulationConfig(topology="mesh").build_topology(), Mesh)

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SimulationConfig(topology="hypercube").build_topology()


class TestInjectionLimit:
    def test_fraction_computes_floor(self):
        config = SimulationConfig(injection_limit_fraction=0.5)
        assert config.injection_limit(18) == 9

    def test_none_disables(self):
        config = SimulationConfig(injection_limit_fraction=None)
        assert config.injection_limit(18) is None

    def test_invalid_fraction_raises(self):
        config = SimulationConfig(injection_limit_fraction=1.5)
        with pytest.raises(ValueError):
            config.injection_limit(18)

    def test_zero_fraction_raises(self):
        config = SimulationConfig(injection_limit_fraction=0.0)
        with pytest.raises(ValueError):
            config.injection_limit(18)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("vcs_per_channel", 0),
            ("buffer_depth", 0),
            ("injection_ports", 0),
            ("ejection_ports", 0),
            ("warmup_cycles", -1),
            ("measure_cycles", 0),
            ("recovery", "teleport"),
            ("engine", "batch"),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        config = SimulationConfig()
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_removed_engine_in_stored_config_fails_loudly(self):
        # A config dict from an older cache or manifest must not run
        # under a silently different engine.
        payload = SimulationConfig().to_dict()
        payload["engine"] = "batch"
        with pytest.raises(ValueError, match="'event' or 'scan'"):
            SimulationConfig.from_dict(payload)

    def test_negative_rate_rejected(self):
        config = SimulationConfig()
        config.traffic.injection_rate = -0.1
        with pytest.raises(ValueError):
            config.validate()

    def test_zero_threshold_rejected(self):
        config = SimulationConfig()
        config.detector.threshold = 0
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "recovery", ["progressive", "progressive-reinject", "regressive", "none"]
    )
    def test_all_recovery_schemes_accepted(self, recovery):
        SimulationConfig(recovery=recovery).validate()


class TestReplace:
    def test_replace_changes_field(self):
        clone = SimulationConfig().replace(radix=4)
        assert clone.radix == 4

    def test_replace_deep_copies_traffic(self):
        config = SimulationConfig()
        clone = config.replace()
        clone.traffic.injection_rate = 0.9
        clone.traffic.pattern_params["radius"] = 2
        assert config.traffic.injection_rate != 0.9
        assert "radius" not in config.traffic.pattern_params

    def test_replace_deep_copies_detector(self):
        config = SimulationConfig()
        clone = config.replace()
        clone.detector.threshold = 999
        assert config.detector.threshold != 999


class TestSubConfigs:
    def test_traffic_defaults(self):
        traffic = TrafficConfig()
        assert traffic.pattern == "uniform"
        assert traffic.lengths == "s"

    def test_detector_defaults(self):
        detector = DetectorConfig()
        assert detector.mechanism == "ndm"
        assert detector.threshold == 32
        assert not detector.selective_promotion


class TestSerialization:
    def test_round_trip(self):
        config = SimulationConfig(radix=8, dimensions=3, seed=42)
        config.traffic.pattern = "hot-spot"
        config.traffic.pattern_params = {"fraction": 0.05}
        config.detector.mechanism = "pdm"
        config.detector.threshold = 128
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_serializable(self):
        import json

        payload = json.dumps(SimulationConfig().to_dict())
        rebuilt = SimulationConfig.from_dict(json.loads(payload))
        assert rebuilt.radix == SimulationConfig().radix

    def test_from_dict_validates(self):
        payload = SimulationConfig().to_dict()
        payload["vcs_per_channel"] = 0
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(payload)

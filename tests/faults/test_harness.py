"""Conformance-harness plumbing: report shape, caching, CLI entry point."""

import json

import pytest

from repro.faults import cli as faults_cli
from repro.faults.conformance import (
    graded_run,
    make_cases,
    quick_base_config,
    run_conformance,
)


def small_run(**kwargs):
    base = quick_base_config()
    base.measure_cycles = 200
    base.drain_cycles = 400
    return run_conformance(
        base_config=base,
        cases=make_cases(base, 2),
        detectors=("ndm",),
        **kwargs,
    )


class TestReport:
    def test_engines_match_and_shape(self):
        report = small_run()
        assert report["engines_match"] is True
        (entry,) = report["detectors"].values()
        assert len(entry["cases"]) == 2
        for case in entry["cases"]:
            assert case["engines_match"] is True
            assert case["true_positives"] >= 0
            assert case["false_positives"] >= 0
        totals = entry["totals"]
        assert totals["true_positives"] == sum(
            c["true_positives"] for c in entry["cases"]
        )

    def test_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = small_run(cache_dir=cache_dir)
        second = small_run(cache_dir=cache_dir)  # all cells from cache
        assert first == second

    def test_manifest_records_every_cell(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        small_run(manifest_path=str(manifest))
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if line.strip()
        ]
        cells = [r for r in records if r.get("kind") == "cell"]
        # 1 detector x 2 schedules x 2 engines
        assert len(cells) == 4
        assert {c["key"].rsplit("/", 1)[1] for c in cells} == {"scan", "event"}


class TestGradedRun:
    def test_rejects_config_without_event_classification(self):
        import pytest

        config = quick_base_config()
        config.ground_truth_on_detection = False
        with pytest.raises(ValueError, match="ground_truth_on_detection"):
            graded_run(config)

    def test_oracle_fields_flow_into_stats_dict(self):
        base = quick_base_config()
        base.measure_cycles = 200
        base.drain_cycles = 400
        config = base.replace(seed=1, faults=[
            {"kind": "link-down", "start": 10, "end": 120, "channel": 2,
             "lane": None, "node": None, "lag": 0},
        ])
        stats, digest = graded_run(config)
        payload = stats.to_dict(include_perf=False)
        assert payload["fault_edges"] == stats.fault_edges == 2
        assert "oracle_true_positive_events" in payload
        assert len(digest) == 64


class TestCli:
    def test_conformance_quick_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = faults_cli.main(
            [
                "conformance",
                "--quick",
                "--schedules", "1",
                "--detectors", "ndm",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["engines_match"] is True
        assert "ndm" in report["detectors"]
        stdout = capsys.readouterr().out
        assert "engine digests match: True" in stdout

    def test_conformance_rejects_unknown_detector(self):
        with pytest.raises(SystemExit) as excinfo:
            faults_cli.main(
                [
                    "conformance",
                    "--quick",
                    "--schedules", "1",
                    "--detectors", "ndm,bogus",
                ]
            )
        message = str(excinfo.value)
        assert "bogus" in message
        assert "ndm" in message  # valid choices listed

    def test_conformance_rejects_empty_detector_list(self):
        with pytest.raises(SystemExit, match="at least one"):
            faults_cli.main(
                ["conformance", "--quick", "--detectors", " , "]
            )

    def test_conformance_accepts_probe_detector_name(self):
        # Validation must accept every registered name, including the
        # probe family added by this PR (parse only — no run here).
        from repro.faults.cli import parse_detectors

        assert parse_detectors("probe,ndm") == ["probe", "ndm"]

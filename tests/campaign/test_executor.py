"""Tests for the campaign executor: serial/pool determinism, cache, manifest."""

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint, summarize_manifest
from repro.campaign.engine import run_table_campaign
from repro.campaign.executor import execute_jobs
from repro.campaign.jobs import enumerate_table_jobs
from repro.experiments.report import table_to_json
from repro.experiments.runner import run_cell
from tests.campaign.conftest import tiny_base, tiny_spec


def tiny_jobs(spec=None, base=None):
    _, jobs = enumerate_table_jobs(
        spec or tiny_spec(), base or tiny_base(), saturation=1.0
    )
    return jobs


class TestDeterminism:
    def test_serial_matches_direct_run_cell(self):
        """The executor path (stats round-trip included) is bit-identical
        to calling ``run_cell`` directly."""
        spec, base = tiny_spec(), tiny_base()
        jobs = tiny_jobs(spec, base)
        outcomes = execute_jobs(jobs, num_workers=1)
        for job in jobs:
            direct = run_cell(base, spec, job.threshold, job.size, job.rate)
            assert outcomes[job.key].cell == direct, job.key

    def test_serial_and_pool_paths_identical(self):
        """Regression guard for the parallel refactor: identical config +
        seed must yield identical ``CellResult`` on both paths."""
        jobs = tiny_jobs()
        serial = execute_jobs(jobs, num_workers=1)
        pooled = execute_jobs(jobs, num_workers=2)
        assert set(serial) == set(pooled)
        for key in serial:
            assert serial[key].cell == pooled[key].cell, key

    def test_repeated_serial_runs_identical(self):
        jobs = tiny_jobs()
        first = execute_jobs(jobs, num_workers=1)
        second = execute_jobs(jobs, num_workers=1)
        for key in first:
            assert first[key].cell == second[key].cell


class TestProgressAndTelemetry:
    def test_progress_counts_every_job(self):
        jobs = tiny_jobs()
        seen = []
        execute_jobs(jobs, num_workers=1,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i + 1, len(jobs)) for i in range(len(jobs))]

    def test_outcome_telemetry(self):
        outcomes = execute_jobs(tiny_jobs(), num_workers=1)
        for outcome in outcomes.values():
            assert outcome.source == "run"
            assert outcome.worker == "serial"
            assert outcome.wall_time > 0

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            execute_jobs(tiny_jobs(), num_workers=0)


class TestCacheIntegration:
    def test_second_run_all_hits(self, tmp_path):
        jobs = tiny_jobs()
        warm = ResultCache(tmp_path)
        first = execute_jobs(jobs, num_workers=1, cache=warm)
        assert warm.size() == len(jobs)
        assert set(warm.get(jobs[0].config_hash)) == {"key", "cell"}
        # An entry written by an older version carries telemetry keys
        # next to the cell; it must be served all the same.
        legacy = warm.get(jobs[0].config_hash)
        legacy.update(wall_time=1.5, worker="pid7", engine="event",
                      phase_time={"checks": 0.0, "routing": 0.0})
        warm.put(jobs[0].config_hash, legacy)

        cold = ResultCache(tmp_path)
        second = execute_jobs(jobs, num_workers=1, cache=cold)
        assert cold.hits == len(jobs)
        assert cold.misses == 0
        for key in first:
            assert second[key].cell == first[key].cell
            assert second[key].source == "cache"
            assert second[key].worker == "cache"
            assert second[key].wall_time == 0.0

    def test_overlapping_sweeps_share_cells(self, tmp_path):
        """A different table with the same resolved configs hits the cache
        (the hash keys content, not grid position)."""
        cache = ResultCache(tmp_path)
        execute_jobs(tiny_jobs(tiny_spec(table_id=2)), num_workers=1,
                     cache=cache)
        cache.hits = cache.misses = 0
        outcomes = execute_jobs(tiny_jobs(tiny_spec(table_id=3)),
                                num_workers=1, cache=cache)
        assert cache.hits == len(outcomes)

    def test_cache_hits_recorded_in_checkpoint(self, tmp_path):
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path / "cache")
        execute_jobs(jobs, num_workers=1, cache=cache)
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        execute_jobs(jobs, num_workers=1, cache=cache, checkpoint=ck)
        sources = [r["source"] for r in ck.records() if r["kind"] == "cell"]
        assert sources == ["cache"] * len(jobs)


    def test_warm_summary_counts_no_wall_time(self, tmp_path):
        """A hit costs no simulation: the summary of a warm campaign
        reports every cell from the cache and zero simulated time."""
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path / "cache")
        execute_jobs(jobs, num_workers=1, cache=cache,
                     checkpoint=CampaignCheckpoint(tmp_path / "cold.jsonl"))
        assert summarize_manifest(tmp_path / "cold.jsonl").wall_time_total > 0
        execute_jobs(jobs, num_workers=1, cache=cache,
                     checkpoint=CampaignCheckpoint(tmp_path / "warm.jsonl"))
        warm = summarize_manifest(tmp_path / "warm.jsonl")
        assert warm.by_source == {"cache": len(jobs)}
        assert warm.wall_time_total == 0

    def test_interrupted_campaign_reruns_only_unfinished_cells(
        self, tmp_path, monkeypatch
    ):
        """Re-running an interrupted campaign against the same cache
        resumes it: finished cells are served, the table is unchanged."""
        import repro.campaign.executor as executor_module

        spec, base = tiny_spec(), tiny_base()
        keys = [job.key for job in tiny_jobs(spec, base)]
        reference = table_to_json(
            run_table_campaign(spec, base, saturation=1.0)
        )
        original = executor_module._execute_payload
        executed = []
        allowed = [1]  # cells that may run before the simulated Ctrl-C

        def spy(payload):
            if len(executed) == allowed[0]:
                raise KeyboardInterrupt
            executed.append(payload["key"])
            return original(payload)

        monkeypatch.setattr(executor_module, "_execute_payload", spy)
        with pytest.raises(KeyboardInterrupt):
            run_table_campaign(spec, base, saturation=1.0,
                               cache=ResultCache(tmp_path))
        assert executed == keys[:1]

        executed.clear()
        allowed[0] = len(keys)
        resumed = run_table_campaign(spec, base, saturation=1.0,
                                     cache=ResultCache(tmp_path))
        assert executed == keys[1:]
        assert table_to_json(resumed) == reference


class TestStoredEntryValidation:
    """Torn or hand-edited cache entries downgrade to a re-run."""

    def test_malformed_cache_entry_reruns(self, tmp_path):
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path)
        # Valid JSON object, but not a result payload (e.g. a partially
        # migrated entry): must warn, miss, and be healed by the re-run.
        cache.put(jobs[0].config_hash, {"something": "else"})
        with pytest.warns(RuntimeWarning, match="malformed cache entry"):
            outcomes = execute_jobs(jobs[:1], num_workers=1, cache=cache)
        assert outcomes[jobs[0].key].source == "run"
        healed = execute_jobs(jobs[:1], num_workers=1, cache=cache)
        assert healed[jobs[0].key].source == "cache"
        assert healed[jobs[0].key].cell == outcomes[jobs[0].key].cell

"""Experiment-campaign engine: parallel, cached table runs.

The campaign package turns the embarrassingly parallel work of
regenerating the paper's tables into scheduled *jobs*:

* :mod:`repro.campaign.jobs` — grid enumeration and content hashing of
  resolved configs;
* :mod:`repro.campaign.executor` — serial or process-pool execution
  with per-cell telemetry;
* :mod:`repro.campaign.cache` — content-addressed on-disk result store,
  the only one: re-running an interrupted campaign against the same
  cache resumes it;
* :mod:`repro.campaign.checkpoint` — telemetry manifest behind the
  ``campaign summary`` report;
* :mod:`repro.campaign.engine` — table-level orchestration
  (``run_table_campaign``).
"""

from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CampaignSummary,
    render_summary,
    summarize_manifest,
)
from repro.campaign.engine import assemble_table, run_table_campaign
from repro.campaign.executor import (
    JobOutcome,
    default_num_workers,
    execute_jobs,
)
from repro.campaign.jobs import (
    CellJob,
    cell_from_dict,
    cell_to_dict,
    config_hash,
    enumerate_table_jobs,
    job_key,
)

__all__ = [
    "CampaignCheckpoint",
    "CampaignSummary",
    "CellJob",
    "JobOutcome",
    "ResultCache",
    "assemble_table",
    "cell_from_dict",
    "cell_to_dict",
    "config_hash",
    "default_cache_dir",
    "default_num_workers",
    "enumerate_table_jobs",
    "execute_jobs",
    "job_key",
    "render_summary",
    "run_table_campaign",
    "summarize_manifest",
]

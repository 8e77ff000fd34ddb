"""High-level campaign engine: tables in, tables out.

``run_table_campaign`` is the one way a table is run: it enumerates
the spec into jobs, resolves them through the executor (serial or
pooled, cached or not), and reassembles the ``TableResult`` in
canonical cell order — so the rendered table (and its JSON dump) is
byte-identical whichever way the cells were resolved.  Several tables
form one campaign by sharing a cache and a manifest.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.executor import JobOutcome, ProgressFn, execute_jobs
from repro.campaign.jobs import enumerate_table_jobs, job_key
from repro.experiments.runner import TableResult, saturation_rate
from repro.experiments.spec import TableSpec
from repro.network.config import SimulationConfig


def run_table_campaign(
    spec: TableSpec,
    base: SimulationConfig,
    saturation: Optional[float] = None,
    num_workers: int = 1,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    progress: Optional[ProgressFn] = None,
) -> TableResult:
    """Run one table as a campaign and reassemble its result grid.

    Args:
        spec: the table's grid definition.
        base: base simulation config (topology, windows, seed); every
            cell runs on ``base.seed``.
        saturation: saturation rate override (flits/cycle/node); defaults
            to the calibrated value for the spec's pattern.
        num_workers: worker-process count (1 = serial in-process).
        cache: optional result store; cells it holds are not re-run.
        checkpoint: optional telemetry manifest.
        progress: optional callable ``progress(done, total)``.
    """
    if saturation is None:
        saturation = saturation_rate(base, spec)
    rates, jobs = enumerate_table_jobs(spec, base, saturation)
    if checkpoint is not None:
        checkpoint.start(spec.table_id, total=len(jobs))
    outcomes = execute_jobs(
        jobs,
        num_workers=num_workers,
        cache=cache,
        checkpoint=checkpoint,
        progress=progress,
    )
    return assemble_table(spec, rates, outcomes)


def assemble_table(
    spec: TableSpec,
    rates: Sequence[float],
    outcomes: Dict[str, JobOutcome],
) -> TableResult:
    """Rebuild a ``TableResult`` from keyed outcomes, canonical order.

    Iterates ``spec.cell_coords()`` — the same order the sequential
    runner fills cells in — so dict insertion order, rendering and JSON
    dumps match the sequential path exactly.
    """
    result = TableResult(spec=spec, rates=tuple(rates))
    for threshold, load_index, size in spec.cell_coords():
        key = job_key(spec.table_id, threshold, load_index, size)
        row = result.cells.setdefault(threshold, {})
        row[(load_index, size)] = outcomes[key].cell
    return result

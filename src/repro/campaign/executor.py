"""Parallel execution of campaign jobs.

``execute_jobs`` resolves every :class:`~repro.campaign.jobs.CellJob`
through two layers, cheapest first:

1. **cache** — the content-addressed on-disk store
   (:class:`~repro.campaign.cache.ResultCache`), the campaign's only
   result store: an interrupted campaign resumes by re-running it
   against the same cache;
2. **run** — a live simulation, either in-process (``num_workers=1``,
   the deterministic serial fallback used by tests) or fanned out over a
   ``ProcessPoolExecutor``.  Every cache-miss cell is one simulation.

Each resolved cell is recorded in the optional manifest
(:class:`~repro.campaign.checkpoint.CampaignCheckpoint`), which holds
telemetry only.

Cells run out of order under the pool, but results are keyed, so callers
reassemble tables in canonical order and the output is bit-identical to
the sequential path.  Workers ship lean ``SimulationStats`` dicts back
(:meth:`~repro.metrics.stats.SimulationStats.to_dict` without the event
log) and the parent derives the ``CellResult``, so both paths share one
serialization round-trip.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.jobs import CellJob, cell_from_dict, cell_to_dict
from repro.experiments.runner import CellResult, cell_from_stats
from repro.metrics.stats import SimulationStats
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class JobOutcome:
    """One resolved cell: the result plus execution telemetry."""

    job: CellJob
    cell: CellResult
    #: Wall-clock seconds the simulation took (0 when served from disk).
    wall_time: float
    #: ``"serial"``, ``"pid<n>"`` or ``"cache"``.
    worker: str
    #: ``"run"`` or ``"cache"``.
    source: str


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell from its plain-dict payload.

    Top-level (picklable) and dict-in/dict-out so the same function
    backs the serial fallback and the process pool.
    """
    start = time.perf_counter()
    config = SimulationConfig.from_dict(payload["config"])
    stats = Simulator(config).run()
    return {
        "key": payload["key"],
        "stats": stats.to_dict(include_events=False),
        "wall_time": time.perf_counter() - start,
        "worker": f"pid{os.getpid()}",
    }


def default_num_workers() -> int:
    """Default fan-out: one worker per CPU."""
    return os.cpu_count() or 1


def execute_jobs(
    jobs: Sequence[CellJob],
    num_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, JobOutcome]:
    """Resolve every job to a :class:`JobOutcome`, keyed by job key.

    Args:
        jobs: the campaign's cells (any iteration order).
        num_workers: process-pool width; ``None`` means one per CPU,
            ``1`` runs serially in-process.
        cache: optional on-disk result store consulted before running.
        checkpoint: optional telemetry manifest; every resolved cell is
            recorded as soon as it finishes.
        progress: optional ``progress(done, total)`` callback.
    """
    if num_workers is None:
        num_workers = default_num_workers()
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    total = len(jobs)
    done = 0
    outcomes: Dict[str, JobOutcome] = {}

    def tick() -> None:
        if progress is not None:
            progress(done, total)

    def finish(outcome: JobOutcome) -> None:
        nonlocal done
        outcomes[outcome.job.key] = outcome
        if outcome.source == "run" and cache is not None:
            cache.put(
                outcome.job.config_hash,
                {"key": outcome.job.key, "cell": cell_to_dict(outcome.cell)},
            )
        if checkpoint is not None:
            checkpoint.record_cell(
                key=outcome.job.key,
                config_hash=outcome.job.config_hash,
                wall_time=outcome.wall_time,
                worker=outcome.worker,
                source=outcome.source,
            )
        done += 1
        tick()

    # Layer 1: serve what the cache already knows.  Stored entries are
    # validated, not trusted: a torn or wrong-shape entry (killed writer,
    # hand-edited file) downgrades to a re-run with a warning instead of
    # poisoning the whole campaign.
    pending: List[CellJob] = []
    for job in jobs:
        payload = cache.get(job.config_hash) if cache is not None else None
        if payload is not None:
            outcome = _outcome_from_stored(job, payload)
            if outcome is not None:
                finish(outcome)
                continue
        pending.append(job)

    # Layer 2: simulate the rest, one run per cell.
    if num_workers == 1:
        for job in pending:
            result = _execute_payload(job.payload())
            finish(_outcome_from_result(job, result, worker="serial"))
    elif pending:
        _run_pool(pending, num_workers, finish)
    return outcomes


def _outcome_from_stored(
    job: CellJob, payload: Dict[str, Any]
) -> Optional[JobOutcome]:
    """Rebuild a cache entry, or ``None`` if malformed.

    Only ``cell`` is read.  The ``wall_time``, ``worker``, ``engine`` and
    ``phase_time`` keys of older entries are ignored: a hit costs no
    simulation, so its wall time is 0.
    """
    try:
        cell = cell_from_dict(payload["cell"])
    except (KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            f"ignoring malformed cache entry for {job.key} "
            f"({type(exc).__name__}: {exc}); the cell will be re-run",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return JobOutcome(
        job=job, cell=cell, wall_time=0.0, worker="cache", source="cache"
    )


def _outcome_from_result(
    job: CellJob, result: Dict[str, Any], worker: Optional[str] = None
) -> JobOutcome:
    """Rebuild stats shipped by a worker and derive the cell result."""
    stats = SimulationStats.from_dict(result["stats"])
    return JobOutcome(
        job=job,
        cell=cell_from_stats(stats, job.rate),
        wall_time=result["wall_time"],
        worker=worker if worker is not None else result["worker"],
        source="run",
    )


def _run_pool(
    pending: Sequence[CellJob],
    num_workers: int,
    finish: Callable[[JobOutcome], None],
) -> None:
    """Fan pending cells out over a process pool, finishing out-of-order."""
    width = min(num_workers, len(pending))
    executor = ProcessPoolExecutor(max_workers=width)
    try:
        futures = {
            executor.submit(_execute_payload, job.payload()): job
            for job in pending
        }
        not_done = set(futures)
        while not_done:
            finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in finished:
                finish(_outcome_from_result(futures[future], future.result()))
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

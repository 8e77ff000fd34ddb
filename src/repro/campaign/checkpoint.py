"""Campaign manifest: a JSON-lines telemetry log.

One ``campaign`` header per table start and one ``cell`` record per
resolved cell, flushed as soon as the cell finishes.  A cell record
carries telemetry only — wall-clock seconds (0 for a cache hit), the
worker that ran it, and whether it came from a live run or the cache —
which :func:`summarize_manifest` turns into the
``repro-experiments campaign summary`` report.

Results live in the :class:`~repro.campaign.cache.ResultCache` alone:
an interrupted campaign resumes by re-running it against the same
cache, which serves every cell that finished.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


class CampaignCheckpoint:
    """Append-only JSONL telemetry log of resolved campaign cells.

    Args:
        path: manifest file location (parent dirs created on demand).
        fresh: truncate any existing manifest instead of extending it.
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.path = Path(path)
        if fresh and self.path.exists():
            self.path.unlink()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, table_id: int, total: int) -> None:
        """Record that a table campaign began."""
        self._append(
            {"kind": "campaign", "table_id": table_id, "total": total}
        )

    def record_cell(
        self,
        key: str,
        config_hash: str,
        wall_time: float,
        worker: str,
        source: str,
    ) -> None:
        """Log one resolved cell (flushed immediately)."""
        self._append({
            "kind": "cell",
            "key": key,
            "config_hash": config_hash,
            "wall_time": wall_time,
            "worker": worker,
            "source": source,
        })

    def _append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every parseable manifest record (corrupt tail lines skipped)."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a line cut short by a crash
        return records

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Cell records by config hash (latest record wins)."""
        done: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            if record.get("kind") == "cell" and "config_hash" in record:
                done[record["config_hash"]] = record
        return done


# ----------------------------------------------------------------------
# Campaign summary report
# ----------------------------------------------------------------------

@dataclass
class CampaignSummary:
    """Aggregated telemetry of one manifest."""

    total_cells: int = 0
    by_source: Counter[str] = field(default_factory=Counter)
    by_worker: Counter[str] = field(default_factory=Counter)
    by_table: Counter[str] = field(default_factory=Counter)
    wall_time_total: float = 0.0
    wall_time_max: float = 0.0
    slowest_key: Optional[str] = None
    campaigns_started: int = 0

    @property
    def wall_time_mean(self) -> float:
        return self.wall_time_total / self.total_cells if self.total_cells else 0.0


def summarize_manifest(path: str) -> CampaignSummary:
    """Fold a manifest into a :class:`CampaignSummary`.

    Keys it does not read are ignored, such as the ``cell``, ``engine``
    and ``phase_time`` that older cell records carry.
    """
    summary = CampaignSummary()
    for record in CampaignCheckpoint(path).records():
        if record.get("kind") == "campaign":
            summary.campaigns_started += 1
            continue
        if record.get("kind") != "cell":
            continue
        summary.total_cells += 1
        summary.by_source[record.get("source", "run")] += 1
        summary.by_worker[record.get("worker", "?")] += 1
        table = record.get("key", "?").split("/", 1)[0]
        summary.by_table[table] += 1
        wall = float(record.get("wall_time", 0.0))
        summary.wall_time_total += wall
        if wall > summary.wall_time_max:
            summary.wall_time_max = wall
            summary.slowest_key = record.get("key")
    return summary


def render_summary(summary: CampaignSummary) -> str:
    """Human-readable ``campaign summary`` report."""
    if summary.total_cells == 0:
        return "campaign manifest is empty (no completed cells recorded)"
    lines = [
        f"campaigns started     : {summary.campaigns_started}",
        f"cells completed       : {summary.total_cells}",
        "cells by source       : "
        + ", ".join(
            f"{source}={count}"
            for source, count in sorted(summary.by_source.items())
        ),
        "cells by table        : "
        + ", ".join(
            f"{table}={count}"
            for table, count in sorted(summary.by_table.items())
        ),
        f"simulated wall time   : {summary.wall_time_total:.2f}s total, "
        f"{summary.wall_time_mean:.2f}s/cell mean, "
        f"{summary.wall_time_max:.2f}s max"
        + (f" ({summary.slowest_key})" if summary.slowest_key else ""),
        f"workers               : {len(summary.by_worker)} "
        + "("
        + ", ".join(
            f"{worker}: {count}"
            for worker, count in sorted(summary.by_worker.items())
        )
        + ")",
    ]
    return "\n".join(lines)

"""Metric registry, result line and the small statistics the benchmark uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of truth for metric
names, units and directions; ``BENCHMARK.json`` at the repository root
must list exactly the same metrics (``tests/test_metrics.py`` checks it).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("paper512-sat", "table2-quick", "verify-grid")

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("cycles_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "fraction", "higher", 0.01),
)

PHASES: Tuple[str, ...] = (
    "movement", "routing", "checks", "injection", "generation", "probes",
)
ENGINE_COUNTERS: Tuple[str, ...] = (
    "move_visits",
    "move_parked_skips",
    "move_parks",
    "route_attempts",
    "route_parked_skips",
    "route_parks",
    "deadline_wakeups",
)
CORE_HOOKS: Tuple[str, ...] = (
    "on_blocked_attempt",
    "blocked_deadline",
    "on_message_routed",
    "on_vc_released",
    "on_message_removed",
)
#: Layers whose self time counts as attributed in the coverage check.
LAYERS: Tuple[str, ...] = (
    "network", "core", "analysis", "traffic", "campaign", "experiments", "verify",
)


def _calls_and_seconds(prefix: str) -> List[Tuple[str, str]]:
    return [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str]] = [("network.build_s", "s"), ("network.builds", "count")]
    rows += [(f"network.{p}_s", "s") for p in PHASES]
    rows += [(f"network.{p}_share", "fraction") for p in PHASES]
    rows += [(f"network.{c}", "count") for c in ENGINE_COUNTERS]
    rows += [("network.us_per_move_visit", "us"), ("network.route_grant_ratio", "fraction")]
    for hook in CORE_HOOKS + ("recover",):
        rows += _calls_and_seconds(f"core.{hook}")
    rows += [("core.detections", "count"), ("core.true_detection_ratio", "fraction")]
    rows += _calls_and_seconds("analysis.find_deadlocked")
    rows += _calls_and_seconds("traffic.destination")
    rows += _calls_and_seconds("traffic.draw_length")
    rows += [("campaign.execute_jobs_s", "s")]
    for op in ("cache_put", "cache_get", "record_cell"):
        rows += _calls_and_seconds(f"campaign.{op}")
    rows += [("campaign.cell_wall_p50_s", "s"), ("campaign.warm_regen_s", "s")]
    rows += [("experiments.render_s", "s"), ("experiments.paper_err_pp", "pp")]
    rows += [("verify.states", "count"), ("verify.edges", "count"), ("verify.instance_builds", "count")]
    rows += _calls_and_seconds("verify.step_cycle")
    rows += _calls_and_seconds("verify.encode_state")
    rows += [("verify.cross_check_s", "s")]
    rows += [(f"trace.self.{layer}_s", "s") for layer in LAYERS]
    rows += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage_share", "fraction"),
        ("trace.unattributed_s", "s"),
    ]
    return tuple(
        (name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
        for name, unit in rows
    )


#: Per-layer metrics where a larger value is the better one; for every
#: other per-layer metric (times, shares, work counts) less is better.
_HIGHER_IS_BETTER = frozenset(
    {"network.route_grant_ratio", "core.true_detection_ratio", "trace.coverage_share"}
)


#: (name, unit, better) of every metric the traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer()

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


@dataclass(frozen=True)
class Median:
    """A median together with the number of samples it was taken over."""

    value: float
    samples: int

    def __str__(self) -> str:
        return f"{self.value:.6g} (median of {self.samples})"


def median_of(samples: Sequence[float]) -> Median:
    """Median of ``samples``; raises on an empty sequence."""
    if not samples:
        raise ValueError("median of no samples")
    return Median(float(statistics.median(samples)), len(samples))


@dataclass
class Outcome:
    """Operation accounting: every operation is attempted once and fails
    at most once, however many checks it fails."""

    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def result_line(
    outcome: Outcome, metrics: Dict[str, float], names: Iterable[str]
) -> str:
    """The JSON result object; ``names`` must all be present in ``metrics``."""
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": outcome.attempted > 0 and outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": UNITS[name]}
                for name in names
            },
        },
        sort_keys=False,
    )


def end_to_end_names() -> List[str]:
    return [row[0] for row in END_TO_END]


def per_layer_names() -> List[str]:
    return [row[0] for row in PER_LAYER]


"""Experiment harness regenerating the paper's tables and claims."""

from repro.experiments.detection_latency import (
    DetectionLatencyPoint,
    latency_sweep,
    measure_detection_latency,
    render_latency_table,
)
from repro.experiments.latency import (
    LoadPoint,
    LoadSweep,
    default_rates,
    sweep_load,
)
from repro.experiments.paper_data import PAPER_TABLES, paper_value
from repro.experiments.report import (
    render_comparison,
    render_table,
    table_to_json,
)
from repro.experiments.runner import CellResult, TableResult, run_cell
from repro.experiments.spec import TABLE_SPECS, TableSpec, base_config
from repro.experiments.tables import (
    regenerate_all,
    regenerate_table,
    save_result,
    table_spec,
)

__all__ = [
    "CellResult",
    "DetectionLatencyPoint",
    "LoadPoint",
    "LoadSweep",
    "PAPER_TABLES",
    "TABLE_SPECS",
    "TableResult",
    "TableSpec",
    "base_config",
    "default_rates",
    "latency_sweep",
    "measure_detection_latency",
    "paper_value",
    "regenerate_all",
    "regenerate_table",
    "render_comparison",
    "render_latency_table",
    "render_table",
    "run_cell",
    "save_result",
    "sweep_load",
    "table_spec",
    "table_to_json",
]

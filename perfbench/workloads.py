"""The three workloads: inputs from a seed, timed bodies, output checks.

Each workload has a *body* — the work a user waits for — that runs in
one process with ``jobs=1``.  Untraced runs repeat the body until the
measuring window is spent and report medians; traced runs time one
untraced body (the overhead baseline) and then one body under the
benchmark-side wrappers of :mod:`perfbench.instrument`.

Every operation (a table cell, the 512-node cell, a verifier cell) is
attempted once per run and fails at most once: when it raises, when an
end-of-run check fails, or when its result differs from the reference
pinned for that seed in ``refs/``.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import instrument
from perfbench.hostspeed import HostSpeed
from perfbench.metrics import (
    CORE_HOOKS,
    ENGINE_COUNTERS,
    LAYERS,
    PHASES,
    Outcome,
    median_of,
    per_layer_names,
)
from perfbench.trace import Tracer

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
VERIFY_CELLS = HERE / "verify_cells.json"

#: The 512-node cell: Table 2 (NDM, uniform), Th=32, saturated load, "sl".
PAPER512_THRESHOLD = 32
PAPER512_LOAD = 3
PAPER512_SIZE = "sl"
#: Cycles between host-speed slices in the 512-node run.
HOST_SAMPLE_CYCLES = 50
#: Shortened windows: the paper's full run is 2,000 + 10,000 cycles.
PAPER512_WARMUP = 1200
PAPER512_MEASURE = 600


@dataclass
class Context:
    """What one benchmark run knows: its seed, window and scratch space."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    outcome: Outcome
    #: The traced run's tracer, kept so ``run.py`` can write its spans.
    tracer: Optional[Tracer] = None

    def reference(self) -> Optional[Dict[str, Any]]:
        """The pinned reference outputs for this seed, if any."""
        path = REFS / f"seed-{self.seed}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def scratch(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="run-", dir=self.work))


def _guard_regime(config: Any) -> None:
    """The benchmark measures the shipped regime, never batch or recovery-off."""
    if config.engine != "event" or config.recovery != "progressive":
        raise ValueError(
            f"benchmark regime changed: engine={config.engine!r} "
            f"recovery={config.recovery!r} (expected 'event' / 'progressive')"
        )


def paper_value(threshold: int, load_index: int, size: str, quick: bool) -> float:
    """The paper's Table 2 percentage for one of our cells.

    Quick grids keep the paper's second and last loads, which is the
    mapping ``repro.experiments.report.render_comparison`` uses.
    """
    from repro.experiments.paper_data import PAPER_TABLES

    paper = PAPER_TABLES[2]
    if quick:
        load_index = {0: 1, 1: len(paper["rates"]) - 1}[load_index]
    return paper["rows"][threshold][load_index][paper["sizes"].index(size)]


def _timed_reps(seconds: float, rep: Callable[[int], None]) -> None:
    """Call ``rep(i)`` until ``seconds`` have passed (at least once)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        rep(i)
        i += 1


# ----------------------------------------------------------------------
# paper512-sat
# ----------------------------------------------------------------------
def paper512_config(seed: int) -> Tuple[Any, float]:
    """The generated config of the 512-node saturated cell, and its rate."""
    from repro.experiments.runner import build_cell_config
    from repro.experiments.spec import TABLE_SPECS, base_config, calibrated_saturation

    spec = TABLE_SPECS[2]
    base = base_config(full=True)
    base.warmup_cycles = PAPER512_WARMUP
    base.measure_cycles = PAPER512_MEASURE
    base.seed = seed
    rate = round(
        spec.load_fractions[PAPER512_LOAD] * calibrated_saturation(full=True)[spec.pattern],
        4,
    )
    config = build_cell_config(base, spec, PAPER512_THRESHOLD, PAPER512_SIZE, rate)
    _guard_regime(config)
    return config, rate


def _check_cell(cell: Dict[str, Any]) -> Optional[str]:
    """Plain consistency of one cell result (for seeds without a reference)."""
    if not 0.0 <= cell["percentage"] <= 100.0:
        return f"percentage {cell['percentage']} out of range"
    if cell["injected"] <= 0:
        return "nothing injected"
    if cell["messages_detected"] > cell["detections"]:
        return "more messages detected than detection events"
    return None


def paper512(ctx: Context) -> Dict[str, float]:
    from repro.experiments.runner import cell_from_stats
    from repro.network.simulator import Simulator

    config, rate = paper512_config(ctx.seed)
    ref = ctx.reference()
    expected = ref["paper512-sat"] if ref else None
    ctx.outcome.attempt()
    first: List[Dict[str, Any]] = []

    def check(sim: Any, cell: Dict[str, Any]) -> None:
        try:
            sim.check_invariants()
        except AssertionError as exc:
            ctx.outcome.fail("paper512", f"invariants: {exc}")
        problem = _check_cell(cell)
        if problem:
            ctx.outcome.fail("paper512", problem)
        if expected is not None and cell != expected:
            ctx.outcome.fail("paper512", f"result {cell} != pinned {expected}")
        if first and cell != first[0]:
            ctx.outcome.fail("paper512", "repeated run gave a different result")
        first.append(cell)

    walls: List[float] = []
    scaled: List[float] = []
    rates: List[float] = []

    def rep(_: int) -> None:
        host = HostSpeed()
        host.sample()

        def between_cycles(cycle: int) -> None:
            if cycle % HOST_SAMPLE_CYCLES == 0:
                host.sample()

        t0 = time.perf_counter()
        sim = Simulator(config.replace())
        stats = sim.run(on_cycle=between_cycles)
        wall = time.perf_counter() - t0 - sum(host.slices[1:])
        walls.append(wall)
        scaled.append(host.normalize(wall))
        rates.append(stats.cycles_run / scaled[-1])
        check(sim, asdict(cell_from_stats(stats, rate)))
        # Worms and channels reference each other: free this network
        # before the next rep builds one, so peak memory is one network's.
        del sim, stats
        gc.collect()

    if not ctx.trace:
        _timed_reps(ctx.seconds, rep)
        return {
            "wall_s": median_of(scaled).value,
            "cycles_per_s": median_of(rates).value,
            "raw_wall_s": median_of(walls).value,
        }

    rep(0)
    tracer = ctx.tracer = Tracer()
    totals = instrument.NetworkTotals()
    with instrument.Patches() as patches:
        instrument.patch_analysis(patches, tracer)
        with tracer.region("workload", span=True, cell=tracer.new_cell("paper512")):
            with tracer.region("cell", span=True):
                sim = instrument.traced_simulator(tracer, totals, config.replace())
                stats = sim.run()
    check(sim, asdict(cell_from_stats(stats, rate)))
    metrics = layer_metrics(tracer, totals, untraced_wall=walls[0])
    metrics["experiments.paper_err_pp"] = abs(
        first[0]["percentage"]
        - paper_value(PAPER512_THRESHOLD, PAPER512_LOAD, PAPER512_SIZE, quick=False)
    )
    return metrics


# ----------------------------------------------------------------------
# table2-quick
# ----------------------------------------------------------------------
def _table_cells(table_json: str) -> Dict[str, Dict[str, Any]]:
    payload = json.loads(table_json)
    return {
        f"th{th}/{coord}": cell
        for th, row in payload["cells"].items()
        for coord, cell in row.items()
    }


def _paper_err(table_json: str) -> float:
    """Mean |ours - paper| in percentage points over the quick grid."""
    errs = []
    for th, row in json.loads(table_json)["cells"].items():
        for coord, cell in row.items():
            load_index, size = coord.split(":")
            pv = paper_value(int(th), int(load_index), size, quick=True)
            errs.append(abs(cell["percentage"] - pv))
    return sum(errs) / len(errs)


def table2(ctx: Context) -> Dict[str, float]:
    from repro.campaign import CampaignCheckpoint, ResultCache
    from repro.experiments.report import render_table, table_to_json
    from repro.experiments.spec import base_config
    from repro.experiments.tables import regenerate_table, table_spec

    spec = table_spec(2, full=False)
    base = base_config(full=False)
    _guard_regime(base)
    cycles_per_cell = base.warmup_cycles + base.measure_cycles + base.drain_cycles
    cells = spec.cell_count()
    ref = ctx.reference()
    expected = _table_cells(json.dumps(ref["table2-quick"])) if ref else None
    texts: List[str] = []

    def regenerate(
        cache: Any,
        manifest: Path,
        tracer: Optional[Tracer] = None,
        host: Optional[HostSpeed] = None,
    ) -> Any:
        checkpoint = CampaignCheckpoint(str(manifest), fresh=True)
        record = checkpoint.record_cell
        if tracer is not None:
            record = tracer.wrap("campaign.record_cell", record)
        if host is not None:
            # A host-speed slice after every finished cell.
            def record_and_sample(**kwargs: Any) -> None:
                record(**kwargs)
                host.sample()

            checkpoint.record_cell = record_and_sample  # type: ignore[method-assign]
        else:
            checkpoint.record_cell = record  # type: ignore[method-assign]
        return regenerate_table(
            2, full=False, seed=ctx.seed, jobs=1, cache=cache, checkpoint=checkpoint
        )

    def check(text: str) -> None:
        ours = _table_cells(text)
        if len(ours) != cells:
            ctx.outcome.fail("table", f"{len(ours)} cells, expected {cells}")
        for key, cell in ours.items():
            problem = _check_cell(cell)
            if problem:
                ctx.outcome.fail(key, problem)
            if expected is not None and expected.get(key) != cell:
                ctx.outcome.fail(key, f"{cell} != pinned {expected.get(key)}")
        if texts and text != texts[0]:
            ctx.outcome.fail("table", "repeated regeneration differs")

    def body(
        where: Path, tracer: Optional[Tracer] = None, host: Optional[HostSpeed] = None
    ) -> Tuple[float, Optional[str]]:
        """One cold regeneration and render: (wall without host slices,
        table JSON or None)."""
        cache = ResultCache(str(where / "cache"))
        if tracer is not None:
            cache.get = tracer.wrap("campaign.cache_get", cache.get)  # type: ignore[method-assign]
            cache.put = tracer.wrap("campaign.cache_put", cache.put)  # type: ignore[method-assign]
        manifest = where / "manifest.jsonl"
        before = len(host.slices) if host is not None else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = regenerate(cache, manifest, host=host)
                render_table(result)
                text = table_to_json(result)
            else:
                with tracer.region("workload", span=True, cell=tracer.new_cell("table2")):
                    result = regenerate(cache, manifest, tracer)
                    with tracer.region("experiments.render", span=True):
                        render_table(result)
                        text = table_to_json(result)
        except Exception as exc:  # a raising cell fails once; later cells never ran
            done = len(CampaignCheckpoint(str(manifest)).completed())
            if not ctx.outcome.attempted:
                ctx.outcome.attempt(done + 1)
            ctx.outcome.fail(f"cell#{done}", f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        if host is not None:
            wall -= sum(host.slices[before:])
        if not ctx.outcome.attempted:
            ctx.outcome.attempt(cells)
        check(text)
        texts.append(text)
        return wall, text

    def warm_check(where: Path, cold: Optional[str]) -> float:
        """Re-run from the warm cache; the table JSON must be byte-identical."""
        if cold is None:
            return 0.0
        t0 = time.perf_counter()
        result = regenerate(ResultCache(str(where / "cache")), where / "warm.jsonl")
        warm = table_to_json(result)
        seconds = time.perf_counter() - t0
        if warm != cold:
            again = _table_cells(warm)
            for key, cell in _table_cells(cold).items():
                if again.get(key) != cell:
                    ctx.outcome.fail(key, "warm-cache regeneration differs")
        return seconds

    walls: List[float] = []
    scaled: List[float] = []

    def rep(i: int) -> None:
        where = ctx.scratch()
        host = HostSpeed()
        host.sample()
        try:
            wall, text = body(where, host=host)
            walls.append(wall)
            scaled.append(host.normalize(wall))
            if i == 0:
                warm_check(where, text)
        finally:
            shutil.rmtree(where, ignore_errors=True)

    if not ctx.trace:
        _timed_reps(ctx.seconds, rep)
        wall = median_of(scaled).value
        return {
            "wall_s": wall,
            "cycles_per_s": cells * cycles_per_cell / wall,
            "raw_wall_s": median_of(walls).value,
        }

    rep(0)
    tracer = ctx.tracer = Tracer()
    totals = instrument.NetworkTotals()
    where = ctx.scratch()
    try:
        with instrument.Patches() as patches:
            instrument.patch_analysis(patches, tracer)
            instrument.patch_campaign(patches, tracer, totals)
            _, text = body(where, tracer)
        warm = warm_check(where, text)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    metrics = layer_metrics(tracer, totals, untraced_wall=walls[0])
    cell_walls = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "cell"]
    metrics["campaign.cell_wall_p50_s"] = median_of(cell_walls).value if cell_walls else 0.0
    metrics["campaign.warm_regen_s"] = warm
    metrics["experiments.paper_err_pp"] = _paper_err(texts[0]) if texts else 0.0
    return metrics


# ----------------------------------------------------------------------
# verify-grid
# ----------------------------------------------------------------------
def verify_cells() -> Dict[str, str]:
    """Pinned label -> verdict map (fixed here, not read from the library)."""
    return json.loads(VERIFY_CELLS.read_text())["verdicts"]


def verify(ctx: Context) -> Dict[str, float]:
    from repro.verify.checker import explore
    from repro.verify.library import find_case

    pinned = verify_cells()
    labels = sorted(pinned)
    # The verifier has no random input; the seed only fixes the cell order.
    random.Random(ctx.seed).shuffle(labels)
    ctx.outcome.attempt(len(labels))

    def grid(
        tracer: Optional[Tracer] = None, host: Optional[HostSpeed] = None
    ) -> Tuple[int, int]:
        states = edges = 0
        for label in labels:
            if host is not None:
                host.sample()
            try:
                case = find_case(label, slow=True)
                if case is None:
                    raise LookupError(f"no verifier cell labelled {label!r}")
                if tracer is None:
                    verdict = explore(case)
                else:
                    with tracer.region("cell", span=True, cell=tracer.new_cell(label)):
                        verdict = explore(case)
            except Exception as exc:  # one raising cell must not hide the rest
                ctx.outcome.fail(label, f"{type(exc).__name__}: {exc}")
                continue
            if verdict.verdict != pinned[label]:
                ctx.outcome.fail(label, f"{verdict.verdict} != pinned {pinned[label]}")
            states += verdict.states
            edges += verdict.edges
        return states, edges

    # First pass: count the simulated cycles (exact and seed-independent)
    # and let lazy imports settle; it is not timed.
    with instrument.Patches() as patches:
        steps = instrument.count_verify_steps(patches)
        states, edges = grid()
        cycles = steps()

    walls: List[float] = []
    scaled: List[float] = []

    def rep(_: int) -> None:
        host = HostSpeed()
        t0 = time.perf_counter()
        grid(host=host)
        walls.append(time.perf_counter() - t0 - sum(host.slices))
        scaled.append(host.normalize(walls[-1]))

    if not ctx.trace:
        _timed_reps(ctx.seconds, rep)
        wall = median_of(scaled).value
        return {
            "wall_s": wall,
            "cycles_per_s": cycles / wall,
            "raw_wall_s": median_of(walls).value,
        }

    rep(0)
    tracer = ctx.tracer = Tracer()
    totals = instrument.NetworkTotals()
    with instrument.Patches() as patches:
        instrument.patch_analysis(patches, tracer)
        instrument.patch_verify(patches, tracer)
        with tracer.region("workload", span=True, cell=tracer.new_cell("verify")):
            grid(tracer)
    metrics = layer_metrics(tracer, totals, untraced_wall=walls[0])
    metrics["verify.states"] = states
    metrics["verify.edges"] = edges
    return metrics


# ----------------------------------------------------------------------
# Per-layer metrics from one traced body
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    totals: instrument.NetworkTotals,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not use read 0."""
    m: Dict[str, float] = {name: 0.0 for name in per_layer_names()}
    calls, seconds = tracer.calls, tracer.seconds
    m["network.build_s"] = seconds.get("network.build", 0.0)
    m["network.builds"] = calls.get("network.build", 0)
    phase_total = sum(totals.phase_time.get(p, 0.0) for p in PHASES)
    for phase in PHASES:
        t = totals.phase_time.get(phase, 0.0)
        m[f"network.{phase}_s"] = t
        m[f"network.{phase}_share"] = t / phase_total if phase_total else 0.0
    for name in ENGINE_COUNTERS:
        m[f"network.{name}"] = totals.counters.get(name, 0)
    visits = totals.counters.get("move_visits", 0)
    if visits:
        m["network.us_per_move_visit"] = 1e6 * totals.phase_time["movement"] / visits
    attempts = totals.counters.get("route_attempts", 0)
    if attempts:
        m["network.route_grant_ratio"] = calls.get("core.on_message_routed", 0) / attempts
    for hook in CORE_HOOKS + ("recover",):
        m[f"core.{hook}.calls"] = calls.get(f"core.{hook}", 0)
        m[f"core.{hook}.s"] = seconds.get(f"core.{hook}", 0.0)
    m["core.detections"] = totals.detections
    classified = totals.true_detections + totals.false_detections
    if classified:
        m["core.true_detection_ratio"] = totals.true_detections / classified
    for name in (
        "analysis.find_deadlocked",
        "traffic.destination",
        "traffic.draw_length",
        "campaign.cache_put",
        "campaign.cache_get",
        "campaign.record_cell",
        "verify.step_cycle",
        "verify.encode_state",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = seconds.get(name, 0.0)
    m["campaign.execute_jobs_s"] = seconds.get("campaign.execute_jobs", 0.0)
    m["experiments.render_s"] = seconds.get("experiments.render", 0.0)
    m["verify.instance_builds"] = calls.get("verify.instance_build", 0)
    m["verify.cross_check_s"] = seconds.get("verify.cross_check", 0.0)
    wall = seconds["workload"]
    attributed = 0.0
    for layer in LAYERS:
        m[f"trace.self.{layer}_s"] = tracer.layer_self.get(layer, 0.0)
        attributed += tracer.layer_self.get(layer, 0.0)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = wall / untraced_wall
    m["trace.coverage_share"] = attributed / wall
    m["trace.unattributed_s"] = wall - attributed
    return m


def set_up(workload: str, seed: int) -> None:
    """A workload's work up to its first simulated cycle (see setup_probe.py)."""
    if workload == "paper512-sat":
        from repro.network.simulator import Simulator

        Simulator(paper512_config(seed)[0])
    elif workload == "table2-quick":
        from repro.campaign.jobs import enumerate_table_jobs
        from repro.experiments.runner import saturation_rate
        from repro.experiments.spec import base_config
        from repro.experiments.tables import table_spec
        from repro.network.simulator import Simulator

        spec = table_spec(2, full=False)
        base = base_config(full=False)
        base.seed = seed
        _, jobs = enumerate_table_jobs(spec, base, saturation_rate(base, spec))
        Simulator(jobs[0].config)
    elif workload == "verify-grid":
        from repro.verify.driver import Instance
        from repro.verify.library import find_case

        labels = sorted(verify_cells())
        random.Random(seed).shuffle(labels)
        cases = [find_case(label, slow=True) for label in labels]
        Instance(cases[0])
    else:
        raise ValueError(f"unknown workload {workload!r}")


WORKLOAD_BODIES: Dict[str, Callable[[Context], Dict[str, float]]] = {
    "paper512-sat": paper512,
    "table2-quick": table2,
    "verify-grid": verify,
}

"""Benchmark-side wrappers around the layers' public entry points.

Nothing under ``src/`` is modified: the traced run swaps the names a
layer module imports (``Simulator`` in ``repro.campaign.executor`` and
``repro.verify``, ``find_deadlocked`` in the simulator, ``execute_jobs``
in the campaign engine, ``encode_state`` and ``Instance`` in the checker)
for timed versions, and :class:`Patches` puts every original back.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from perfbench.metrics import CORE_HOOKS
from perfbench.trace import Tracer


class Patches:
    """``setattr`` with undo, restored in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def wrap(self, tracer: Tracer, obj: Any, attr: str, name: str) -> None:
        self.set(obj, attr, tracer.wrap(name, getattr(obj, attr)))

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


class NetworkTotals:
    """Phase clocks, engine counters and detection counts summed over runs."""

    def __init__(self) -> None:
        self.phase_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.detections = 0
        self.true_detections = 0
        self.false_detections = 0
        self.runs = 0

    def add(self, stats: Any) -> None:
        self.runs += 1
        for phase, seconds in stats.phase_time.items():
            self.phase_time[phase] += seconds
        for name, count in stats.engine_counters.items():
            self.counters[name] += count
        self.detections += stats.detections
        self.true_detections += stats.true_detections
        self.false_detections += stats.false_detections


def traced_simulator(
    tracer: Tracer, totals: NetworkTotals, config: Any
) -> Any:
    """Build a ``Simulator`` for ``config`` with every per-layer wrapper on.

    The detector comes from ``make_detector`` (exactly what the simulator
    would build itself) and is handed in through ``Simulator(config,
    detector=...)`` with its hooks timed; phase clocks are switched on.
    """
    from repro.core.registry import make_detector
    from repro.network.simulator import Simulator

    config.profile_phases = True
    detector = make_detector(config.detector)
    for hook in CORE_HOOKS:
        setattr(detector, hook, tracer.wrap(f"core.{hook}", getattr(detector, hook)))
    with tracer.region("network.build", span=True):
        sim = Simulator(config, detector=detector)
    sim.recovery.recover = tracer.wrap("core.recover", sim.recovery.recover)
    workload = sim.workload
    workload.pattern.destination = tracer.wrap(
        "traffic.destination", workload.pattern.destination
    )
    workload.lengths.draw = tracer.wrap("traffic.draw_length", workload.lengths.draw)
    run = sim.run

    def timed_run(*args: Any, **kwargs: Any) -> Any:
        with tracer.region("network.run", span=True) as frame:
            stats = run(*args, **kwargs)
            tracer.attribute(frame, sum(stats.phase_time.values()))
        totals.add(stats)
        return stats

    sim.run = timed_run
    return sim


def patch_analysis(patches: Patches, tracer: Tracer) -> None:
    """Time the oracle through the name the simulator module imports."""
    import repro.network.simulator as simulator_module
    import repro.verify.driver as driver_module

    wrapped = tracer.wrap("analysis.find_deadlocked", simulator_module.find_deadlocked)
    patches.set(simulator_module, "find_deadlocked", wrapped)
    patches.set(driver_module, "find_deadlocked", wrapped)


def patch_campaign(
    patches: Patches, tracer: Tracer, totals: NetworkTotals
) -> None:
    """Cell spans, traced simulators and the executor call under the engine."""
    import repro.campaign.engine as engine_module
    import repro.campaign.executor as executor_module

    execute_payload = executor_module._execute_payload

    def cell(payload: Dict[str, Any]) -> Dict[str, Any]:
        with tracer.region("cell", span=True, cell=tracer.new_cell(payload["key"])):
            return execute_payload(payload)

    patches.set(executor_module, "_execute_payload", cell)
    patches.set(
        executor_module,
        "Simulator",
        lambda config: traced_simulator(tracer, totals, config),
    )
    execute_jobs = engine_module.execute_jobs

    def campaign(*args: Any, **kwargs: Any) -> Any:
        with tracer.region("campaign.execute_jobs", span=True):
            return execute_jobs(*args, **kwargs)

    patches.set(engine_module, "execute_jobs", campaign)


def patch_verify(patches: Patches, tracer: Tracer) -> None:
    """Instance builds, cycle steps, state encoding and collision re-checks."""
    import repro.verify.checker as checker_module
    import repro.verify.driver as driver_module

    simulator_cls = driver_module.Simulator

    def build(*args: Any, **kwargs: Any) -> Any:
        with tracer.region("network.build"):
            return simulator_cls(*args, **kwargs)

    patches.set(driver_module, "Simulator", build)
    instance_cls = checker_module.Instance

    class TimedInstance(instance_cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with tracer.region("verify.instance_build"):
                super().__init__(*args, **kwargs)

        def step_cycle(self, *args: Any, **kwargs: Any) -> Any:
            with tracer.region("verify.step_cycle"):
                return super().step_cycle(*args, **kwargs)

    patches.set(checker_module, "Instance", TimedInstance)
    patches.wrap(tracer, checker_module, "encode_state", "verify.encode_state")
    patches.wrap(tracer, checker_module._Explorer, "_cross_check", "verify.cross_check")


def count_verify_steps(patches: Patches) -> Callable[[], int]:
    """Count ``Instance.step_cycle`` calls (simulated verifier cycles)."""
    import repro.verify.checker as checker_module

    instance_cls = checker_module.Instance
    count = [0]

    class CountingInstance(instance_cls):  # type: ignore[misc, valid-type]
        def step_cycle(self, *args: Any, **kwargs: Any) -> Any:
            count[0] += 1
            return super().step_cycle(*args, **kwargs)

    patches.set(checker_module, "Instance", CountingInstance)
    return lambda: count[0]

"""Cycle kernels: the narrow interface behind the simulator's phase loop.

A *kernel* owns the per-cycle phase sequencing — checks, probes, routing,
movement, injection, generation — that :meth:`Simulator.step` used to
inline.  The simulator builds the network, the detector and the message
lists; the kernel decides how one cycle of that state is advanced.  This
is the seam the engines plug into:

* ``"scan"`` — the reference kernel: the phase methods re-scan every
  message every cycle (the simulator's park flags stay off).
* ``"event"`` — same phase sequence, with parking enabled: blocked
  headers and frozen worms are skipped until a provable wakeup event.
* ``"batch"`` — per-run identical to ``"event"``; the batch win comes
  from :mod:`repro.network.batch`, which shares one kernel advance
  across many threshold cells of a campaign grid.

All three kernels sequence the *same* phase methods in the same order,
so runs are bit-identical across engines by construction; the engines
differ only in which work they can prove skippable.  Keeping the
sequencing here (rather than in ``step()``) gives batch/vectorized
backends a single override point without touching the simulator's state
machine.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


# ----------------------------------------------------------------------
# Phase effect contracts (read by repro.lint.contracts / rule EFF001)
# ----------------------------------------------------------------------
# The effect *domain* is the behavioural state shared by the three
# engines: every attribute of Message / VirtualChannel / PhysicalChannel
# / Router that feeds the trajectory or the behavioural digest.  The
# groups below partition it; each phase declares which groups it may
# write, and the phase-effect analyzer (``repro lint``, rule EFF001)
# verifies the *transitive* write set of each phase method against this
# table.  Telemetry (stats, tracers, perf counters) is deliberately
# outside the domain — writing it is always allowed.
EFFECT_GROUPS: Dict[str, FrozenSet[str]] = {
    # Event-engine parking surface: sleep flags, waiter registries and
    # the shared parked-message counter box.
    "park": frozenset(
        {
            "route_asleep",
            "move_asleep",
            "wait_registered",
            "route_waiters",
            "header_waiters",
            "wake_box",
        }
    ),
    # NDM Generate/Propagate flags, the selective-promotion waiter
    # refcounts that drive them, and the simple variant's per-router
    # "all inputs are G" summary boxes.
    "gp": frozenset({"gp", "waiters", "all_g", "src_all_g", "dst_all_g"}),
    # Channel occupancy: lane ownership, buffered flits, free-lane masks
    # and the inactivity-monitor activation state derived from them.
    "occupancy": frozenset(
        {
            "occupant",
            "flits",
            "free_mask",
            "occupied_count",
            "active_since",
            "_frozen_inactivity",
            "busy_network_vcs",
        }
    ),
    # The paper's per-channel counters and the detector plumbing wired
    # into them.
    "counters": frozenset(
        {
            "last_flit_cycle",
            "last_drain_cycle",
            "counter_lag",
            "i_threshold",
            "on_i_reset",
        }
    ),
    # Worm extent: the span list and source/delivery flit accounting.
    "worm": frozenset(
        {
            "spans",
            "allocated_vc",
            "flits_at_source",
            "flits_delivered",
            "last_source_flit_cycle",
        }
    ),
    # Per-message routing bookkeeping between attempts.
    "routing_state": frozenset(
        {
            "first_attempt_done",
            "blocked_since",
            "feasible_pcs",
            "feasible_vcs",
        }
    ),
    # Message lifecycle: status transitions and the flags the stats
    # fold reads.
    "lifecycle": frozenset(
        {
            "status",
            "inject_cycle",
            "deliver_cycle",
            "inject_node",
            "in_active",
            "ever_injected",
            "counted",
        }
    ),
    # Detection/recovery outcomes recorded on the message.
    "detection": frozenset(
        {
            "marked_deadlocked",
            "times_detected",
            "recoveries",
            "retries",
            "is_recovery_reinjection",
        }
    ),
    # Fault-injection state: written only by repro.faults.injector,
    # never by a cycle phase.
    "faults": frozenset({"fault_down", "stuck_mask", "usable_mask"}),
}


def _effects(*groups: str) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset()
    for group in groups:
        out |= EFFECT_GROUPS[group]
    return out


#: Simulator phase-method name -> phase name, in canonical order (the
#: order :meth:`ScanKernel.advance` sequences them).
PHASE_METHODS: Dict[str, str] = {
    "_checks_phase": "checks",
    "_probes_phase": "probes",
    "_routing_phase": "routing",
    "_movement_phase": "movement",
    "_injection_phase": "injection",
    "_generation_phase": "generation",
}

#: The canonical phase order (documentation + table-driven tests).
PHASE_SEQUENCE: Tuple[str, ...] = (
    "checks",
    "probes",
    "routing",
    "movement",
    "injection",
    "generation",
)

#: Phase name -> attributes the phase (transitively) may write.  The
#: checks/probes/routing phases can reach detection and therefore the
#: full recovery path (worm teardown touches nearly everything), so
#: their contract is the whole domain minus fault state; the later
#: phases are meaningfully narrower.  Fault state is writable by *no*
#: phase: the injector mutates it in ``step()`` before the kernel runs.
PHASE_EFFECTS: Dict[str, FrozenSet[str]] = {
    "checks": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "probes": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "routing": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "movement": _effects(
        "park", "gp", "occupancy", "counters", "worm", "lifecycle",
    ),
    "injection": _effects("park", "occupancy", "worm", "lifecycle"),
    "generation": _effects("lifecycle"),
}


class CycleKernel:
    """Advance one simulator by one cycle (phase sequencing only).

    Kernels are stateless: all simulation state lives on the simulator,
    so one kernel instance may drive any number of runs.
    """

    #: Engine name this kernel implements (matches ``config.engine``).
    name = "abstract"

    def advance(self, sim: "Simulator", cycle: int) -> None:
        """Run every phase of ``cycle`` in the model's canonical order."""
        raise NotImplementedError


class ScanKernel(CycleKernel):
    """The reference phase sequence (also reused by event and batch).

    The phase *methods* belong to the simulator — they read and mutate
    its state — and whether they park or re-scan is decided by the
    simulator's engine flags, not here.  This class is purely the
    canonical ordering plus the opt-in per-phase wall-clock profiling.
    """

    name = "scan"

    def advance(self, sim: "Simulator", cycle: int) -> None:
        if sim._profile:
            self._advance_profiled(sim, cycle)
            return
        sim._checks_phase(cycle)
        if sim._probe_phase_on:
            sim._probes_phase(cycle)
        sim._routing_phase(cycle)
        # Dispatched through the seam: the batch backend may have swapped
        # in the vectorized SoA movement phase (repro.network.vecmove).
        sim._movement_impl(cycle)
        sim._injection_phase(cycle)
        if sim.generation_enabled:
            sim._generation_phase(cycle)

    def _advance_profiled(self, sim: "Simulator", cycle: int) -> None:
        t0 = perf_counter()
        sim._checks_phase(cycle)
        t1 = perf_counter()
        if sim._probe_phase_on:
            sim._probes_phase(cycle)
        t1b = perf_counter()
        sim._routing_phase(cycle)
        t2 = perf_counter()
        sim._movement_impl(cycle)
        t3 = perf_counter()
        sim._injection_phase(cycle)
        t4 = perf_counter()
        if sim.generation_enabled:
            sim._generation_phase(cycle)
        t5 = perf_counter()
        pt = sim._phase_time
        pt["checks"] += t1 - t0
        pt["probes"] += t1b - t1
        pt["routing"] += t2 - t1b
        pt["movement"] += t3 - t2
        pt["injection"] += t4 - t3
        pt["generation"] += t5 - t4


class EventKernel(ScanKernel):
    """Event-driven engine: same sequence, parking enabled by the sim."""

    name = "event"


class BatchKernel(EventKernel):
    """Batch engine's per-run kernel: event semantics for one config.

    A standalone ``engine="batch"`` run is bit-identical to ``"event"``
    (asserted by ``tests/network/test_batch_engine.py``); the actual
    batching — one shared advance serving many threshold cells — lives
    in :class:`repro.network.batch.BatchSimulator`, which drives this
    kernel once per group instead of once per cell.
    """

    name = "batch"


KERNELS: Dict[str, Type[CycleKernel]] = {
    ScanKernel.name: ScanKernel,
    EventKernel.name: EventKernel,
    BatchKernel.name: BatchKernel,
}


def make_kernel(engine: str) -> CycleKernel:
    """Kernel instance for a ``config.engine`` value."""
    try:
        return KERNELS[engine]()
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose one of {tuple(KERNELS)}"
        ) from None

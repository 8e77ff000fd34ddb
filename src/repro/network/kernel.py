"""Phase effect contracts of the simulator's cycle.

:meth:`repro.network.simulator.Simulator.step` runs one cycle as six
phase methods — checks, probes, routing, movement, injection,
generation — in a fixed order, on both engines.  This module declares,
as plain data, which behavioural state each of those phases may write;
the phase-effect analyzer (``repro lint``, via
:mod:`repro.lint.contracts`) checks the simulator against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple


# ----------------------------------------------------------------------
# Phase effect contracts (read by repro.lint.contracts / rule EFF001)
# ----------------------------------------------------------------------
# The effect *domain* is the behavioural state shared by the two
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
#: order :meth:`Simulator.step` runs them).
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
#: phase: the injector mutates it in ``step()`` before the phases run.
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

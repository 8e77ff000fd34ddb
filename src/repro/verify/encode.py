"""Canonical, time-relative state encoding for the bounded model checker.

The encoding maps a live simulator onto a nested tuple of small integers
such that two states with equal encodings behave identically under equal
future choice vectors.  It covers occupancy, flits, G/P flags,
inactivity and fault masks, and, crucially, it is
**time-relative**: every absolute timestamp in the simulator is replaced
by a clamped difference against the current cycle, so steady states
reached at different absolute cycles collapse onto one canonical state
and the enumeration reaches a fixpoint.

Soundness of each clamp (why behaviour is preserved):

* **channel inactivity** — every read is either a ``> threshold``
  comparison (I/DT/IF flags) or ``inactivity_deadline`` arithmetic, and
  both are functions of the *raw* counter ``cycle - start - lag``; once
  the raw value exceeds every configured threshold its exact magnitude
  is unobservable, so it is clamped at ``counter_cap``.  Negative raw
  values (a counter-lag fault pushing the virtual start into the
  future) are kept exact — they decide *when* a threshold crossing
  happens.
* **blocked age** — the timeout family compares it against a threshold;
  the probe launch cadence additionally depends on it mod the launch
  period, so the clamp preserves the residue (``blocked_period``).
* **heap entries** — deadline and launch heaps are encoded as their
  pop order with per-entry *relative* deadlines; past deadlines clamp
  to zero (they pop immediately regardless of how stale they are).
* **absolute time** — only two residues of the cycle counter are
  observable once every injection window and (finite) fault edge has
  passed: the fairness rotation ``cycle % len(list)`` (covered by
  ``time_mod``, the lcm of all possible list lengths) and nothing else;
  ``min(cycle, horizon)`` covers the transient prefix exactly.

Waiter dictionaries (route/header waiters) are deliberately *not*
encoded: membership is derivable (a registered blocked header sits in
exactly the waiter sets of its cached feasible channels), and the wake
loops that iterate them are idempotent flag-clears, so their insertion
order cannot influence any future state.  The checker's collision
cross-check (`tests/verify`) validates these arguments empirically by
re-expanding states that dedupe onto an existing encoding.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Optional, Tuple

from repro.core.probe import ProbeDetection
from repro.network.channel import PhysicalChannel
from repro.network.message import Message
from repro.network.types import GPState, MessageStatus
from repro.verify.driver import Instance

Encoded = Tuple[Any, ...]


def _clamp_rel(value: int, cap: int, period: int = 1) -> int:
    """Clamp a non-negative relative age, preserving its residue."""
    if value <= cap:
        return value
    if period <= 1:
        return cap
    return cap + (value - cap) % period


def _encode_channel(pc: PhysicalChannel, cycle: int, cap: int) -> Encoded:
    lanes = tuple(
        (vc.occupant.id if vc.occupant is not None else -1, vc.flits)
        for vc in pc.vcs
    )
    if pc.occupied_count == 0:
        inactivity: Tuple[str, int] = ("f", min(pc._frozen_inactivity, cap))
    else:
        start = pc.last_flit_cycle
        if pc.active_since > start:
            start = pc.active_since
        raw = cycle - start - pc.counter_lag
        inactivity = ("a", min(raw, cap))
    waiters: Tuple[Tuple[int, int], ...] = ()
    if pc.waiters:
        waiters = tuple(
            sorted((ipc.index, count) for ipc, count in pc.waiters.items())
        )
    return (
        lanes,
        pc.gp is GPState.GENERATE,
        inactivity,
        pc.fault_down,
        pc.stuck_mask,
        waiters,
    )


def _encode_message(
    m: Message, cycle: int, cap: int, period: int, include_engine: bool
) -> Encoded:
    blocked: Optional[int] = None
    if m.blocked_since is not None:
        blocked = _clamp_rel(cycle - m.blocked_since, cap, period)
    inject_age: Optional[int] = None
    if m.inject_cycle is not None:
        inject_age = _clamp_rel(cycle - m.inject_cycle, cap)
    stall_age: Optional[int] = None
    if m.last_source_flit_cycle is not None:
        stall_age = _clamp_rel(cycle - m.last_source_flit_cycle, cap)
    fields: List[Any] = [
        m.id,
        m.status.value,
        m.flits_at_source,
        m.flits_delivered,
        tuple((vc.pc.index, vc.index) for vc in m.spans),
        (
            (m.allocated_vc.pc.index, m.allocated_vc.index)
            if m.allocated_vc is not None
            else None
        ),
        m.first_attempt_done,
        blocked,
        tuple(pc.index for pc in m.feasible_pcs),
        (
            tuple((vc.pc.index, vc.index) for vc in m.feasible_vcs)
            if m.feasible_vcs is not None
            else None
        ),
        inject_age,
        stall_age,
        m.marked_deadlocked,
        m.inject_node,
    ]
    if include_engine:
        fields.extend((m.route_asleep, m.move_asleep, m.wait_registered))
    return tuple(fields)


def _encode_probe_state(inst: Instance, cycle: int) -> Encoded:
    detector = inst.detector
    if not isinstance(detector, ProbeDetection):
        return ()
    # Launch cadence heap in pop order; all live entries are in the
    # future by at most one launch period, stale ones clamp to zero.
    heap = sorted(detector._launch_heap, key=lambda e: (e[0], e[1]))
    launches = tuple(
        (
            max(entry[0] - cycle, 0),
            entry[2].id,
            entry[2].blocked_since == entry[3],  # entry still fresh?
        )
        for entry in heap
    )
    transport = detector.transport
    sessions = []
    for initiator_id, session in transport.sessions.items():
        sessions.append(
            (
                initiator_id,
                session.initiator.blocked_since == session.episode,
                tuple(sorted(session.visited)),
                tuple(sorted(session.digests)),
                tuple(
                    (p.at.id, p.digest, p.hops, p.victim.id)
                    for p in session.probes
                ),
                session.has_returning,
            )
        )
    return (launches, tuple(sessions))


def encode_state(inst: Instance, include_engine: bool = True) -> Encoded:
    """The canonical encoding of ``inst``'s current state.

    ``include_engine=False`` drops the event-engine bookkeeping (park
    flags, wakeup heap) and yields the *behavioural* encoding shared by
    the scan and event engines — the cross-engine replay suite compares
    exactly this part.
    """
    sim = inst.sim
    case = inst.case
    cycle = sim.cycle
    cap = case.counter_cap
    period = case.blocked_period
    channels = tuple(
        _encode_channel(pc, cycle, cap) for pc in sim.channels
    )
    active = tuple(
        _encode_message(m, cycle, cap, period, include_engine)
        for m in sim.active_messages
    )
    queued = tuple(
        tuple(m.id for m in queue) for queue in sim.source_queues
    )
    recovery_queues = tuple(
        sorted(
            (node, tuple(m.id for m in queue))
            for node, queue in sim.recovery_queues.items()
        )
    )
    recovery_heap = tuple(
        (max(entry[0] - cycle, 0), entry[2].id)
        for entry in sorted(
            sim._recovery_deliveries, key=lambda e: (e[0], e[1])
        )
    )
    pending_route = tuple(m.id for m in sim.pending_route)
    parts: List[Any] = [
        cycle % case.time_mod,
        min(cycle, case.horizon),
        tuple(inst.pending),
        channels,
        active,
        queued,
        recovery_queues,
        recovery_heap,
        pending_route,
        _encode_probe_state(inst, cycle),
    ]
    if include_engine:
        # A counter-lag fault pushes inactivity deadlines later by up to
        # the lag, so the clamp must keep those offsets distinguishable.
        deadline_cap = case.counter_cap + case.max_counter_lag + 1
        deadlines = tuple(
            (min(max(entry[0] - cycle, 0), deadline_cap), entry[2].id)
            for entry in sorted(
                sim._route_deadlines, key=lambda e: (e[0], e[1])
            )
        )
        parts.append(deadlines)
    return tuple(parts)


def digest(encoded: Encoded) -> str:
    """Stable short hex digest of an encoded state (hash-seed-free)."""
    return hashlib.sha256(repr(encoded).encode("utf-8")).hexdigest()[:24]


def behavioural_digest(inst: Instance) -> str:
    """Digest of the engine-independent part of the current state."""
    return digest(encode_state(inst, include_engine=False))

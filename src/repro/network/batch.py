"""Batch backend: many detector cells of a campaign over one trajectory.

A campaign grid (see ``repro.experiments.spec``) re-runs the *same*
network — topology, workload, seed, windows — once per detector cell.
For every mechanism that is a pure observer of the wait state
(``batch_shareable`` in the registry) combined with ``recovery="none"``,
detection has **zero feedback** into the network:

* ``NoRecovery.recover`` is a no-op, so a detected worm keeps its
  channels exactly like an undetected one;
* G/P flags are read only by the detector — routing and flit movement
  never consult them — so G/P state cannot steer the trajectory;
* probe sessions live in a dedicated out-of-band phase and never touch
  routing or channel state;
* failed routing attempts draw nothing from the RNG.

Hence the *flit-level* trajectory — channel occupancy, inactivity
counters, RNG stream, ground-truth sweeps — is identical for every
cell, across thresholds **and mechanisms**.  What is *not* identical is
the per-run detector bookkeeping: a reference run skips every detector
call of a marked message, which suppresses that message's later
first-attempt G/P writes and probe-launch armings, and which messages
are marked when differs per cell.  :class:`BatchObserver` therefore
keeps all marking-coupled state per cell:

* the NDM G/P flag per input channel as a K-bit mask (bit r set == cell
  r sees G), updated under the reference's exact suppression rule;
* one pending mask per message (bit r clear == cell r has detected it),
  which gates every family's predicate and every probe cell's cadence;
* per-cell probe launch heaps and transports whose "already marked"
  reads go through the ``_marked`` seam narrowed to the cell's bit.

Detection predicates are evaluated per family over the shared state:
the ndm/pdm ladders share one min-feasible-inactivity reduction per
attempt (``hit = eligible & ((1 << count) - 1)`` with ``count`` from
``bisect_left``), header timeouts come from the blocking instant, the
periodic timeouts from injection/source instants, and probe victims
from the per-cell transports.  :class:`BatchSimulator` advances the
network **once** with that observer, then folds the shared run's
statistics into K per-cell
:class:`~repro.metrics.stats.SimulationStats` that are bit-identical to
K independent ``engine="event"`` runs (asserted by
``tests/network/test_batch_engine.py`` over the equivalence corpus and
gated again inside ``benchmarks/perf_report.py``).  When numpy is
present the shared trajectory's movement phase is additionally swapped
for the vectorized SoA implementation (``repro.network.vecmove``),
digest-asserted identical to the scalar phase.

Cell state is integer structure-of-arrays: the canonical cell order
(family order, then ascending threshold, then probe caps — giving each
family a contiguous bit range), the per-cell detection counters and the
channel-state snapshot (:func:`soa_snapshot`) are numpy
``int64``/``uint8`` arrays with a **fixed reduction order**, so results
are independent of ``PYTHONHASHSEED`` and host.  The trajectory itself
stays in the scalar object model: bit-exactness with the reference
engines is the contract, and the per-wake reductions are O(feasible
channels), far below numpy's per-call overhead.

DET004 (no numpy in kernel packages) is waived *only on the import
line* below: the rule protects the trajectory hot paths from
host-dependent float fast paths, and the effect analyzer proves the
stronger property directly — EFF003 verifies the observers' transitive
writes to shared network state are limited to G/P flags and the wake
surface, so the numpy use is integer-SoA/telemetry-only by
construction.  The import is also optional — without numpy the campaign
executor simply falls back to per-cell runs (``HAVE_NUMPY``), which
keeps the no-numpy tier-1 environment fully functional.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

try:
    import numpy as np  # repro-lint: disable=DET004 - integer SoA/telemetry only; EFF003 enforces this
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.probe import ProbeDetection
from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.metrics.stats import SimulationStats
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.message import Message
from repro.network.probes import ProbeTransport
from repro.network.router import Router
from repro.network.simulator import Simulator
from repro.network.types import DetectionEvent, GPState, MessageStatus

#: Whether the vectorized batch backend is available on this host.
HAVE_NUMPY = np is not None

#: Cap on cells folded onto one shared trajectory.  The pending-cell
#: bitmasks are arbitrary-precision ints, so this is not a correctness
#: limit — it bounds observer state and keeps per-group wall time (and
#: therefore pool scheduling granularity) reasonable.
MAX_CELLS = 64

_G = GPState.GENERATE
_P = GPState.PROPAGATE

#: Canonical family order for cell ranks.  NDM first keeps the G/P
#: masks' bit range anchored at the low bits; the order (and ascending
#: thresholds within a family) is the fixed reduction order that makes
#: fold results independent of input ordering and PYTHONHASHSEED.
_FAMILY_ORDER = {
    NewDetectionMechanism.name: 0,
    PreviousDetectionMechanism.name: 1,
    HeaderBlockedTimeout.name: 2,
    SourceAgeTimeout.name: 3,
    InjectionStallTimeout.name: 4,
    ProbeDetection.name: 5,
}


def detector_cell_key(detector: DetectorConfig) -> Tuple[Any, ...]:
    """Hashable identity of one cell within a batch group.

    Cells equal under this key are behaviourally identical on a shared
    trajectory and fold to one rank: mechanism plus threshold, extended
    with the storm-guard caps for probe cells (the only mechanism with
    extra behavioural knobs; ``t1`` is group-uniform by the group key).
    """
    if detector.mechanism == ProbeDetection.name:
        return (
            detector.mechanism,
            int(detector.threshold),
            int(detector.probe_max_hops),
            int(detector.probe_max_outstanding),
        )
    return (detector.mechanism, int(detector.threshold))


def _cell_sort_key(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    return (_FAMILY_ORDER[key[0]],) + key[1:]


def batch_eligible(config: SimulationConfig) -> bool:
    """True when ``config``'s cell may join a shared trajectory.

    Requires every source of detection feedback to be absent: a
    mechanism declaring ``batch_shareable`` (every pure observer —
    ndm with simple promotion, pdm, the three timeouts, probe), no
    recovery, and a fault-free schedule (fault edges wake parked state
    conservatively, which is sound but makes per-cell telemetry — and
    conformance accounting — threshold-coupled).
    """
    # Imported here: repro.core.registry imports network.config, and a
    # module-level import back into repro.network would be cyclic.
    from repro.core.registry import batch_shareable

    return (
        batch_shareable(config.detector)
        and config.recovery == "none"
        and not config.faults
    )


def batch_group_key(config: SimulationConfig) -> str:
    """Canonical identity of a config modulo its detector cell.

    Two eligible configs with equal keys differ at most in the detection
    mechanism, its threshold, and the probe storm-guard caps, and may
    therefore join one :class:`BatchSimulator` group.  ``t1`` is *not*
    masked: the shared G/P dynamics are armed with one t1, so cells
    disagreeing on it must not share a trajectory.
    """
    payload = config.to_dict()
    payload["detector"] = dict(payload["detector"])
    payload["detector"]["mechanism"] = None
    payload["detector"]["threshold"] = None
    payload["detector"]["selective_promotion"] = None
    payload["detector"]["probe_max_hops"] = None
    payload["detector"]["probe_max_outstanding"] = None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _CellProbeTransport(ProbeTransport):
    """Probe transport whose marked test is one cell's pending bit.

    In the shared run nothing ever sets ``marked_deadlocked``, so the
    transport's staleness/progress/victim reads must instead consult
    whether *this cell* has already detected the message — exactly the
    reference run's view, where a marked message stales its session.
    """

    def __init__(
        self, max_hops: int, max_outstanding: int, owner: "BatchObserver", rank: int
    ) -> None:
        super().__init__(max_hops, max_outstanding)
        self._owner = owner
        self._rank = rank

    def _marked(self, message: Message) -> bool:
        pending = self._owner._pending.get(message.id, self._owner._full_mask)
        return not (pending >> self._rank & 1)


class _BatchProbeCell(ProbeDetection):
    """One probe cell's launch cadence and transport on the shared run.

    Driven by the owning :class:`BatchObserver`, never by the simulator
    directly: the owner forwards first-attempt armings gated on the
    cell's pending bit (the reference skips marked messages' hooks) and
    records the victims this cell's :meth:`probe_phase` returns.
    Counters stay in the per-cell transport — :meth:`_flush_counters`
    is disabled so the *shared* stats keep their zero defaults, and
    ``BatchObserver.fold_cell`` writes them into the cell's stats.
    """

    # EFF003 anchor: rides the shared trajectory like its owner, so its
    # transitive writes to shared network state must stay within the
    # G/P + wake surface (in fact it writes neither — probes are fully
    # out-of-band).
    shares_trajectory = True

    def __init__(
        self, owner: "BatchObserver", rank: int, cell: DetectorConfig
    ) -> None:
        super().__init__(
            cell.threshold,
            max_hops=cell.probe_max_hops,
            max_outstanding=cell.probe_max_outstanding,
        )
        self.rank = rank
        self._owner = owner
        self.transport = _CellProbeTransport(
            cell.probe_max_hops, cell.probe_max_outstanding, owner, rank
        )

    def arm_launch(self, message: Message, cycle: int) -> None:
        """Episode first-attempt arming (the reference's hook body)."""
        self._arm(message, cycle + self.threshold)

    def _marked(self, message: Message) -> bool:
        return self.transport._marked(message)

    def _flush_counters(self) -> None:
        """No-op: the owner folds transport counters per cell instead."""


class BatchObserver(NewDetectionMechanism):
    """K detector cells — across mechanisms — on one shared trajectory.

    Cells are canonicalized (deduplicated by :func:`detector_cell_key`,
    sorted family-first then ascending threshold) so each mechanism
    family owns a contiguous bit range of the per-message pending masks.
    The NDM G/P flag of each input channel is kept per cell as a K-bit
    mask, because the reference runs disagree on it: once cell r marks a
    message, that run skips the message's later detector calls, so its
    first-attempt G/P writes at subsequent hops never happen *in that
    run*.  The mask update rule mirrors this exactly — a first-attempt
    write by message ``m`` lands only in the cells still pending on
    ``m``, while channel-level events (routing success, lane release,
    reactivation promotion) land in all cells.  Every family's detection
    predicate is then tested per pending cell against the shared state,
    and detections are *recorded* per cell instead of marking the
    message: :meth:`on_blocked_attempt` always returns False, so the
    simulator never mutates the shared trajectory on behalf of any cell.
    """

    # Recorded detection events carry the *cell's* mechanism name (see
    # ``_record``); this name only labels the composite itself.
    name = "batch"

    # EFF003 anchor: this observer rides one trajectory shared by every
    # cell, so its writes to shared network objects must stay
    # cell-independent (G/P flags + wake surface only); everything
    # per-cell lives in the observer's own SoA masks.
    shares_trajectory = True

    # Narrowed per *instance* in ``__init__``: only groups holding a
    # periodic (source-age / injection-stall) or probe cell pay those
    # phases; the class-level True states the contract (PROTO001).
    needs_periodic_check = True
    has_probe_phase = True

    def __init__(self, cells: Sequence[DetectorConfig]) -> None:
        if np is None:  # pragma: no cover - executor gates on HAVE_NUMPY
            raise RuntimeError("the batch backend requires numpy")
        # Imported here to avoid a module-level cycle (see batch_eligible).
        from repro.core.registry import batch_shareable

        canonical: Dict[Tuple[Any, ...], DetectorConfig] = {}
        for cell in cells:
            if not batch_shareable(cell):
                raise ValueError(
                    f"detector cell {cell.mechanism!r} is not batch-shareable"
                )
            canonical.setdefault(detector_cell_key(cell), cell)
        if not canonical:
            raise ValueError("need at least one detector cell")
        if len(canonical) > MAX_CELLS:
            raise ValueError(
                f"{len(canonical)} cells exceed MAX_CELLS={MAX_CELLS}; chunk "
                "the group (the campaign executor does this automatically)"
            )
        ordered = sorted(canonical, key=_cell_sort_key)
        ndm_name = NewDetectionMechanism.name
        t1s = {
            int(canonical[key].t1) for key in ordered if key[0] == ndm_name
        }
        if len(t1s) > 1:
            raise ValueError(
                f"ndm cells disagree on t1 ({sorted(t1s)}); the shared G/P "
                "dynamics are armed with a single t1"
            )
        ndm_t1 = t1s.pop() if t1s else 1
        min_threshold = min(key[1] for key in ordered)
        # The composite reuses the NDM arming machinery; its own
        # threshold field is cosmetic, anchored so the t1 < t2 ctor
        # validation holds even for ndm-free groups.
        if ordered[0][0] == ndm_name:
            anchor = ordered[0][1]
        else:
            anchor = max(ndm_t1 + 1, min_threshold)
        super().__init__(threshold=anchor, t1=ndm_t1, selective_promotion=False)
        #: Canonical cells, rank order (family, then ascending threshold).
        self.cells: List[DetectorConfig] = [canonical[key] for key in ordered]
        self._rank_by_key: Dict[Tuple[Any, ...], int] = {
            key: rank for rank, key in enumerate(ordered)
        }
        self._cell_names: List[str] = [key[0] for key in ordered]
        k = len(ordered)
        self._k = k
        self._full_mask = (1 << k) - 1
        # Per-family contiguous bit ranges over the pending masks.
        self._ndm_base, self._ndm_ladder, self._ndm_mask = self._family(
            ndm_name, ordered
        )
        self._pdm_base, self._pdm_ladder, self._pdm_mask = self._family(
            PreviousDetectionMechanism.name, ordered
        )
        (
            self._timeout_base,
            self._timeout_ladder,
            self._timeout_mask,
        ) = self._family(HeaderBlockedTimeout.name, ordered)
        self._sa_base, self._sa_ladder, self._sa_mask = self._family(
            SourceAgeTimeout.name, ordered
        )
        self._is_base, self._is_ladder, self._is_mask = self._family(
            InjectionStallTimeout.name, ordered
        )
        #: Per-cell probe units (rank order), driven from the hooks below.
        self._probe_units: List[_BatchProbeCell] = []
        self._probe_unit_by_rank: Dict[int, _BatchProbeCell] = {}
        for rank, key in enumerate(ordered):
            if key[0] == ProbeDetection.name:
                unit = _BatchProbeCell(self, rank, canonical[key])
                self._probe_units.append(unit)
                self._probe_unit_by_rank[rank] = unit
        # Instance-level gates: the simulator caches these at build time.
        self.needs_periodic_check = bool(self._sa_mask or self._is_mask)
        self.has_probe_phase = bool(self._probe_units)
        #: message id -> bitmask of cells that have not yet detected it.
        self._pending: Dict[int, int] = {}
        # Per-cell counters, SoA over the ranks.  Plain int lists, not
        # numpy: hits bump one or two ranks at a time, where a python
        # index beats fancy-index dispatch by an order of magnitude.
        self._detections = [0] * k
        self._detections_measured = [0] * k
        self._true = [0] * k
        self._false = [0] * k
        self._unclassified = [0] * k
        self._events: List[List[DetectionEvent]] = [[] for _ in range(k)]
        #: channel index -> K-bit per-cell G/P mask (bits within the ndm
        #: family range; bit r set == G in cell r); sized in
        #: :meth:`attach`, all-P like the reference.
        self._gp_mask: List[int] = []

    @staticmethod
    def _family(
        mechanism: str, ordered: List[Tuple[Any, ...]]
    ) -> Tuple[int, List[int], int]:
        """(base rank, ascending threshold ladder, global bit mask)."""
        ranks = [r for r, key in enumerate(ordered) if key[0] == mechanism]
        if not ranks:
            return 0, [], 0
        base = ranks[0]
        ladder = [int(ordered[r][1]) for r in ranks]
        return base, ladder, ((1 << len(ranks)) - 1) << base

    @property
    def thresholds(self) -> List[int]:
        """Cell thresholds in rank order (telemetry, soa snapshots)."""
        return [int(cell.threshold) for cell in self.cells]

    def rank_of_cell(self, detector: DetectorConfig) -> int:
        """Canonical rank of a cell (raises if absent from the group)."""
        return self._rank_by_key[detector_cell_key(detector)]

    def rank_of(self, threshold: int) -> int:
        """Rank of a threshold in a single-mechanism group (legacy API)."""
        return self.thresholds.index(int(threshold))

    def attach(self, sim: "Simulator") -> None:  # type: ignore[override]
        self._gp_mask = [0] * len(sim.channels)
        if self._ndm_mask:
            super().attach(sim)  # arm the I-flag reset hooks, all-P flags
        else:
            DeadlockDetector.attach(self, sim)
        for unit in self._probe_units:
            unit.attach(sim)

    # ------------------------------------------------------------------
    # Per-cell G/P flag maintenance (ndm family)
    # ------------------------------------------------------------------
    def _first_attempt(
        self, message: Message, input_pc: PhysicalChannel, cycle: int
    ) -> None:
        """First-attempt G/P rule, suppressed per cell like the reference.

        A reference run whose cell has already marked ``message`` skips
        this call entirely, so the write lands only in the ndm cells
        still pending on the message.  The branch taken (free lane /
        advancing output / all blocked) depends only on shared
        trajectory state and is therefore the same in every cell.  The
        shared ``input_pc.gp`` keeps the never-marked dynamics so
        channel-level hooks can cheaply skip all-G channels.
        """
        pending = self._pending.get(message.id, self._full_mask) & self._ndm_mask
        idx = input_pc.index
        if input_pc.occupied_count < len(input_pc.vcs):
            input_pc.gp = _P
            self._gp_mask[idx] &= ~pending
            return
        t1 = self.t1
        for pc in message.feasible_pcs:
            if pc.inactivity(cycle) <= t1:
                # Promotion for the unsuppressed cells; the wake below is
                # a superset of each reference's (spurious wakes re-park).
                self._gp_mask[idx] |= pending
                input_pc.gp = _G
                self._wake_header_waiters(input_pc)
                return
        input_pc.gp = _P
        self._gp_mask[idx] &= ~pending

    def _promote(self, input_pc: PhysicalChannel) -> None:  # type: ignore[override]
        """Channel-level promotion (I-flag reset hook): every cell to G."""
        self._gp_mask[input_pc.index] = self._ndm_mask
        input_pc.gp = _G
        self._wake_header_waiters(input_pc)

    def _simple_reset_hook(
        self, targets: Tuple[PhysicalChannel, ...], all_g: List[bool]
    ) -> Callable[[PhysicalChannel, int], None]:
        """Reset hook that also fires when only a *cell's* flag is P.

        The parent's hook short-circuits on the shared flag already
        being G, which would skip channels where some cell still holds P
        (suppressed writes diverge the two).  For the same reason it
        never sets the router summary box ``all_g``: the shared flags
        say nothing about the cells' masks, so the hook always runs.
        """
        promote = self._promote
        gp_mask = self._gp_mask
        full = self._ndm_mask

        def hook(pc: PhysicalChannel, cycle: int) -> None:
            for input_pc in targets:
                if input_pc.gp is not _G or gp_mask[input_pc.index] != full:
                    promote(input_pc)

        return hook

    @staticmethod
    def _wake_header_waiters(input_pc: PhysicalChannel) -> None:
        if input_pc.header_waiters:
            box = input_pc.wake_box
            for m in input_pc.header_waiters:
                if m.route_asleep:
                    m.route_asleep = False
                    box[0] -= 1

    def on_message_routed(self, message: Message, cycle: int) -> None:
        """Routing success resets the input flag to P in every cell
        (the reference calls this hook even for marked messages)."""
        if not self._ndm_mask:
            return
        input_pc = message.input_pc
        if input_pc is not None:
            self._gp_mask[input_pc.index] = 0
            input_pc.gp = _P

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        """Lane release resets the flag to P in every cell."""
        if not self._ndm_mask:
            return
        self._gp_mask[vc.pc.index] = 0
        vc.pc.gp = _P

    # ------------------------------------------------------------------
    # Routing-attempt families (ndm / pdm / header timeout / probe arm)
    # ------------------------------------------------------------------
    @staticmethod
    def _min_feasible_inactivity(message: Message, cycle: int) -> Optional[int]:
        """Shared reduction for the inactivity-ladder families."""
        min_inact: Optional[int] = None
        for pc in message.feasible_pcs:
            value = pc.inactivity(cycle)
            if min_inact is None or value < min_inact:
                min_inact = value
        return min_inact

    def on_blocked_attempt(
        self, message: Message, router: Router, cycle: int, first_attempt: bool
    ) -> bool:
        input_pc = message.input_pc
        if input_pc is None:  # pragma: no cover - headers always hold a VC
            return False
        pending = self._pending.get(message.id, self._full_mask)
        hit = 0
        # Sentinel -1: not yet computed (None means no feasible output,
        # in which case every inactivity-ladder predicate holds).
        min_inact: Optional[int] = -1
        if self._ndm_mask:
            if first_attempt:
                self._first_attempt(message, input_pc, cycle)
            else:
                # Cells that can detect now: still pending *and* seeing G.
                eligible = pending & self._gp_mask[input_pc.index]
                if eligible:
                    min_inact = self._min_feasible_inactivity(message, cycle)
                    count = (
                        len(self._ndm_ladder)
                        if min_inact is None
                        else bisect_left(self._ndm_ladder, min_inact)
                    )
                    hit |= eligible & (((1 << count) - 1) << self._ndm_base)
        if self._pdm_mask:
            # PDM is stateless across attempts and — unlike ndm — the
            # reference evaluates it on *first* attempts too.
            pdm_pending = pending & self._pdm_mask
            if pdm_pending:
                if min_inact == -1:
                    min_inact = self._min_feasible_inactivity(message, cycle)
                count = (
                    len(self._pdm_ladder)
                    if min_inact is None
                    else bisect_left(self._pdm_ladder, min_inact)
                )
                hit |= pdm_pending & (((1 << count) - 1) << self._pdm_base)
        if self._timeout_mask:
            timeout_pending = pending & self._timeout_mask
            if timeout_pending and message.blocked_since is not None:
                count = bisect_left(
                    self._timeout_ladder, cycle - message.blocked_since
                )
                hit |= timeout_pending & (
                    ((1 << count) - 1) << self._timeout_base
                )
        if first_attempt:
            for unit in self._probe_units:
                if pending >> unit.rank & 1:
                    unit.arm_launch(message, cycle)
        if hit:
            self._pending[message.id] = pending & ~hit
            self._record(message, cycle, hit)
        return False  # never mark: the trajectory is shared

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Composite deadline: the earliest any pending cell can detect.

        None-aware minimum over the attempt-driven families.  For the
        inactivity ladders (ndm eligible = pending *and* seeing G; pdm
        just pending) the per-cell deadline is ``max(cycle+1, A+t+1)``
        with ``A`` the latest occupied feasible channel's counter base —
        unless some feasible channel is frozen at or below t, in which
        case that cell cannot detect before a re-occupation (itself a
        wakeup event).  Each family's deadline is monotone in t, so its
        minimum is realized by the smallest pending threshold; cells
        seeing P become eligible only through a promotion, which wakes
        the parked header itself.  Header timeouts are exact arithmetic
        on the blocking instant.  Periodic cells (source-age,
        injection-stall) detect in the checks phase independent of
        parking, and probe cells detect in the probe phase — their
        reference cadence wakeups are behaviour-free failed attempts
        (engine counters only), so both contribute None here.  Waking at
        the composite, failing the attempt and re-parking walks the
        chain until every cell's exact first-detection cycle has been
        visited.
        """
        input_pc = message.input_pc
        if input_pc is None:
            return None
        pending = self._pending.get(message.id, self._full_mask)
        if not pending:
            return None  # every cell already detected: sleep like marked
        best: Optional[int] = None
        if self._ndm_mask:
            eligible = pending & self._gp_mask[input_pc.index]
            if eligible:
                t_low = self._ndm_ladder[
                    (eligible & -eligible).bit_length() - 1 - self._ndm_base
                ]
                best = self._counter_family_deadline(message, cycle, t_low)
        if self._pdm_mask:
            pdm_pending = pending & self._pdm_mask
            if pdm_pending:
                t_low = self._pdm_ladder[
                    (pdm_pending & -pdm_pending).bit_length()
                    - 1
                    - self._pdm_base
                ]
                d = self._counter_family_deadline(message, cycle, t_low)
                if d is not None and (best is None or d < best):
                    best = d
        if self._timeout_mask:
            timeout_pending = pending & self._timeout_mask
            if timeout_pending and message.blocked_since is not None:
                t_low = self._timeout_ladder[
                    (timeout_pending & -timeout_pending).bit_length()
                    - 1
                    - self._timeout_base
                ]
                d = message.blocked_since + t_low + 1
                if d <= cycle:
                    d = cycle + 1
                if best is None or d < best:
                    best = d
        return best

    @staticmethod
    def _counter_family_deadline(
        message: Message, cycle: int, t_low: int
    ) -> Optional[int]:
        """Earliest all-feasible-inactivity-above-t crossing for ``t_low``."""
        base: Optional[int] = None  # A over occupied feasible channels
        floor: Optional[int] = None  # F: min frozen inactivity
        for pc in message.feasible_pcs:
            if pc.occupied_count:
                start = pc.last_flit_cycle
                if pc.active_since > start:
                    start = pc.active_since
                start += pc.counter_lag
                if base is None or start > base:
                    base = start
            else:
                frozen = pc.inactivity(cycle)
                if floor is None or frozen < floor:
                    floor = frozen
        if floor is not None and t_low >= floor:
            return None  # cannot cross before a re-occupation (a wake)
        if base is None:
            return cycle + 1  # all feasible channels frozen above t_low
        deadline = base + t_low + 1
        return deadline if deadline > cycle else cycle + 1

    # ------------------------------------------------------------------
    # Periodic families (source-age / injection-stall)
    # ------------------------------------------------------------------
    def periodic_check(
        self, active_messages: Iterable[Message], cycle: int
    ) -> List[Message]:
        """Record source-side timeout hits per cell; mark nothing."""
        sa_mask = self._sa_mask
        is_mask = self._is_mask
        in_network = MessageStatus.IN_NETWORK
        for m in active_messages:
            if m.status is not in_network:
                continue
            pending = self._pending.get(m.id, self._full_mask)
            hit = 0
            if sa_mask:
                sa_pending = pending & sa_mask
                if sa_pending and m.inject_cycle is not None:
                    count = bisect_left(
                        self._sa_ladder, cycle - m.inject_cycle
                    )
                    hit |= sa_pending & (((1 << count) - 1) << self._sa_base)
            if is_mask:
                is_pending = pending & is_mask
                if (
                    is_pending
                    and m.flits_at_source > 0
                    and m.last_source_flit_cycle is not None
                ):
                    count = bisect_left(
                        self._is_ladder, cycle - m.last_source_flit_cycle
                    )
                    hit |= is_pending & (((1 << count) - 1) << self._is_base)
            if hit:
                self._pending[m.id] = pending & ~hit
                self._record(m, cycle, hit)
        return []

    # ------------------------------------------------------------------
    # Probe family
    # ------------------------------------------------------------------
    def probe_phase(self, cycle: int) -> List[Message]:
        """Advance every cell's probes; record victims per cell."""
        in_network = MessageStatus.IN_NETWORK
        for unit in self._probe_units:
            for victim in unit.probe_phase(cycle):
                # The reference applies the same screen before handling
                # a probe victim; the pending bit is the per-cell
                # "not yet marked".
                if victim.status is not in_network:
                    continue
                pending = self._pending.get(victim.id, self._full_mask)
                if not (pending >> unit.rank & 1):
                    continue
                self._pending[victim.id] = pending & ~(1 << unit.rank)
                self._record(victim, cycle, 1 << unit.rank)
        return []

    # ------------------------------------------------------------------
    def _record(self, message: Message, cycle: int, hit: int) -> None:
        """Append one detection event per hit cell (ascending ranks)."""
        sim = self.sim
        truly: Optional[bool] = None
        if sim.config.ground_truth_on_detection:
            truly = message in sim._truth_at(cycle)
        node = message.header_router()
        if node is None:  # pragma: no cover - blocked headers sit in-network
            node = message.inject_node
        measuring = sim.measuring
        if truly is None:
            classified = self._unclassified
        elif truly:
            classified = self._true
        else:
            classified = self._false
        mask = hit
        while mask:
            low = mask & -mask
            rank = low.bit_length() - 1
            mask ^= low
            self._detections[rank] += 1
            if measuring:
                self._detections_measured[rank] += 1
            classified[rank] += 1
            self._events[rank].append(
                DetectionEvent(
                    cycle=cycle,
                    message_id=message.id,
                    node=node,
                    mechanism=self._cell_names[rank],
                    truly_deadlocked=truly,
                )
            )

    def fold_cell(self, shared: SimulationStats, rank: int) -> SimulationStats:
        """Per-cell stats for canonical rank ``rank`` from the shared run.

        Only the detection family differs between cells; with
        ``recovery="none"`` a message is detected at most once per cell,
        so event counts equal distinct-message counts.  Probe cells
        additionally get their transport counters (zero on the shared
        stats: the per-cell units never flush).
        """
        detections = int(self._detections[rank])
        detections_measured = int(self._detections_measured[rank])
        changes: Dict[str, Any] = dict(
            detections=detections,
            detections_measured=detections_measured,
            messages_detected=detections,
            messages_detected_measured=detections_measured,
            true_detections=int(self._true[rank]),
            false_detections=int(self._false[rank]),
            unclassified_detections=int(self._unclassified[rank]),
            detection_events=list(self._events[rank]),
            phase_time=dict(shared.phase_time),
            engine_counters=dict(shared.engine_counters),
        )
        unit = self._probe_unit_by_rank.get(rank)
        if unit is not None:
            transport = unit.transport
            changes.update(
                probe_launches=transport.launches,
                probe_hops=transport.hops,
                probe_cycle_detections=transport.cycle_detections,
                probe_deadend_detections=transport.deadend_detections,
                probe_dropped_progress=transport.dropped_progress,
                probe_dropped_dedupe=transport.dropped_dedupe,
                probe_dropped_election=transport.dropped_election,
                probe_dropped_hops=transport.dropped_hops,
                probe_dropped_overflow=transport.dropped_overflow,
                probe_peak_outstanding=transport.peak_outstanding,
            )
        return dataclasses.replace(shared, **changes)

    def describe(self) -> str:
        cells = ", ".join(
            f"{cell.mechanism}:{cell.threshold}" for cell in self.cells
        )
        return f"batch[{cells}]"


#: Retired name from the ndm-only backend (PR 7); kept as an alias so
#: external scripts pinning the old symbol keep importing.
BatchNDMObserver = BatchObserver


class BatchSimulator:
    """One shared trajectory serving many detector cells.

    Args:
        config: any cell's config (its detector cell rides along unless
            superseded); must satisfy :func:`batch_eligible`.
        thresholds: legacy sweep form — the cells are ``config.detector``
            at each threshold, any order, duplicates allowed.
        cells: explicit per-cell detector configs (mixed mechanisms);
            exactly one of ``thresholds``/``cells`` must be given.
        vectorize: swap in the vectorized SoA movement phase
            (:mod:`repro.network.vecmove`) for the shared run; the
            scalar phase is kept when False or when numpy is absent.
            Digest-asserted identical either way.

    Results align with the given cell sequence (duplicates share the
    folded per-cell stats object).
    """

    def __init__(
        self,
        config: SimulationConfig,
        thresholds: Optional[Sequence[int]] = None,
        *,
        cells: Optional[Sequence[DetectorConfig]] = None,
        vectorize: bool = True,
    ) -> None:
        if np is None:
            raise RuntimeError(
                "the batch backend requires numpy (HAVE_NUMPY is False); "
                "run the cells individually instead"
            )
        if (thresholds is None) == (cells is None):
            raise ValueError("pass exactly one of thresholds= or cells=")
        if not batch_eligible(config):
            raise ValueError(
                "config is not batch-shareable: needs a batch_shareable "
                "detector mechanism, recovery='none' and no fault schedule"
            )
        if cells is None:
            assert thresholds is not None
            cell_list = [
                dataclasses.replace(config.detector, threshold=int(t))
                for t in thresholds
            ]
        else:
            cell_list = list(cells)
        self.cells: List[DetectorConfig] = cell_list
        self.thresholds = [int(cell.threshold) for cell in cell_list]
        self.observer = BatchObserver(cell_list)
        run_config = config.replace(engine="batch")
        # The injected observer supersedes the registry detector; anchor
        # the config's cosmetic cell at the canonical first rank.
        run_config.detector.threshold = self.observer.cells[0].threshold
        self.sim = Simulator(run_config, detector=self.observer)
        self.vectorized = False
        if vectorize:
            from repro.network.vecmove import install_vectorized_movement

            self.vectorized = install_vectorized_movement(self.sim)

    def run(self) -> List[SimulationStats]:
        """Advance the shared trajectory; return stats aligned with the
        constructor's cell sequence (duplicates get equal copies)."""
        shared = self.sim.run()
        observer = self.observer
        folded = {
            rank: observer.fold_cell(shared, rank)
            for rank in range(len(observer.cells))
        }
        return [folded[observer.rank_of_cell(cell)] for cell in self.cells]


def run_batch(
    config: SimulationConfig, thresholds: Sequence[int]
) -> List[SimulationStats]:
    """Convenience wrapper: one shared run over a threshold sweep."""
    return BatchSimulator(config, thresholds).run()


def run_batch_cells(
    config: SimulationConfig, cells: Sequence[DetectorConfig]
) -> List[SimulationStats]:
    """Convenience wrapper: one shared run over explicit detector cells."""
    return BatchSimulator(config, cells=cells).run()


# ----------------------------------------------------------------------
# SoA channel-state snapshot (determinism digests, telemetry)
# ----------------------------------------------------------------------

def soa_snapshot(
    sim: Simulator, cycle: int, thresholds: Sequence[int] = ()
) -> Dict[str, Any]:
    """Channel state as integer structure-of-arrays (channel-index order).

    Returns numpy arrays — occupancy counts, free/usable lane masks,
    inactivity counters, G/P flags, and per-threshold I/DT flags packed
    to bits — in a fixed order independent of ``PYTHONHASHSEED``, so
    :func:`soa_digest` is a stable fingerprint of simulated state.
    """
    if np is None:
        raise RuntimeError("soa_snapshot requires numpy")
    channels = sim.channels
    n = len(channels)
    occupied = np.empty(n, dtype=np.int64)
    free_mask = np.empty(n, dtype=np.int64)
    usable_mask = np.empty(n, dtype=np.int64)
    inactivity = np.empty(n, dtype=np.int64)
    gp = np.empty(n, dtype=np.uint8)
    for i, pc in enumerate(channels):
        occupied[i] = pc.occupied_count
        free_mask[i] = pc.free_mask
        usable_mask[i] = pc.usable_mask
        inactivity[i] = pc.inactivity(cycle)
        gp[i] = 1 if pc.gp is _G else 0
    ladder = np.asarray(sorted({int(t) for t in thresholds}), dtype=np.int64)
    snapshot: Dict[str, Any] = {
        "occupied": occupied,
        "free_mask": free_mask,
        "usable_mask": usable_mask,
        "inactivity": inactivity,
        "gp": gp,
        "thresholds": ladder,
    }
    if ladder.size:
        # flags[r, c] == channel c's counter exceeds ladder[r]; packed to
        # bits row-major, the paper's I/DT flag matrix in SoA form.
        flags = inactivity[np.newaxis, :] > ladder[:, np.newaxis]
        snapshot["dt_flags"] = np.packbits(flags, axis=1)
    return snapshot


def soa_digest(snapshot: Dict[str, Any]) -> str:
    """SHA-256 over a snapshot's arrays in fixed key order."""
    if np is None:  # pragma: no cover - callers hold a snapshot already
        raise RuntimeError("soa_digest requires numpy")
    digest = hashlib.sha256()
    for key in sorted(snapshot):
        array = np.ascontiguousarray(snapshot[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def plan_batches(
    configs: Sequence[SimulationConfig],
) -> Tuple[List[List[int]], List[int]]:
    """Group config indices into shareable batches (plus leftovers).

    Returns ``(groups, singles)`` of indices into ``configs``: each
    group holds >= 2 eligible configs equal modulo their detector cell
    (chunked to :data:`MAX_CELLS` *distinct* cells); everything else —
    unshareable configs, lone group members, numpy-less hosts — lands in
    ``singles``.  Order within groups and singles follows the input, so
    planning is deterministic — and because fold results are
    bit-identical to per-cell runs regardless of which cells share a
    trajectory, any partition (e.g. a ``--resume`` regrouping after a
    partial run) produces identical per-cell outcomes.
    """
    singles: List[int] = []
    if not HAVE_NUMPY:
        return [], list(range(len(configs)))
    by_key: Dict[str, List[int]] = {}
    for i, config in enumerate(configs):
        if config.engine == "batch" and batch_eligible(config):
            by_key.setdefault(batch_group_key(config), []).append(i)
        else:
            singles.append(i)
    groups: List[List[int]] = []
    for key in sorted(by_key):
        members = by_key[key]
        if len(members) < 2:
            singles.extend(members)
            continue
        # Chunk by distinct cells; duplicates ride with their cell.
        chunk: List[int] = []
        seen: set = set()
        for i in members:
            ck = detector_cell_key(configs[i].detector)
            if ck not in seen and len(seen) == MAX_CELLS:
                groups.append(chunk)
                chunk, seen = [], set()
            seen.add(ck)
            chunk.append(i)
        if len(chunk) >= 2:
            groups.append(chunk)
        else:
            singles.extend(chunk)
    singles.sort()
    return groups, singles

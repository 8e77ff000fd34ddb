"""Physical and virtual channels with lazy inactivity monitoring.

The detection mechanisms of the paper are built on one counter per physical
output channel that counts cycles of *inactivity while occupied* and resets
whenever a flit crosses the channel (any of its virtual channels).  Keeping a
literal counter would cost O(channels) work per cycle; instead each channel
stores the cycle of the last flit transmission and the cycle at which it last
became occupied, and derives the counter value on demand:

    inactivity(now) = now - max(last_flit_cycle, active_since)   if occupied
                    = frozen value at last release               otherwise

This is exactly the paper's counter at O(1) per event: it advances only
while at least one virtual channel is occupied, resets on every flit, and
— like the hardware, which gates the increment but not the register —
*freezes* (rather than resets) across unoccupied gaps.  The freeze matters
for the paper's Figure 5 situation: a channel freed by recovery and
immediately re-acquired still shows its long inactivity, so the first flit
of the new occupant clears a set I flag and re-labels the tree root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.network.types import GPState, NodeId, PortKind
from repro.network.topology import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.network.message import Message

#: Sentinel meaning "never": far enough in the past that any difference with a
#: real cycle number exceeds every practical threshold.
NEVER = -(1 << 60)

#: Widest channel for which the mask -> free-lane-tuple table is built
#: (the table has 2**num_vcs entries per channel).  Wider channels fall
#: back to scanning ``vcs`` — same result, without the table memory.
MASK_TABLE_MAX_VCS = 8


class VirtualChannel:
    """One virtual channel (lane) of a physical channel.

    Holds at most one *occupant* worm at a time; ``flits`` counts how many of
    the occupant's flits currently sit in this channel's input buffer.  Sink
    channels (ejection ports) consume flits instantly, so their ``flits``
    stays at zero while they are occupied.
    """

    __slots__ = ("pc", "index", "capacity", "occupant", "flits")

    def __init__(self, pc: "PhysicalChannel", index: int, capacity: int) -> None:
        self.pc = pc
        self.index = index
        self.capacity = capacity
        self.occupant: Optional["Message"] = None
        self.flits = 0

    @property
    def is_free(self) -> bool:
        return self.occupant is None

    def allocate(self, message: "Message", cycle: int) -> None:
        """Reserve this virtual channel for ``message``'s worm."""
        if self.occupant is not None:
            raise RuntimeError(
                f"{self} already occupied by message {self.occupant.id}"
            )
        self.pc.free_mask &= ~(1 << self.index)
        self.pc.note_occupied(cycle)
        self.occupant = message

    def release(self, cycle: int) -> None:
        """Free the channel after the occupant's tail passed (or recovery)."""
        if self.occupant is None:
            raise RuntimeError(f"{self} released while already free")
        self.occupant = None
        self.flits = 0
        self.pc.free_mask |= 1 << self.index
        self.pc.note_released(cycle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC({self.pc.describe()}, lane={self.index})"


class PhysicalChannel:
    """A unidirectional physical channel multiplexed into virtual channels.

    One flit per cycle may cross a physical channel regardless of which
    virtual channel it belongs to; ``last_flit_cycle`` doubles as the
    transmit-side bandwidth guard.  ``last_drain_cycle`` is the receive-side
    guard: at most one flit per cycle leaves this channel's input buffers
    through the downstream router's crossbar.

    The channel also carries the state the detection hardware of the paper
    associates with it:

    * the inactivity monitor (see module docstring) read by the I/DT/IF
      flags of the detectors;
    * the per-*input*-channel Generate/Propagate flag (``gp``) used by the
      new detection mechanism (NDM);
    * an optional ``on_i_reset`` callback fired when a flit transmission
      clears an I flag that was set (inactivity exceeded ``i_threshold``),
      which NDM uses to promote P flags back to G (paper, Fig. 5 situation);
    * two references to per-router "all inputs are G" summary flags:
      ``src_all_g`` for the router this channel leaves (an I-flag reset
      here has nothing to promote while it is set) and ``dst_all_g`` for
      the router this channel enters (every P write here clears it).
    """

    __slots__ = (
        "index",
        "kind",
        "src_node",
        "dst_node",
        "direction",
        "vcs",
        "free_mask",
        "lanes_by_mask",
        "occupied_count",
        "last_flit_cycle",
        "active_since",
        "last_drain_cycle",
        "gp",
        "i_threshold",
        "on_i_reset",
        "src_all_g",
        "dst_all_g",
        "waiters",
        "route_waiters",
        "header_waiters",
        "wake_box",
        "_frozen_inactivity",
        "fault_down",
        "stuck_mask",
        "usable_mask",
        "counter_lag",
    )

    def __init__(
        self,
        index: int,
        kind: PortKind,
        src_node: Optional[NodeId],
        dst_node: Optional[NodeId],
        direction: Optional[Direction],
        num_vcs: int,
        buffer_depth: int,
    ) -> None:
        self.index = index
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.direction = direction
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(self, i, buffer_depth) for i in range(num_vcs)
        ]
        # Incremental free-lane structure: bit ``i`` of ``free_mask`` is
        # set iff lane ``i`` is unoccupied, maintained by VirtualChannel
        # allocate/release as two integer ops.  ``lanes_by_mask[mask]``
        # is the precomputed tuple of free lanes for that mask, in
        # lane-index order — the exact order a scan of ``vcs`` would
        # collect them, so ``rng.choice`` over it draws identically.
        # The table is skipped for very wide channels (2**n entries).
        self.free_mask = (1 << num_vcs) - 1
        self.lanes_by_mask: Optional[List[Tuple[VirtualChannel, ...]]] = None
        if num_vcs <= MASK_TABLE_MAX_VCS:
            self.lanes_by_mask = [
                tuple(
                    vc for vc in self.vcs if mask & (1 << vc.index)
                )
                for mask in range(1 << num_vcs)
            ]
        self.occupied_count = 0
        self.last_flit_cycle = NEVER
        self.active_since = NEVER
        self.last_drain_cycle = NEVER
        self.gp = GPState.PROPAGATE
        self.i_threshold: Optional[int] = None
        self.on_i_reset: Optional[Callable[["PhysicalChannel", int], None]] = None
        # The routers' "all inputs are G" summary boxes (Router.all_g),
        # installed by the router wiring.  A side with no router (an
        # injection port's source, an ejection port's sink) keeps this
        # channel's own box, which nothing ever sets.
        unwired = [False]
        self.src_all_g = unwired
        self.dst_all_g = unwired
        # Input channels whose blocked header waits on this output channel
        # (refcounted); maintained only when the selective G/P promotion
        # variant is active.
        self.waiters: Optional[Dict["PhysicalChannel", int]] = None
        # Event-driven quiescence (see repro.network.simulator): parked
        # messages whose feasible set contains this output channel.  They
        # are woken — route_asleep cleared — whenever a lane frees or the
        # channel's inactivity counter resumes from a frozen value (both
        # can only make routing or detection possible *earlier*).
        # Insertion-ordered dicts (values unused) rather than sets: waiter
        # iteration order must not depend on PYTHONHASHSEED.
        self.route_waiters: Optional[Dict["Message", None]] = None
        # Parked messages whose header sits on this (input) channel; woken
        # by a G/P Propagate->Generate promotion (see repro.core.ndm).
        self.header_waiters: Optional[Dict["Message", None]] = None
        # One-element list shared with the simulator, counting messages
        # currently parked for routing; every wake site decrements it so
        # the routing phase knows when its whole pending list is asleep.
        # (A throwaway box until the simulator installs the shared one.)
        self.wake_box: List[int] = [0]
        # Counter value latched when the channel became fully unoccupied;
        # the hardware register keeps its value across unoccupied gaps.
        self._frozen_inactivity = 0
        # --- fault-injection state (see repro.faults) -------------------
        # ``usable_mask`` is the set of lanes routing/injection may
        # allocate: all lanes while healthy, 0 while the link is down,
        # and the complement of ``stuck_mask`` otherwise.  Healthy runs
        # keep it at the all-ones value, so hot paths may AND it in
        # unconditionally.  ``counter_lag`` distorts the inactivity
        # reading (frozen/delayed counter faults) without touching the
        # timestamps the bandwidth guards depend on; it can only move a
        # threshold crossing *later*, so cached detection deadlines stay
        # valid lower bounds.
        self.fault_down = False
        self.stuck_mask = 0
        self.usable_mask = (1 << num_vcs) - 1
        self.counter_lag = 0

    # ------------------------------------------------------------------
    # Occupancy bookkeeping (called by VirtualChannel)
    # ------------------------------------------------------------------
    def note_occupied(self, cycle: int) -> None:
        """Register one more occupied lane (starts/resumes the counter)."""
        if self.occupied_count == 0:
            # Resume the counter from its frozen value: the virtual start
            # is back-dated so inactivity(cycle) == frozen value now.
            self.active_since = cycle - self._frozen_inactivity
            # The counter starts advancing again, so a parked waiter's
            # detection deadline may now be reachable: wake them all.
            if self.route_waiters:
                box = self.wake_box
                for m in self.route_waiters:
                    if m.route_asleep:
                        m.route_asleep = False
                        box[0] -= 1
        self.occupied_count += 1

    def note_released(self, cycle: int) -> None:
        """Register one freed lane (freezes the counter at zero lanes)."""
        self.occupied_count -= 1
        if self.occupied_count < 0:
            raise RuntimeError(f"{self.describe()}: negative occupancy")
        if self.occupied_count == 0:
            start = self.last_flit_cycle
            if self.active_since > start:
                start = self.active_since
            frozen = cycle - start - self.counter_lag
            self._frozen_inactivity = frozen if frozen > 0 else 0
            # The latched register value already reflects the lag; the
            # counter resumes from it on re-occupation with a clean slate.
            self.counter_lag = 0
        # A freed lane may let a parked header route on its next attempt.
        if self.route_waiters:
            box = self.wake_box
            for m in self.route_waiters:
                if m.route_asleep:
                    m.route_asleep = False
                    box[0] -= 1

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def inactivity(self, cycle: int) -> int:
        """Cycles since the last flit crossed, while at least one VC is held.

        This is the value of the paper's per-channel counter at ``cycle``.
        """
        if self.occupied_count == 0:
            return self._frozen_inactivity
        start = self.last_flit_cycle
        if self.active_since > start:
            start = self.active_since
        value = cycle - start - self.counter_lag
        return value if value > 0 else 0

    def inactivity_deadline(self, threshold: int) -> Optional[int]:
        """First cycle at which ``inactivity(cycle) > threshold`` can hold.

        Assumes no further events on this channel: the returned cycle is a
        *lower bound* on the real crossing (a flit transmission only pushes
        it later; occupancy transitions wake the waiters that cached it).
        Returns ``None`` when the counter is frozen at or below the
        threshold — it cannot cross until the channel is re-occupied.
        A value in the past means the threshold is already exceeded.
        """
        if self.occupied_count == 0:
            if self._frozen_inactivity > threshold:
                return NEVER  # frozen above threshold: holds at any cycle
            return None
        start = self.last_flit_cycle
        if self.active_since > start:
            start = self.active_since
        return start + threshold + 1 + self.counter_lag

    def record_flit(self, cycle: int) -> None:
        """Account for one flit crossing the channel at ``cycle``.

        Resets the inactivity monitor; if that transition clears a set
        I flag, the ``on_i_reset`` hook fires *before* the reset so the
        detector observes the transition (the paper's root-relabeling rule).
        The hook is skipped while the owning router's summary flag says
        it would promote nothing.
        """
        if (
            not self.src_all_g[0]
            and self.i_threshold is not None
            and self.on_i_reset is not None
            and self.occupied_count > 0
        ):
            start = self.last_flit_cycle
            if self.active_since > start:
                start = self.active_since
            if cycle - start - self.counter_lag > self.i_threshold:
                self.on_i_reset(self, cycle)
        self.last_flit_cycle = cycle
        self.counter_lag = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_lanes(self) -> Tuple[VirtualChannel, ...]:
        """The currently unoccupied lanes, in lane-index order.

        Hot paths read ``lanes_by_mask[free_mask]`` inline instead; this
        accessor serves checks, tests and wide-channel fallback.
        """
        table = self.lanes_by_mask
        if table is not None:
            return table[self.free_mask]
        mask = self.free_mask
        return tuple(vc for vc in self.vcs if mask & (1 << vc.index))

    def free_vcs(self) -> List[VirtualChannel]:
        """The currently unoccupied lanes of this channel (index order)."""
        return list(self.free_lanes)

    # ------------------------------------------------------------------
    # Fault state (mutated only by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------
    def recompute_usable(self) -> None:
        """Refresh ``usable_mask`` from ``fault_down`` / ``stuck_mask``.

        A widening recompute (a heal) can unblock parked waiters, but the
        wake is deliberately not issued here: the only caller is
        ``FaultInjector.apply``, which mutates many channels per event and
        ends with one ``sim.wake_all_parked()`` covering them all.
        """
        mask = 0 if self.fault_down else (1 << len(self.vcs)) - 1
        self.usable_mask = mask & ~self.stuck_mask  # repro-lint: disable=EFF002 - FaultInjector.apply wakes after the batch of recomputes

    def usable_free_lanes(self) -> Tuple[VirtualChannel, ...]:
        """Free lanes routing may actually allocate (fault-aware).

        Identical to :attr:`free_lanes` on a healthy channel; hot paths
        inline the ``free_mask & usable_mask`` table lookup instead.
        """
        mask = self.free_mask & self.usable_mask
        table = self.lanes_by_mask
        if table is not None:
            return table[mask]
        return tuple(vc for vc in self.vcs if mask & (1 << vc.index))

    def has_free_vc(self) -> bool:
        """Whether any lane of this channel is unoccupied."""
        return self.occupied_count < len(self.vcs)

    def describe(self) -> str:
        """Short human-readable identity (endpoint nodes and kind)."""
        if self.kind is PortKind.NETWORK:
            return f"net[{self.src_node}->{self.dst_node} dir={self.direction}]"
        if self.kind is PortKind.INJECTION:
            return f"inj[node={self.dst_node}]"
        return f"ej[node={self.src_node}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PC#{self.index} {self.describe()}"

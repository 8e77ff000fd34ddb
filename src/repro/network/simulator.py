"""The flit-level wormhole network simulator.

Synchronous cycle model.  Each cycle runs, in order:

0. fault-schedule edges (optional; see ``repro.faults``) — link windows
   open/close, lanes stick/unstick, counters freeze or lag — applied
   before any phase reads channel state, followed by a conservative wake
   of all parked event-engine state;
1. periodic ground-truth deadlock sweep (optional);
2. source-side detector checks (timeout mechanisms only);
3. **routing**: every pending header (newly arrived or blocked) attempts to
   acquire an output virtual channel; failed attempts feed the detection
   mechanism, which may mark the message and trigger recovery;
4. **movement**: one flit per physical channel per cycle advances, worms
   chain-advance front-to-back, tails release channels, deliveries finish;
5. **injection**: queued messages grab free injection-port VCs, subject to
   the injection limitation mechanism (recovery re-injections are exempt
   and prioritized);
6. **generation**: Bernoulli traffic sources enqueue new messages.

Timing matches the paper's model in the quantities that drive detection:
routing retried every cycle for blocked headers, one flit per cycle per
physical channel (virtual channels time-multiplexed), channel inactivity
measured from the last flit transmission.

Two engines execute this model (``SimulationConfig.engine``); both run
the same phase methods in the same order (:meth:`Simulator.step`):

* ``"scan"`` — the reference: every blocked header re-attempts routing
  and every worm is visited by the movement scan, each cycle.
* ``"event"`` (default) — the event-driven fast path: a blocked header
  whose failed attempt cannot change outcome is *parked* and skipped by
  the scans until a provable wakeup event — a lane freeing or an
  inactivity counter resuming on a feasible channel, a G/P promotion on
  its input channel, or its detector-computed detection deadline
  (re-derived lazily when a flit crossing a feasible channel pushes it
  out); worms with no structurally movable flit likewise park until
  routing grants their header a channel.

Both engines keep the same message lists in the same (rotating) order
and consume the same RNG stream — failed routing attempts draw nothing —
so runs are *bit-identical*: same stats, same traces, same detection
cycles (asserted by ``tests/network/test_engine_equivalence.py``).  The
event engine merely skips work whose outcome is provably unchanged,
which is most of the per-cycle work at and beyond saturation where the
paper's tables are measured.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.deadlock import find_deadlocked
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.metrics.stats import SimulationStats
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import SimulationConfig
from repro.network.kernel import PHASE_SEQUENCE
from repro.network.message import Message
from repro.network.rotating import RotatingList
from repro.network.router import Router
from repro.network.routing import make_routing_function
from repro.network.types import (
    DetectionEvent,
    GPState,
    MessageStatus,
    NodeId,
    PortKind,
)
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.detector import DeadlockDetector
    from repro.network.tracing import Tracer


class Simulator:
    """One simulation instance built from a :class:`SimulationConfig`.

    Args:
        config: the fully resolved run description (validated here).
        detector: optional pre-built detection mechanism to use instead
            of the registry-built one (the model checker and the
            profiling harness inject instrumented detectors).  The
            injected detector must be side-effect-free on the network
            trajectory wherever the registry detector would be.
    """

    def __init__(
        self,
        config: SimulationConfig,
        detector: Optional["DeadlockDetector"] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.topology = config.build_topology()
        self.rng = random.Random(config.seed)
        self.routing_fn = make_routing_function(config.routing)
        # Hoisted off the per-attempt hot path (constant per run).
        self._vc_class_routing = self.routing_fn.uses_vc_classes
        self.workload = Workload(config.traffic, self.topology)

        self.routers: List[Router] = []
        self.channels: List[PhysicalChannel] = []
        self._build_network()

        # Fault injection (see repro.faults): compiled once, applied at
        # the top of every cycle.  ``_faults_on`` gates the (cheap) fault
        # tests on the movement path and the fault-aware oracle, so
        # healthy runs keep their exact pre-fault hot path.
        self._faults_on = bool(config.faults)
        self._fault_injector: Optional[FaultInjector] = None
        if config.faults:
            specs = [FaultSpec.from_dict(d) for d in config.faults]
            self._fault_injector = FaultInjector(self, specs)

        # Imported here, not at module level: repro.core detectors type-hint
        # against network classes, so a module-level import would be cyclic.
        from repro.core.recovery import make_recovery
        from repro.core.registry import make_detector

        self.detector = (
            detector if detector is not None else make_detector(config.detector)
        )
        self.detector.attach(self)
        self.recovery = make_recovery(config.recovery, self)

        self.stats = SimulationStats(
            warmup_cycles=config.warmup_cycles,
            measure_cycles=config.measure_cycles,
            num_nodes=self.topology.num_nodes,
            engine=config.engine,
        )
        self._phase_time = self.stats.phase_time
        for name in PHASE_SEQUENCE:
            self._phase_time[name] = 0.0

        # Per-phase wall-clock timing is opt-in: the seven perf_counter
        # calls per cycle are measurable on the hot path (see
        # docs/performance.md), so step() skips them unless profiling.
        self._profile = config.profile_phases
        # Event engine state.  Parking is only sound when the detector has
        # no per-attempt side effects on blocked messages.
        self._park_enabled = config.engine == "event"
        self._detector_can_sleep = self.detector.can_sleep_blocked
        # Probe-family detectors get a dedicated out-of-band phase between
        # checks and routing; for every other detector the gate stays
        # False and step() never pays for the extra call.
        self._probe_phase_on = self.detector.has_probe_phase
        #: (deadline_cycle, seq, message) heap of sleeping headers whose
        #: detector predicate can first become true at deadline_cycle.
        self._route_deadlines: List[Tuple[int, int, Message]] = []
        self._deadline_seq = 0
        #: Shared one-element counter of currently route-parked messages;
        #: channels and the NDM decrement it on wake, so the routing phase
        #: can tell in O(1) when its entire pending list is asleep.
        self._route_parked_box: List[int] = [0]
        for pc in self.channels:
            pc.wake_box = self._route_parked_box
        #: Count of currently move-parked worms (simulator-internal: the
        #: only wake sites are routing grants and worm teardown).
        self._move_parked = 0
        # Work counters (flushed to stats.engine_counters by run()).
        self._n_route_attempts = 0
        self._n_route_skips = 0
        self._n_route_parks = 0
        self._n_move_visits = 0
        self._n_move_skips = 0
        self._n_move_parks = 0
        self._n_deadline_wakeups = 0

        self.cycle = 0
        self.measuring = False
        self._input_limit = config.crossbar_input_limit
        #: Optional structured event recorder (see repro.network.tracing);
        #: assign a Tracer instance to enable, None keeps the hot path free.
        self.tracer: Optional[Tracer] = None
        self.generation_enabled = True
        self._next_message_id = 0
        # Rotating structures: the conceptual (reference-engine) order is
        # ``items[rot:] + items[:rot] + tail``; the phase loops advance
        # the cursor instead of materializing the per-cycle rotation.
        self.active_messages = RotatingList()
        self.pending_route = RotatingList()
        self.source_queues: List[Deque[Message]] = [
            deque() for _ in range(self.topology.num_nodes)
        ]
        self.recovery_queues: Dict[NodeId, Deque[Message]] = {}
        self._nodes_with_source: Set[NodeId] = set()
        self.injection_limits: List[Optional[int]] = [
            config.injection_limit(r.total_network_vcs()) for r in self.routers
        ]
        self._truth_cache_cycle = -1
        self._truth_cache: Set[Message] = set()
        self._ever_deadlocked: Set[int] = set()
        # (ready_cycle, seq, message) heap of recovery-lane deliveries.
        self._recovery_deliveries: List[Tuple[int, int, Message]] = []
        self._recovery_seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        cfg = self.config
        topo = self.topology
        self.routers = [Router(n) for n in range(topo.num_nodes)]
        index = 0
        for node in range(topo.num_nodes):
            for direction, neighbor in topo.neighbors(node):
                pc = PhysicalChannel(
                    index,
                    PortKind.NETWORK,
                    node,
                    neighbor,
                    direction,
                    cfg.vcs_per_channel,
                    cfg.buffer_depth,
                )
                index += 1
                self.channels.append(pc)
                self.routers[node].add_output(direction, pc)
                self.routers[neighbor].add_input(pc)
        for node in range(topo.num_nodes):
            for _ in range(cfg.injection_ports):
                pc = PhysicalChannel(
                    index,
                    PortKind.INJECTION,
                    None,
                    node,
                    None,
                    cfg.vcs_per_channel,
                    cfg.buffer_depth,
                )
                index += 1
                self.channels.append(pc)
                self.routers[node].add_injection(pc)
            for _ in range(cfg.ejection_ports):
                pc = PhysicalChannel(
                    index,
                    PortKind.EJECTION,
                    node,
                    None,
                    None,
                    cfg.vcs_per_channel,
                    cfg.buffer_depth,
                )
                index += 1
                self.channels.append(pc)
                self.routers[node].add_ejection(pc)

    # ------------------------------------------------------------------
    # Top-level control
    # ------------------------------------------------------------------
    def run(
        self, on_cycle: Optional[Callable[[int], None]] = None
    ) -> SimulationStats:
        """Run warmup + measurement (+ optional drain); return statistics.

        ``on_cycle``, if given, is called after every completed cycle with
        the cycle index just simulated — the conformance harness uses it
        to sweep the ground-truth oracle per cycle without duplicating
        this drive loop.  Passing ``None`` costs nothing.
        """
        cfg = self.config
        total = cfg.warmup_cycles + cfg.measure_cycles
        while self.cycle < total:
            self.step()
            if on_cycle is not None:
                on_cycle(self.cycle - 1)
        if cfg.drain_cycles > 0:
            self.generation_enabled = False
            self.measuring = False
            deadline = self.cycle + cfg.drain_cycles
            # In-flight traffic also lives in the recovery-lane delivery
            # heap and the recovery re-injection queues; stopping while
            # either is non-empty would silently drop those messages.
            while self.cycle < deadline and (
                self.active_messages
                or self._recovery_deliveries
                or self.recovery_queues
                or any(self.source_queues)
            ):
                self.step()
                if on_cycle is not None:
                    on_cycle(self.cycle - 1)
        self.stats.cycles_run = self.cycle
        self.flush_engine_counters()
        return self.stats

    def flush_engine_counters(self) -> None:
        """Copy the engine work counters into ``stats.engine_counters``.

        ``run()`` calls this automatically; call it manually after driving
        the simulator via :meth:`step` if you want the telemetry.
        """
        c = self.stats.engine_counters
        c["route_attempts"] = self._n_route_attempts
        c["route_parked_skips"] = self._n_route_skips
        c["route_parks"] = self._n_route_parks
        c["move_visits"] = self._n_move_visits
        c["move_parked_skips"] = self._n_move_skips
        c["move_parks"] = self._n_move_parks
        c["deadline_wakeups"] = self._n_deadline_wakeups

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        cfg = self.config
        if cycle == cfg.warmup_cycles:
            self.measuring = True
        if cycle == cfg.warmup_cycles + cfg.measure_cycles:
            self.measuring = False

        # Fault edges land before any phase reads channel state, so a
        # window boundary affects the whole cycle on both engines alike.
        injector = self._fault_injector
        if injector is not None:
            injector.apply(cycle)

        # The phases run in PHASE_SEQUENCE order; the engines differ only
        # in which work the phases may park.
        if self._profile:
            self._step_profiled(cycle)
        else:
            self._checks_phase(cycle)
            if self._probe_phase_on:
                self._probes_phase(cycle)
            self._routing_phase(cycle)
            self._movement_phase(cycle)
            self._injection_phase(cycle)
            if self.generation_enabled:
                self._generation_phase(cycle)
        self.cycle = cycle + 1

    def _step_profiled(self, cycle: int) -> None:
        """The phases of :meth:`step`, each timed into ``stats.phase_time``."""
        t0 = perf_counter()
        self._checks_phase(cycle)
        t1 = perf_counter()
        if self._probe_phase_on:
            self._probes_phase(cycle)
        t2 = perf_counter()
        self._routing_phase(cycle)
        t3 = perf_counter()
        self._movement_phase(cycle)
        t4 = perf_counter()
        self._injection_phase(cycle)
        t5 = perf_counter()
        if self.generation_enabled:
            self._generation_phase(cycle)
        t6 = perf_counter()
        pt = self._phase_time
        pt["checks"] += t1 - t0
        pt["probes"] += t2 - t1
        pt["routing"] += t3 - t2
        pt["movement"] += t4 - t3
        pt["injection"] += t5 - t4
        pt["generation"] += t6 - t5

    # ------------------------------------------------------------------
    # Phases 1-2: ground truth, recovery-lane completions, source checks
    # ------------------------------------------------------------------
    def _checks_phase(self, cycle: int) -> None:
        interval = self.config.ground_truth_interval
        if interval and cycle and cycle % interval == 0:
            self._truth_sweep(cycle)

        if self._recovery_deliveries:
            self._complete_recovery_deliveries(cycle)

        if self.detector.needs_periodic_check:
            for m in self.detector.periodic_check(self.active_messages, cycle):
                if m.status is MessageStatus.IN_NETWORK and not m.marked_deadlocked:
                    self._handle_detection(m, cycle)

    # ------------------------------------------------------------------
    # Phase 2b: out-of-band probe transport (probe-family detectors only)
    # ------------------------------------------------------------------
    def _probes_phase(self, cycle: int) -> None:
        """Advance the detector's probe transport by one out-of-band hop.

        Runs after checks and before routing so probes observe the same
        wait-graph snapshot the oracle graded at the previous cycle's end,
        identically under both engines (parked headers keep their cached
        feasible sets, which is all the transport reads).  Victims elected
        by returning probes enter the normal recovery path exactly like
        periodic-check detections.
        """
        for victim in self.detector.probe_phase(cycle):
            if (
                victim.status is MessageStatus.IN_NETWORK
                and not victim.marked_deadlocked
            ):
                self._handle_detection(victim, cycle)

    # ------------------------------------------------------------------
    # Phase 3: routing
    # ------------------------------------------------------------------
    def _routing_phase(self, cycle: int) -> None:
        deadlines = self._route_deadlines
        if deadlines:
            box = self._route_parked_box
            while deadlines and deadlines[0][0] <= cycle:
                m = heapq.heappop(deadlines)[2]
                if m.route_asleep:
                    m.route_asleep = False
                    box[0] -= 1
                    self._n_deadline_wakeups += 1
        plist = self.pending_route
        if plist.tail:
            # Headers appended by the last movement phase: splice them in
            # at the conceptual end before this cycle's rotated visit.
            plist.fold()
        items = plist.items
        n = len(items)
        if not n:
            return
        start = plist.rot + cycle % n
        if start >= n:
            start -= n
        if self._route_parked_box[0] == n:
            # Every pending header is asleep (and therefore IN_NETWORK —
            # any status change wakes it): the reference scan would fail
            # every attempt and rebuild the list in rotated order.  The
            # cursor advance IS that rotation: O(1), no copy, no visits.
            plist.rot = start
            self._n_route_skips += n
            return
        if start:
            order = items[start:]
            order += items[:start]
        else:
            order = items
        survivors: Optional[List[Message]] = None
        sappend: Optional[Callable[[Message], None]] = None
        n_attempts = 0
        n_skips = 0
        in_network = MessageStatus.IN_NETWORK
        for pos, m in enumerate(order):
            if m.status is not in_network:
                # Recovered/removed since it was queued: drop it, as the
                # reference rebuild would.  Everything visited before the
                # first drop survived — backfill once, then append.
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
                continue
            if m.route_asleep:
                # Parked: the attempt would fail without side effects, so
                # skip it.  The message stays at the same position in the
                # visit order, keeping the rotation (and therefore the
                # RNG stream) identical to the reference scan engine.
                n_skips += 1
                if sappend is not None:
                    sappend(m)
                continue
            n_attempts += 1
            if self._attempt_route(m, cycle) or m.status is not in_network:
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
            elif sappend is not None:
                sappend(m)
        # Nothing dropped: the visit order itself is the new conceptual
        # order — adopt it wholesale, no per-message rebuild.
        plist.items = order if survivors is None else survivors
        plist.rot = 0
        self._n_route_attempts += n_attempts
        self._n_route_skips += n_skips

    def _park_blocked(self, m: Message, cycle: int) -> None:
        """Put a freshly failed header to sleep until a wakeup event.

        Sound because (a) a failed attempt proves no allowed VC is free,
        and any later free lane triggers ``note_released`` which clears
        ``route_asleep``; (b) the detector predicate can only first hold
        at ``blocked_deadline`` — earlier only if an inactivity counter
        restarts (``note_occupied`` wake) or the input channel is promoted
        to G (``header_waiters`` wake), each of which re-parks with a
        recomputed deadline on the next failed attempt.
        """
        if not m.wait_registered:
            # Waiter collections are insertion-ordered dicts, not sets:
            # the wake loops iterate them, and iteration order must not
            # depend on PYTHONHASHSEED (see DET003 in repro.lint).
            m.wait_registered = True
            for pc in m.feasible_pcs:
                waiters = pc.route_waiters
                if waiters is None:
                    waiters = pc.route_waiters = {}
                waiters[m] = None
            ipc = m.input_pc
            if ipc is not None:
                hwaiters = ipc.header_waiters
                if hwaiters is None:
                    hwaiters = ipc.header_waiters = {}
                hwaiters[m] = None
        if m.marked_deadlocked:
            # Already detected (recovery "none"): only a VC release matters.
            m.route_asleep = True
            self._route_parked_box[0] += 1
            self._n_route_parks += 1
            return
        deadline = self.detector.blocked_deadline(m, cycle)
        if deadline is None:
            m.route_asleep = True
        elif deadline > cycle:
            m.route_asleep = True
            self._deadline_seq += 1
            heapq.heappush(
                self._route_deadlines, (deadline, self._deadline_seq, m)
            )
        else:
            return  # inconsistent deadline; stay awake (reference behaviour)
        self._route_parked_box[0] += 1
        self._n_route_parks += 1

    def wake_all_parked(self) -> None:
        """Clear every park flag (fault edges invalidate parking proofs).

        Called by the fault injector whenever a fault appears or heals: a
        healed link can make a parked header's attempt succeed and let a
        wedged worm drain, and no channel-level wake event fires for
        either, so everything re-evaluates on the next scan.  Purely
        conservative — a spurious wake re-attempts, fails without side
        effects, and re-parks — so both engines stay bit-identical.
        Waiter registrations and queued heap deadlines stay in place
        (stale heap entries are skipped when they pop).
        """
        box = self._route_parked_box
        moves = 0
        for m in self.active_messages:
            if m.route_asleep:
                m.route_asleep = False
                box[0] -= 1
            if m.move_asleep:
                m.move_asleep = False
                moves += 1
        self._move_parked -= moves

    def _unregister_parked(self, m: Message) -> None:
        """Drop ``m`` from all waiter maps (before feasible_pcs is cleared)."""
        m.wait_registered = False
        for pc in m.feasible_pcs:
            if pc.route_waiters is not None:
                pc.route_waiters.pop(m, None)
        ipc = m.input_pc
        if ipc is not None and ipc.header_waiters is not None:
            ipc.header_waiters.pop(m, None)

    def _attempt_route(self, m: Message, cycle: int) -> bool:
        """Try to allocate an output VC for ``m``'s header; True on success."""
        node = m.header_router()
        router = self.routers[node]
        if m.first_attempt_done:
            candidates = m.feasible_pcs
        elif m.dest == node:
            candidates = tuple(router.ejection_pcs)
        else:
            dirs = self.routing_fn.candidates(self.topology, node, m.dest)
            candidates = tuple(router.output_pcs[d] for d in dirs)

        free: Sequence[VirtualChannel]
        if self._vc_class_routing:
            allowed = m.feasible_vcs
            if allowed is None:
                allowed = tuple(
                    vc
                    for pc in candidates
                    for vc in self.routing_fn.allowed_vcs(
                        self.topology, pc, node, m.dest
                    )
                )
            if self._faults_on:
                free = [
                    vc
                    for vc in allowed
                    if vc.occupant is None
                    and (vc.pc.usable_mask >> vc.index) & 1
                ]
            else:
                free = [vc for vc in allowed if vc.occupant is None]
        else:
            allowed = None
            # The free lanes of each candidate come from the incremental
            # per-channel mask (kept lane-index-ordered via the mask ->
            # lanes table), so no rescan of ``pc.vcs`` per attempt.  The
            # tuples are read-only snapshots — safe to alias.  ANDing in
            # ``usable_mask`` (all-ones on healthy channels) filters out
            # faulted lanes at the cost of one integer op.
            if len(candidates) == 1:
                pc = candidates[0]
                table = pc.lanes_by_mask
                free = (
                    table[pc.free_mask & pc.usable_mask]
                    if table is not None
                    else pc.usable_free_lanes()
                )
            else:
                acc: List[VirtualChannel] = []
                for pc in candidates:
                    table = pc.lanes_by_mask
                    acc += (
                        table[pc.free_mask & pc.usable_mask]
                        if table is not None
                        else pc.usable_free_lanes()
                    )
                free = acc
        if free:
            vc = free[0] if len(free) == 1 else self.rng.choice(free)
            vc.allocate(m, cycle)
            if vc.pc.kind is PortKind.NETWORK:
                router.note_network_vc_allocated()
            m.allocated_vc = vc
            self.detector.on_message_routed(m, cycle)
            if m.wait_registered:
                self._unregister_parked(m)
            if m.move_asleep:
                self._move_parked -= 1
            m.reset_routing_state()
            if self.tracer is not None:
                self.tracer.record(("route", cycle, m.id, node, vc.pc.index))
            return True

        first = not m.first_attempt_done
        if first:
            m.first_attempt_done = True
            m.blocked_since = cycle
            m.feasible_pcs = candidates
            m.feasible_vcs = allowed
            if self.tracer is not None:
                self.tracer.record(("block", cycle, m.id, node))
        if not m.marked_deadlocked and self.detector.on_blocked_attempt(
            m, router, cycle, first
        ):
            self._handle_detection(m, cycle)
        elif self._park_enabled and (
            self._detector_can_sleep or m.marked_deadlocked
        ):
            self._park_blocked(m, cycle)
        return False

    # ------------------------------------------------------------------
    # Phase 4: movement
    # ------------------------------------------------------------------
    def _movement_phase(self, cycle: int) -> None:
        alist = self.active_messages
        if alist.tail:
            # Messages injected last cycle: splice at the conceptual end.
            alist.fold()
        items = alist.items
        n = len(items)
        if not n:
            return
        start = alist.rot + cycle % n
        if start >= n:
            start -= n
        if self._move_parked == n:
            # Every worm is frozen (hence IN_NETWORK — teardown and
            # routing grants both unpark): the reference scan would move
            # nothing and rebuild the list in rotated order, which the
            # cursor advance expresses in O(1).
            alist.rot = start
            self._n_move_skips += n
            return
        if start:
            order = items[start:]
            order += items[:start]
        else:
            order = items
        survivors: Optional[List[Message]] = None
        sappend: Optional[Callable[[Message], None]] = None
        park = self._park_enabled
        n_visits = 0
        n_skips = 0
        in_network = MessageStatus.IN_NETWORK
        for pos, m in enumerate(order):
            if m.status is not in_network:
                m.in_active = False
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
                continue
            if m.move_asleep:
                # Structurally frozen worm: stays at the same position in
                # the visit order, woken by a routing grant.
                n_skips += 1
                if sappend is not None:
                    sappend(m)
                continue
            n_visits += 1
            frozen = self._advance_message(m, cycle)
            if m.status is in_network:
                if sappend is not None:
                    sappend(m)
                if park and frozen and m.spans:
                    m.move_asleep = True
                    self._move_parked += 1
                    self._n_move_parks += 1
            else:
                m.in_active = False
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
        alist.items = order if survivors is None else survivors
        alist.rot = 0
        self._n_move_visits += n_visits
        self._n_move_skips += n_skips

    @staticmethod
    def _worm_immovable(m: Message) -> bool:
        """True if no flit of ``m`` can advance at any future cycle until
        its header is granted an output VC.

        Checks only *structural* conditions (full downstream buffers, no
        ejection sink, source flits against a full first span); per-cycle
        bandwidth guards are transient and deliberately ignored, so this
        is conservative: False never parks a movable worm.
        """
        spans = m.spans
        if not spans:
            return False
        for i in range(len(spans) - 1, 0, -1):
            if spans[i - 1].flits == 0:
                continue
            down = spans[i]
            if down.pc.kind is PortKind.EJECTION or down.flits < down.capacity:
                return False
        if m.flits_at_source > 0 and spans[0].flits < spans[0].capacity:
            return False
        return True

    def _advance_message(self, m: Message, cycle: int) -> bool:
        """Advance one worm one cycle; return True if the worm is *frozen*.

        Frozen means structurally immovable: nothing moved this cycle, no
        output VC is granted, and every stalled flit is stopped by a full
        downstream buffer (or a full first span, for source flits) rather
        than by a transient per-cycle bandwidth guard — so no flit of this
        worm can advance at any future cycle until routing grants the
        header an output channel.  The event engine parks frozen worms
        (equivalent to :meth:`_worm_immovable`, which the invariant
        checker uses as the independent specification).
        """
        frozen = True
        spans = m.spans
        ejection = PortKind.EJECTION
        input_limit = self._input_limit
        # Fault guards are gated on one bool so healthy runs skip them.
        # A fault-blocked flit is *not* structural blockage: ``frozen``
        # stays False so the worm is never parked over a fault and simply
        # retries until the window closes (fault edges also wake all
        # parked state, so pre-existing parks cannot strand a worm).
        faults = self._faults_on
        # -- header into its granted output VC --------------------------
        avc = m.allocated_vc
        if avc is not None:
            frozen = False  # granted channel: advances now or next cycle
            tpc = avc.pc
            if faults and (
                not (tpc.usable_mask >> avc.index) & 1
                or (
                    spans
                    and (spans[-1].pc.stuck_mask >> spans[-1].index) & 1
                )
            ):
                pass  # granted lane dark or header's buffer stuck: hold
            elif tpc.last_flit_cycle != cycle:
                ok = True
                if spans and input_limit:
                    spc = spans[-1].pc
                    if spc.last_drain_cycle == cycle:
                        ok = False
                if ok:
                    if spans:
                        head = spans[-1]
                        head.flits -= 1
                        if input_limit:
                            head.pc.last_drain_cycle = cycle
                    else:
                        m.flits_at_source -= 1
                        m.last_source_flit_cycle = cycle
                        if m.inject_cycle is None:
                            m.inject_cycle = cycle
                            if self.tracer is not None:
                                self.tracer.record(
                                    ("inject", cycle, m.id, m.inject_node)
                                )
                            if not m.ever_injected:
                                m.ever_injected = True
                                self.stats.injected += 1
                                if self.measuring:
                                    self.stats.injected_measured += 1
                    tpc.record_flit(cycle)
                    if tpc.kind is ejection:
                        m.flits_delivered += 1
                        spans.append(avc)
                        m.allocated_vc = None
                    else:
                        avc.flits += 1
                        spans.append(avc)
                        m.allocated_vc = None
                        # Header buffered at the next router: needs routing.
                        self.pending_route.append(m)

        # -- body flits, front (header side) to back (tail side) --------
        # The structural test (full downstream buffer) runs before the
        # per-cycle bandwidth guards: all are pure reads, so the movement
        # outcome is unchanged, and a pair stopped only by a transient
        # guard is recognized as movable-later (not frozen).  The loop
        # walks adjacent (up, down) pairs with a rolling ``down``.  The
        # room test admits ejection sinks too (they hold 0 flits and have
        # capacity >= 1); the sink kind is read only when a flit moves.
        if len(spans) > 1:
            pairs = reversed(spans)
            down = next(pairs)
            for up in pairs:
                if up.flits and down.flits < down.capacity:
                    frozen = False
                    dpc = down.pc
                    if faults and (
                        not (dpc.usable_mask >> down.index) & 1
                        or (up.pc.stuck_mask >> up.index) & 1
                    ):
                        pass  # link down or a stuck lane on the hop
                    elif dpc.last_flit_cycle != cycle and (
                        not input_limit or up.pc.last_drain_cycle != cycle
                    ):
                        up.flits -= 1
                        if input_limit:
                            up.pc.last_drain_cycle = cycle
                        # PhysicalChannel.record_flit, inlined: this is
                        # the hottest flit-accounting site (every
                        # body-flit hop).  ``down`` is held by this worm,
                        # so the channel is occupied, and a hook is only
                        # ever armed together with its threshold.  A set
                        # router summary means the hook would promote
                        # nothing: skip the inactivity arithmetic.
                        if not dpc.src_all_g[0]:
                            hook = dpc.on_i_reset
                            if hook is not None:
                                start_ = dpc.last_flit_cycle
                                if dpc.active_since > start_:
                                    start_ = dpc.active_since
                                if cycle - start_ - dpc.counter_lag > dpc.i_threshold:  # type: ignore[operator]
                                    hook(dpc, cycle)
                        dpc.last_flit_cycle = cycle
                        if faults:
                            # Only the fault injector makes the lag
                            # non-zero.
                            dpc.counter_lag = 0
                        if dpc.kind is ejection:
                            m.flits_delivered += 1
                        else:
                            down.flits += 1
                down = up

        # -- source flits into the injection VC -------------------------
        if m.flits_at_source > 0 and spans:
            first = spans[0]
            if first.flits < first.capacity:
                frozen = False
                fpc = first.pc
                if faults and not (fpc.usable_mask >> first.index) & 1:
                    pass  # injection span faulted: source flits hold
                elif fpc.last_flit_cycle != cycle:
                    m.flits_at_source -= 1
                    m.last_source_flit_cycle = cycle
                    fpc.record_flit(cycle)
                    first.flits += 1

        # -- tail release ------------------------------------------------
        # Guard order: ``flits_at_source`` first — it is non-zero for
        # every worm still injecting, which short-circuits the two
        # list inspections on the common path.
        while m.flits_at_source == 0 and len(spans) > 1 and spans[0].flits == 0:
            self._release_vc(spans.pop(0), cycle)
            frozen = False

        # -- delivery ------------------------------------------------------
        if m.flits_delivered == m.length:
            for vc in spans:
                self._release_vc(vc, cycle)
            spans.clear()
            self._finish_delivery(m, cycle)
        return frozen

    def _finish_delivery(self, m: Message, cycle: int) -> None:
        m.status = MessageStatus.DELIVERED
        m.deliver_cycle = cycle
        if self.tracer is not None:
            self.tracer.record(("deliver", cycle, m.id, m.dest))
        st = self.stats
        st.delivered += 1
        st.flits_delivered += m.length
        if self.measuring:
            st.delivered_measured += 1
            st.flits_delivered_measured += m.length
            if m.counted:
                latency = cycle - m.gen_cycle
                st.latency_sum += latency
                if m.inject_cycle is not None:
                    st.network_latency_sum += cycle - m.inject_cycle
                st.latency_count += 1
                if latency > st.max_latency:
                    st.max_latency = latency

    # ------------------------------------------------------------------
    # Phase 5: injection
    # ------------------------------------------------------------------
    def _injection_phase(self, cycle: int) -> None:
        # Recovery re-injections first: priority and exempt from limitation.
        if self.recovery_queues:
            done = []
            for node, queue in self.recovery_queues.items():
                router = self.routers[node]
                while queue:
                    vc = router.free_injection_vc()
                    if vc is None:
                        break
                    self._start_injection(queue.popleft(), vc, cycle)
                if not queue:
                    done.append(node)
            for node in done:
                del self.recovery_queues[node]

        if not self._nodes_with_source:
            return
        drained = []
        for node in self._nodes_with_source:
            queue = self.source_queues[node]
            router = self.routers[node]
            limit = self.injection_limits[node]
            while queue:
                if limit is not None and router.busy_network_vcs > limit:
                    break
                vc = router.free_injection_vc()
                if vc is None:
                    break
                self._start_injection(queue.popleft(), vc, cycle)
            if not queue:
                drained.append(node)
        for node in drained:
            self._nodes_with_source.discard(node)

    def _start_injection(self, m: Message, vc: VirtualChannel, cycle: int) -> None:
        vc.allocate(m, cycle)
        m.allocated_vc = vc
        m.status = MessageStatus.IN_NETWORK
        if not m.in_active:
            m.in_active = True
            self.active_messages.append(m)

    # ------------------------------------------------------------------
    # Phase 6: generation
    # ------------------------------------------------------------------
    def _generation_phase(self, cycle: int) -> None:
        p = self.workload.generation_probability
        if p <= 0.0:
            return
        # Per-node Bernoulli draws from the single seeded ``random.Random``
        # stream, drawn in node order *before* any destination/length
        # draws.  Deliberately backend-free: a (config, seed) pair must
        # produce the same run on every host (see
        # tests/network/test_determinism.py).
        num = self.topology.num_nodes
        rng_random = self.rng.random
        sources = [n for n in range(num) if rng_random() < p]
        for source in sources:
            self._generate_at(source, cycle)

    def _generate_at(self, source: NodeId, cycle: int) -> None:
        draw = self.workload.pattern.destination(source, self.rng)
        if draw is None:
            return
        limit = self.config.source_queue_limit
        queue = self.source_queues[source]
        if limit and len(queue) >= limit:
            self.stats.source_queue_drops += 1
            return
        length = self.workload.lengths.draw(self.rng)
        m = Message(self._next_message_id, source, draw, length, cycle)
        self._next_message_id += 1
        m.counted = self.measuring
        self.stats.generated += 1
        if self.measuring:
            self.stats.generated_measured += 1
        queue.append(m)
        self._nodes_with_source.add(source)

    # ------------------------------------------------------------------
    # Detection & recovery plumbing
    # ------------------------------------------------------------------
    def _handle_detection(self, m: Message, cycle: int) -> None:
        truly: Optional[bool] = None
        if self.config.ground_truth_on_detection:
            truly = m in self._truth_at(cycle)
        node = m.header_router()
        event = DetectionEvent(
            cycle=cycle,
            message_id=m.id,
            node=node if node is not None else m.inject_node,
            mechanism=self.detector.name,
            truly_deadlocked=truly,
        )
        st = self.stats
        st.detection_events.append(event)
        st.detections += 1
        if self.measuring:
            st.detections_measured += 1
        if truly is None:
            st.unclassified_detections += 1
        elif truly:
            st.true_detections += 1
        else:
            st.false_detections += 1
        if m.times_detected == 0:
            st.messages_detected += 1
            if self.measuring:
                st.messages_detected_measured += 1
        m.times_detected += 1
        m.marked_deadlocked = True
        if self.tracer is not None:
            self.tracer.record(
                ("detect", cycle, m.id, event.node, self.detector.name)
            )
        self.recovery.recover(m, cycle)

    def free_worm(self, m: Message, cycle: int) -> None:
        """Release every channel the worm holds (recovery teardown)."""
        if self.tracer is not None:
            node = m.header_router()
            self.tracer.record(
                ("recover", cycle, m.id, node if node is not None else -1)
            )
        self.detector.on_message_removed(m, cycle)
        if m.wait_registered:
            # Before releasing: the releases below would "wake" the dying
            # worm, and reset_for_reinjection clears feasible_pcs.
            self._unregister_parked(m)
        if m.route_asleep:
            m.route_asleep = False
            self._route_parked_box[0] -= 1
        if m.move_asleep:
            m.move_asleep = False
            self._move_parked -= 1
        vcs = list(m.spans)
        if m.allocated_vc is not None:
            vcs.append(m.allocated_vc)
            m.allocated_vc = None
        m.spans = []
        for vc in vcs:
            self._release_vc(vc, cycle)

    def _release_vc(self, vc: VirtualChannel, cycle: int) -> None:
        pc = vc.pc
        vc.release(cycle)
        if pc.kind is PortKind.NETWORK:
            self.routers[pc.src_node].note_network_vc_released()
        self.detector.on_vc_released(vc, cycle)

    def schedule_recovery_delivery(self, m: Message, ready_cycle: int) -> None:
        """Deliver ``m`` through the out-of-band recovery lane at a cycle.

        The worm's channels must already be freed; the message sits in
        node-local software buffers until the lane finishes transferring it.
        """
        m.status = MessageStatus.RECOVERING
        self._recovery_seq += 1
        heapq.heappush(
            self._recovery_deliveries, (ready_cycle, self._recovery_seq, m)
        )

    def _complete_recovery_deliveries(self, cycle: int) -> None:
        heap = self._recovery_deliveries
        while heap and heap[0][0] <= cycle:
            _, _, m = heapq.heappop(heap)
            m.flits_at_source = 0
            m.flits_delivered = m.length
            self._finish_delivery(m, cycle)

    def enqueue_recovery(self, m: Message, node: NodeId) -> None:
        """Queue a progressive-recovery re-injection at ``node``."""
        queue = self.recovery_queues.get(node)
        if queue is None:
            queue = deque()
            self.recovery_queues[node] = queue
        queue.append(m)

    def enqueue_source(self, m: Message, node: NodeId, front: bool = False) -> None:
        """Queue a message at a node's normal source queue."""
        if front:
            self.source_queues[node].appendleft(m)
        else:
            self.source_queues[node].append(m)
        self._nodes_with_source.add(node)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def _truth_at(self, cycle: int) -> Set[Message]:
        """Deadlocked-message set for this cycle (cached per cycle)."""
        if self._truth_cache_cycle != cycle:
            # Under fault schedules the oracle must not count faulted
            # lanes as escapes (a free lane on a dead link frees no one).
            self._truth_cache = find_deadlocked(
                self.active_messages, honor_faults=self._faults_on
            )
            self._truth_cache_cycle = cycle
        return self._truth_cache

    def _truth_sweep(self, cycle: int) -> None:
        deadlocked = self._truth_at(cycle)
        st = self.stats
        st.truth_sweeps += 1
        if deadlocked:
            st.truth_sweeps_with_deadlock += 1
            if len(deadlocked) > st.max_deadlock_set_size:
                st.max_deadlock_set_size = len(deadlocked)
            # Order-insensitive: only ids are unioned into a set.
            for m in deadlocked:  # repro-lint: disable=DET003
                self._ever_deadlocked.add(m.id)
            st.truly_deadlocked_messages = len(self._ever_deadlocked)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples)
    # ------------------------------------------------------------------
    def message_count_in_network(self) -> int:
        """Number of messages currently holding network resources."""
        return sum(
            1
            for m in self.active_messages
            if m.status is MessageStatus.IN_NETWORK
        )

    def check_invariants(self) -> None:
        """Verify global conservation invariants; raise on violation."""
        for m in self.active_messages:
            if m.status is MessageStatus.IN_NETWORK:
                m.check_conservation()
                self._check_parked_state(m)
        for router in self.routers:
            busy = sum(
                1
                for pc in router.output_pc_list
                for vc in pc.vcs
                if vc.occupant is not None
            )
            if busy != router.busy_network_vcs:
                raise AssertionError(
                    f"router {router.node}: busy VC count {router.busy_network_vcs} "
                    f"!= actual {busy}"
                )
        for pc in self.channels:
            occupied = sum(1 for vc in pc.vcs if vc.occupant is not None)
            if occupied != pc.occupied_count:
                raise AssertionError(
                    f"{pc}: occupied_count {pc.occupied_count} != actual {occupied}"
                )
            actual_free = tuple(vc for vc in pc.vcs if vc.occupant is None)
            if actual_free != pc.free_lanes:
                # Order matters too: routing draws rng.choice over these
                # lanes, so a permuted free_lanes silently changes runs.
                raise AssertionError(
                    f"{pc}: free_lanes {pc.free_lanes} != actual free "
                    f"{actual_free} (stale free_mask or misordered table)"
                )
            full = (1 << len(pc.vcs)) - 1
            expected_usable = 0 if pc.fault_down else full & ~pc.stuck_mask
            if pc.usable_mask != expected_usable:
                raise AssertionError(
                    f"{pc}: usable_mask {pc.usable_mask:#x} inconsistent "
                    f"with fault_down={pc.fault_down} "
                    f"stuck_mask={pc.stuck_mask:#x}"
                )
            if pc.counter_lag < 0:
                raise AssertionError(f"{pc}: negative counter_lag")
            if pc.dst_all_g[0] and pc.gp is not GPState.GENERATE:
                # A stale NDM router summary would skip a promotion the
                # simple rule owes this input (see repro.core.ndm).
                raise AssertionError(
                    f"{pc}: router {pc.dst_node} is marked all-G but this "
                    f"input's flag is {pc.gp.value}"
                )
        n_route = sum(1 for m in self.active_messages if m.route_asleep)
        if n_route != self._route_parked_box[0]:
            raise AssertionError(
                f"route-parked count {self._route_parked_box[0]} != actual "
                f"{n_route} (a stale count defeats the all-asleep fast path)"
            )
        n_move = sum(1 for m in self.active_messages if m.move_asleep)
        if n_move != self._move_parked:
            raise AssertionError(
                f"move-parked count {self._move_parked} != actual {n_move}"
            )

    def _check_parked_state(self, m: Message) -> None:
        """Event-engine safety: a parked message must have no way forward.

        A violation means a wakeup event was lost and the fast path could
        diverge from the reference scan (stranding the message).
        """
        if m.route_asleep:
            if not m.wait_registered:
                raise AssertionError(
                    f"message {m.id}: route_asleep but not in any waiter set"
                )
            # usable_mask is all-ones on healthy channels, so the filter
            # is exact for both fault and no-fault runs.
            if m.feasible_vcs is not None:
                free = [
                    vc
                    for vc in m.feasible_vcs
                    if vc.occupant is None
                    and (vc.pc.usable_mask >> vc.index) & 1
                ]
            else:
                free = [
                    vc
                    for pc in m.feasible_pcs
                    for vc in pc.vcs
                    if vc.occupant is None
                    and (pc.usable_mask >> vc.index) & 1
                ]
            if free:
                raise AssertionError(
                    f"message {m.id}: route_asleep with free allowed VC {free[0]}"
                )
        if m.move_asleep:
            if m.allocated_vc is not None:
                raise AssertionError(
                    f"message {m.id}: move_asleep despite a granted output VC"
                )
            if not self._worm_immovable(m):
                raise AssertionError(
                    f"message {m.id}: move_asleep but a flit could advance"
                )

"""NDM — the paper's new deadlock detection mechanism (Section 3).

Hardware model (paper Fig. 6), mapped onto our lazy channel monitors:

* Per physical **output** channel: one inactivity counter and two derived
  flags — ``I`` (counter > t1, with t1 ≈ 1 cycle) and ``DT`` (counter > t2,
  the tuned detection threshold).  We never materialize the flags: they are
  computed from :meth:`PhysicalChannel.inactivity` on demand.
* Per physical **input** channel: one ``G/P`` (Generate/Propagate) flag,
  stored on the channel object.

Protocol, exactly as described in the paper:

1. **First unsuccessful routing attempt** of a message whose header sits at
   input channel ``in``:

   * if ``in`` still has a free virtual channel, the message cannot be the
     last arriver and cannot yet produce deadlock: ``in.gp = P``;
   * else test the ``I`` flags of all feasible outputs — if *any* is clear
     (someone is still advancing and could be the tree root) set
     ``in.gp = G``, otherwise (everyone already blocked; the current
     message is not waiting on the root) set ``in.gp = P``.

2. **Every subsequent unsuccessful attempt**: the message is presumed
   deadlocked iff *all* feasible outputs have ``DT`` set *and*
   ``in.gp == G``.

3. ``in.gp`` resets to ``P`` whenever a message occupying ``in`` is
   successfully routed or one of ``in``'s virtual channels is freed.

4. Whenever a flit transmission clears a set ``I`` flag (a previously
   stalled channel advanced: the advancing message becomes the new tree
   root, the paper's Fig. 5 situation), ``P`` flags are promoted to ``G``.
   The paper evaluates the *simple* variant — promote every flag in the
   router — and mentions a more selective promotion as an open question;
   both are implemented (``selective_promotion``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.detector import DeadlockDetector
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.message import Message
from repro.network.router import Router
from repro.network.types import GPState, PortKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator

_G = GPState.GENERATE
_P = GPState.PROPAGATE


class NewDetectionMechanism(DeadlockDetector):
    """The paper's contribution: tree-root tracking via G/P flags.

    Args:
        threshold: the ``t2`` detection threshold in cycles.
        t1: the ``I``-flag threshold (the paper uses 1 clock cycle).
        selective_promotion: promote only the inputs actually waiting on a
            reactivated output instead of every flag in the router.
    """

    name = "ndm"

    def __init__(
        self, threshold: int, t1: int = 1, selective_promotion: bool = False
    ) -> None:
        super().__init__(threshold)
        if t1 < 1:
            raise ValueError(f"t1 must be >= 1 cycle, got {t1}")
        if t1 >= threshold:
            raise ValueError(
                f"t1 ({t1}) must be well below t2 ({threshold}); the paper "
                "requires t1 << t2"
            )
        self.t1 = t1
        self.selective_promotion = selective_promotion

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Arm every router-output channel's I-flag reset hook.

        Every flag starts at P, so every router's "all inputs are G"
        summary box (``Router.all_g``) starts cleared.  Only the simple
        variant's hook ever sets it.
        """
        super().attach(sim)
        for router in sim.routers:
            router.all_g[0] = False
        for pc in sim.channels:
            pc.gp = _P
            if pc.kind is not PortKind.INJECTION:
                # Output side of some router: arm the I-flag reset hook.
                pc.i_threshold = self.t1
                if self.selective_promotion:
                    pc.on_i_reset = self._on_i_reset
                    pc.waiters = {}
                else:
                    # The simple variant promotes a fixed set of inputs
                    # (all of the owning router's); resolve that set once
                    # here and close over it — the hook fires on every
                    # flit that clears a set I flag, so the per-event
                    # router lookup is worth removing.
                    router = sim.routers[pc.src_node]
                    pc.on_i_reset = self._simple_reset_hook(
                        tuple(router.header_input_pcs()), router.all_g
                    )

    # ------------------------------------------------------------------
    # Routing-attempt protocol
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, message: Message, router: Router, cycle: int, first_attempt: bool
    ) -> bool:
        """Apply the first-attempt G/P rule or the G + all-DT detection."""
        input_pc = message.input_pc
        if input_pc is None:  # pragma: no cover - headers always hold a VC here
            return False
        if first_attempt:
            self._first_attempt(message, input_pc, cycle)
            return False
        if input_pc.gp is not _G:
            return False
        t2 = self.threshold
        for pc in message.feasible_pcs:
            if pc.inactivity(cycle) <= t2:  # some DT flag still clear
                return False
        return True

    def _first_attempt(
        self, message: Message, input_pc: PhysicalChannel, cycle: int
    ) -> None:
        if self.selective_promotion:
            self._register_waiter(message, input_pc)
        if input_pc.occupied_count < len(input_pc.vcs):
            # Some lane of the input channel is still free: this message is
            # not the last arriver and cannot yet produce deadlock.
            self._propagate(input_pc)
            return
        t1 = self.t1
        for pc in message.feasible_pcs:
            if pc.inactivity(cycle) <= t1:
                # A message is advancing across this output: it may be the
                # root of the tree of blocked messages.
                self._promote(input_pc)
                return
        # Every requested channel is held by an already-blocked message:
        # the current message is not waiting on the root.
        self._propagate(input_pc)

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Earliest cycle the G + all-DT predicate can first hold.

        With ``gp == P`` detection is impossible until a promotion (which
        wakes the parked header); with ``gp == G`` it needs every feasible
        output's inactivity to exceed t2, so the binding constraint is the
        *latest* per-channel crossing.  A channel frozen at or below t2
        pushes the deadline to "never" — its counter resumes only on a
        re-occupation, which is itself a wakeup event.
        """
        input_pc = message.input_pc
        if input_pc is None or input_pc.gp is not _G:
            return None
        t2 = self.threshold
        deadline = cycle + 1
        for pc in message.feasible_pcs:
            d = pc.inactivity_deadline(t2)
            if d is None:
                return None
            if d > deadline:
                deadline = d
        return deadline

    # ------------------------------------------------------------------
    # G/P resets and promotions
    # ------------------------------------------------------------------
    def on_message_routed(self, message: Message, cycle: int) -> None:
        """Routing success at an input channel resets its flag to P."""
        input_pc = message.input_pc
        if input_pc is not None:
            self._propagate(input_pc)
        if self.selective_promotion:
            self._unregister_waiter(message)

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        """Freeing any lane of an input channel resets its flag to P."""
        self._propagate(vc.pc)

    def on_message_removed(self, message: Message, cycle: int) -> None:
        """Recovery teardown: drop the worm's waiter registrations."""
        if self.selective_promotion:
            self._unregister_waiter(message)

    def _on_i_reset(self, pc: PhysicalChannel, cycle: int) -> None:
        """A stalled output channel advanced again: relabel tree roots.

        Only armed for the selective variant; the simple variant uses the
        precomputed closure from :meth:`_simple_reset_hook`.
        """
        if pc.waiters:
            for input_pc in pc.waiters:
                self._promote(input_pc)

    def _simple_reset_hook(
        self, targets: Tuple[PhysicalChannel, ...], all_g: List[bool]
    ) -> Callable[[PhysicalChannel, int], None]:
        """Reset hook for the paper's simple promotion rule.

        Changes all P flags in the router that owns the output channel to
        G, then sets the router's summary box ``all_g``: until the next P
        write into one of ``targets`` clears it, a flit clearing an I
        flag on any of the router's outputs skips the hook (it would
        promote nothing) at the cost of one load.
        """
        promote = self._promote

        def hook(pc: PhysicalChannel, cycle: int) -> None:
            for input_pc in targets:
                if input_pc.gp is not _G:
                    promote(input_pc)
            all_g[0] = True

        return hook

    @staticmethod
    def _propagate(input_pc: PhysicalChannel) -> None:
        """Set an input channel's flag to P: the single P-write site.

        Clears the owning router's summary box, so its next I-flag reset
        runs the promotion hook again.
        """
        input_pc.gp = _P
        input_pc.dst_all_g[0] = False

    @staticmethod
    def _promote(input_pc: PhysicalChannel) -> None:
        """Set an input channel's flag to G, waking parked headers on a
        P -> G transition (their detection predicate may now hold)."""
        if input_pc.gp is _G:
            return
        input_pc.gp = _G
        if input_pc.header_waiters:
            box = input_pc.wake_box
            for m in input_pc.header_waiters:
                if m.route_asleep:
                    m.route_asleep = False
                    box[0] -= 1

    # ------------------------------------------------------------------
    # Selective-promotion bookkeeping
    # ------------------------------------------------------------------
    def _register_waiter(self, message: Message, input_pc: PhysicalChannel) -> None:
        for pc in message.feasible_pcs:
            waiters = pc.waiters
            if waiters is None:  # pragma: no cover - armed in attach()
                continue
            waiters[input_pc] = waiters.get(input_pc, 0) + 1

    def _unregister_waiter(self, message: Message) -> None:
        if not message.first_attempt_done:
            return  # never registered (routed on the first try)
        input_pc = message.input_pc
        if input_pc is None:
            return
        for pc in message.feasible_pcs:
            waiters = pc.waiters
            if not waiters:
                continue
            count = waiters.get(input_pc, 0)
            if count <= 1:
                waiters.pop(input_pc, None)
            else:
                waiters[input_pc] = count - 1

    def describe(self) -> str:
        """Short human-readable form including the promotion variant."""
        variant = "selective" if self.selective_promotion else "simple"
        return f"ndm(t1={self.t1}, t2={self.threshold}, promotion={variant})"

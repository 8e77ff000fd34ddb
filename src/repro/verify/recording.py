"""G/P-transition recording and rule conformance for the NDM.

The model checker does not trust the NDM implementation to police
itself: :class:`RecordingNDM` wraps every site that may write a G/P flag,
re-derives the paper's rule from *primitive* channel state (raw
timestamps, occupancy counts — not the helper methods the implementation
itself uses), and records each transition into a per-cycle event log.
After every simulated cycle the driver replays the event log onto the
pre-cycle flag vector and compares with the post-cycle flags: any G/P
write that did not pass through a sanctioned rule site shows up as a
mismatch.

Checked rules (paper, Section 3):

* **first attempt** — ``P`` if the input channel still has a free lane;
  else ``G`` iff some feasible output's inactivity counter is at most
  ``t1``; else ``P``;
* **reset** — routing success at, or a lane release of, an input channel
  resets its flag to ``P``;
* **promotion** — ``P -> G`` happens only during a first-attempt rule
  application or an I-flag reset (a flit crossing a channel whose raw
  inactivity exceeded ``t1``), never anywhere else.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.ndm import NewDetectionMechanism
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.message import Message
from repro.network.types import GPState

_G = GPState.GENERATE
_P = GPState.PROPAGATE

#: One recorded flag write: (channel index, new value is GENERATE).
GPEvent = Tuple[int, bool]


class GPViolation(AssertionError):
    """A G/P transition contradicted the paper's promotion rules."""


def raw_inactivity(pc: PhysicalChannel, cycle: int) -> int:
    """The paper's counter value re-derived from primitive fields.

    Deliberately *not* :meth:`PhysicalChannel.inactivity`: conformance
    checks must not share code with the implementation under test.
    """
    if pc.occupied_count == 0:
        return pc._frozen_inactivity
    start = pc.last_flit_cycle
    if pc.active_since > start:
        start = pc.active_since
    value = cycle - start - pc.counter_lag
    return value if value > 0 else 0


class RecordingNDM(NewDetectionMechanism):
    """NDM subclass that audits every G/P flag write it performs."""

    def __init__(
        self, threshold: int, t1: int = 1, selective_promotion: bool = False
    ) -> None:
        super().__init__(threshold, t1=t1, selective_promotion=selective_promotion)
        #: Flag writes of the cycle currently being simulated.
        self.events: List[GPEvent] = []
        #: Sanctioned promotion context, None outside rule sites.
        self._ctx: Optional[str] = None

    # ------------------------------------------------------------------
    # Rule sites
    # ------------------------------------------------------------------
    def _first_attempt(
        self, message: Message, input_pc: PhysicalChannel, cycle: int
    ) -> None:
        if input_pc.occupied_count < len(input_pc.vcs):
            expected = _P
        else:
            expected = _P
            for pc in message.feasible_pcs:
                if raw_inactivity(pc, cycle) <= self.t1:
                    expected = _G
                    break
        self._ctx = "first-attempt"
        try:
            super()._first_attempt(message, input_pc, cycle)
        finally:
            self._ctx = None
        if input_pc.gp is not expected:
            raise GPViolation(
                f"first-attempt rule: message {message.id} at input channel "
                f"{input_pc.index} should set {expected.value}, "
                f"implementation set {input_pc.gp.value} (cycle {cycle})"
            )
        self.events.append((input_pc.index, expected is _G))

    def on_message_routed(self, message: Message, cycle: int) -> None:
        input_pc = message.input_pc
        super().on_message_routed(message, cycle)
        if input_pc is not None:
            if input_pc.gp is not _P:
                raise GPViolation(
                    f"routed-reset rule: input channel {input_pc.index} not "
                    f"reset to P after message {message.id} routed"
                )
            self.events.append((input_pc.index, False))

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        super().on_vc_released(vc, cycle)
        if vc.pc.gp is not _P:
            raise GPViolation(
                f"release-reset rule: input channel {vc.pc.index} not reset "
                f"to P after lane {vc.index} freed"
            )
        self.events.append((vc.pc.index, False))

    # ------------------------------------------------------------------
    # Promotion sites
    # ------------------------------------------------------------------
    def _promote(self, input_pc: PhysicalChannel) -> None:  # type: ignore[override]
        if self._ctx is None:
            raise GPViolation(
                f"promotion of input channel {input_pc.index} outside any "
                "sanctioned rule site"
            )
        was = input_pc.gp
        NewDetectionMechanism._promote(input_pc)
        if was is not _G:
            self.events.append((input_pc.index, True))

    def _on_i_reset(self, pc: PhysicalChannel, cycle: int) -> None:
        self._check_i_reset(pc, cycle)
        self._ctx = "i-reset"
        try:
            super()._on_i_reset(pc, cycle)
        finally:
            self._ctx = None

    def _simple_reset_hook(
        self, targets: Tuple[PhysicalChannel, ...], all_g: List[bool]
    ) -> Callable[[PhysicalChannel, int], None]:
        # The inner hook gets a private summary box: the router's box
        # stays False, so every I-flag reset reaches the audit below.
        inner = super()._simple_reset_hook(targets, [False])

        def hook(pc: PhysicalChannel, cycle: int) -> None:
            self._check_i_reset(pc, cycle)
            self._ctx = "i-reset"
            try:
                inner(pc, cycle)
            finally:
                self._ctx = None

        return hook

    def _check_i_reset(self, pc: PhysicalChannel, cycle: int) -> None:
        """An I-reset promotion requires the I flag to have been set."""
        if pc.occupied_count == 0:
            raise GPViolation(
                f"I-reset fired on unoccupied channel {pc.index} (cycle {cycle})"
            )
        start = pc.last_flit_cycle
        if pc.active_since > start:
            start = pc.active_since
        if cycle - start - pc.counter_lag <= self.t1:
            raise GPViolation(
                f"I-reset fired on channel {pc.index} whose raw inactivity "
                f"{cycle - start - pc.counter_lag} never exceeded t1={self.t1} "
                f"(cycle {cycle})"
            )


def apply_events(
    pre: Tuple[bool, ...], events: List[GPEvent]
) -> Tuple[bool, ...]:
    """Replay a cycle's recorded flag writes onto the pre-cycle vector."""
    flags = list(pre)
    for index, is_g in events:
        flags[index] = is_g
    return tuple(flags)


def check_gp_writes(
    pre: Tuple[bool, ...],
    post: Tuple[bool, ...],
    events: List[GPEvent],
    cycle: int,
) -> None:
    """Raise unless every G/P delta of the cycle was recorded at a rule site."""
    expected = apply_events(pre, events)
    if expected != post:
        diffs = [
            f"channel {i}: expected {'G' if e else 'P'}, actual {'G' if a else 'P'}"
            for i, (e, a) in enumerate(zip(expected, post))
            if e != a
        ]
        raise GPViolation(
            f"unrecorded G/P writes in cycle {cycle}: " + "; ".join(diffs)
        )

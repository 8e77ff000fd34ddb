"""Deadlock detector interface.

A detector is a passive observer wired into the router pipeline through a
small set of hooks.  All of them correspond to events a real router sees
locally, so every mechanism implemented on top of this interface is
*distributed* in the paper's sense: no global state, no extra signalling
between routers beyond the flow control that wormhole switching already has.

Hook call sites (see ``repro.network.simulator``):

* ``on_blocked_attempt`` — every cycle a blocked header is (re-)routed and
  finds no free virtual channel on any feasible output.  Returning ``True``
  marks the message as deadlocked and triggers recovery.
* ``on_message_routed`` — a header was granted an output virtual channel.
* ``on_vc_released`` — a virtual channel was freed (tail passed, delivery,
  or recovery).
* ``on_message_removed`` — a worm is being torn down by recovery.
* ``periodic_check`` — once per cycle with the active message list; used by
  source-side timeout mechanisms that do not piggyback on header routing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.network.channel import VirtualChannel
from repro.network.message import Message
from repro.network.router import Router

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class DeadlockDetector:
    """Base class: a detector that never detects anything."""

    #: Short name used in configs, stats and reports.
    name = "abstract"

    #: Whether ``periodic_check`` does anything (lets the simulator skip
    #: the per-cycle call for header-side mechanisms).
    needs_periodic_check = False

    #: Whether blocked messages may be parked between routing attempts
    #: under the event-driven engine.  Requires ``on_blocked_attempt`` on
    #: subsequent attempts to be free of side effects and its outcome to
    #: be predictable via :meth:`blocked_deadline` plus the simulator's
    #: wakeup events.  Mechanisms with per-attempt state (e.g. the
    #: ndm-precise witness) must set this to False; their messages then
    #: re-attempt every cycle exactly as under the reference engine.
    can_sleep_blocked = True

    #: Whether :meth:`probe_phase` does anything.  Probe-family detectors
    #: set this to True and the simulator runs a dedicated out-of-band
    #: phase (between checks and routing) every cycle; for every other
    #: detector the phase is skipped entirely.
    has_probe_phase = False

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"detection threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.sim: "Simulator" = None  # type: ignore[assignment]

    def attach(self, sim: "Simulator") -> None:
        """Wire the detector into a built simulator (called once)."""
        self.sim = sim

    # ------------------------------------------------------------------
    # Hooks (default: no-ops)
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, message: Message, router: Router, cycle: int, first_attempt: bool
    ) -> bool:
        """A routing attempt failed; return True to mark ``message``.

        ``message.input_pc`` is the physical input channel holding the
        header and ``message.feasible_pcs`` the cached feasible outputs.
        """
        return False

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Earliest cycle a *future* ``on_blocked_attempt`` could mark
        ``message``, assuming no further network events.

        Contract for the event-driven engine (``engine="event"``): between
        ``cycle`` and the returned deadline the detector must not detect
        the message unless one of the simulator's wakeup events fires (a
        lane freeing or an inactivity counter resuming on a feasible
        channel, or a G/P promotion on the input channel).  ``None`` means
        detection is impossible without such an event.  The default is
        correct for detectors whose ``on_blocked_attempt`` never returns
        True on subsequent attempts (none, source-age, injection-stall).
        """
        return None

    def probe_phase(self, cycle: int) -> List[Message]:
        """Advance out-of-band probes one hop; return elected victims.

        Called once per cycle between the checks and routing phases, but
        only when :attr:`has_probe_phase` is True.  The returned messages
        are handed to the normal detection/recovery path (each guarded
        against having left the network or been marked in the meantime).
        Implementations must read only state that is bit-identical across
        the scan and event engines at this phase boundary — message
        blocking state and channel occupancy, never engine bookkeeping —
        and must not draw from the simulator's RNG.
        """
        return []

    def on_message_routed(self, message: Message, cycle: int) -> None:
        """``message``'s header was granted an output virtual channel."""

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        """A virtual channel was freed."""

    def on_message_removed(self, message: Message, cycle: int) -> None:
        """``message`` is being torn down by the recovery mechanism."""

    def periodic_check(
        self, active_messages: Iterable[Message], cycle: int
    ) -> List[Message]:
        """Messages to mark independent of header routing (source-side)."""
        return []

    def describe(self) -> str:
        return f"{self.name}(threshold={self.threshold})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

"""Crude timeout-based detection mechanisms (the paper's Section 1 survey).

Three classic heuristics are provided as baselines:

* :class:`HeaderBlockedTimeout` — Disha-style (Anjan & Pinkston [2, 3]):
  a message is presumed deadlocked when its header has been continuously
  blocked at a router for more than the threshold.
* :class:`SourceAgeTimeout` — Reeves, Gehringer & Chandiramani [16]: a
  message is presumed deadlocked when the time since it was injected
  exceeds the threshold.
* :class:`InjectionStallTimeout` — Kim, Liu & Chien's compressionless
  routing criterion [10]: deadlock is presumed when the time since the
  *last flit was injected at the source* exceeds the threshold (only
  meaningful while the message still has flits at the source).

The paper reports that its previous mechanism (PDM) already beat crude
timeouts by roughly 10x in false detections, and NDM gains another 10x.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.detector import DeadlockDetector
from repro.network.message import Message
from repro.network.router import Router
from repro.network.types import MessageStatus


class HeaderBlockedTimeout(DeadlockDetector):
    """Mark a message once its header has been blocked for > threshold."""

    name = "timeout"

    def on_blocked_attempt(
        self, message: Message, router: Router, cycle: int, first_attempt: bool
    ) -> bool:
        if message.blocked_since is None:
            return False
        return cycle - message.blocked_since > self.threshold

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """The timeout depends only on the blocking instant — exact."""
        if message.blocked_since is None:
            return None
        return message.blocked_since + self.threshold + 1


class SourceAgeTimeout(DeadlockDetector):
    """Mark a message once its time-in-network exceeds the threshold.

    Checked once per cycle over the active messages, as the original
    proposal detects at the source rather than at the blocked header.  Only
    in-network, not-yet-marked messages are eligible.
    """

    name = "source-age"
    needs_periodic_check = True

    def periodic_check(
        self, active_messages: Iterable[Message], cycle: int
    ) -> List[Message]:
        threshold = self.threshold
        marked = []
        for m in active_messages:
            if (
                m.status is MessageStatus.IN_NETWORK
                and not m.marked_deadlocked
                and m.inject_cycle is not None
                and cycle - m.inject_cycle > threshold
            ):
                marked.append(m)
        return marked


class InjectionStallTimeout(DeadlockDetector):
    """Mark a message when source injection has stalled for > threshold.

    Applies only while the message still has flits waiting at the source:
    once the tail has left, the source can no longer observe the worm.
    """

    name = "injection-stall"
    needs_periodic_check = True

    def periodic_check(
        self, active_messages: Iterable[Message], cycle: int
    ) -> List[Message]:
        threshold = self.threshold
        marked = []
        for m in active_messages:
            if (
                m.status is MessageStatus.IN_NETWORK
                and not m.marked_deadlocked
                and m.flits_at_source > 0
                and m.last_source_flit_cycle is not None
                and cycle - m.last_source_flit_cycle > threshold
            ):
                marked.append(m)
        return marked

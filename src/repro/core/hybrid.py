"""Hybrid detection: NDM with a crude-timeout safety net.

A practical concern the paper leaves open: the NDM suppresses detection
for tree-interior messages (`G/P = P`), relying on *some other* message
detecting the deadlock.  If that message's router mis-classifies (e.g. the
paper's simultaneous-blocking corner cases, or a dropped G due to the
shared per-channel flag), detection latency is unbounded.  The hybrid
mechanism keeps the NDM as the primary detector and adds a per-message
header-blocked timeout at ``fallback_factor x t2`` as a liveness backstop:

* ordinary detections behave exactly like the NDM (same selectivity);
* any message continuously blocked for the (much larger) fallback window
  is marked regardless of its G/P state, bounding worst-case detection
  latency without materially increasing false detections (the fallback
  window is far beyond normal congestion stalls).

This is an *extension* beyond the paper (its Section 5 notes the detection
mechanism "detects all the deadlocks" through the G-holder; the hybrid
makes that guarantee robust to heuristic corner cases).
"""

from __future__ import annotations

from typing import Optional

from repro.core.ndm import NewDetectionMechanism
from repro.network.message import Message
from repro.network.router import Router


class HybridDetection(NewDetectionMechanism):
    """NDM plus a long header-blocked timeout as a liveness backstop."""

    name = "hybrid"

    def __init__(
        self,
        threshold: int,
        t1: int = 1,
        selective_promotion: bool = False,
        fallback_factor: int = 16,
    ) -> None:
        super().__init__(threshold, t1=t1, selective_promotion=selective_promotion)
        if fallback_factor < 2:
            raise ValueError(
                f"fallback_factor must be >= 2, got {fallback_factor}"
            )
        self.fallback_factor = fallback_factor
        self.fallback_threshold = threshold * fallback_factor
        #: Detections raised by the backstop rather than the NDM rule.
        self.fallback_detections = 0

    def on_blocked_attempt(
        self, message: Message, router: Router, cycle: int, first_attempt: bool
    ) -> bool:
        if super().on_blocked_attempt(message, router, cycle, first_attempt):
            return True
        if first_attempt or message.blocked_since is None:
            return False
        if cycle - message.blocked_since > self.fallback_threshold:
            self.fallback_detections += 1
            return True
        return False

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """NDM deadline capped by the (exact) fallback timeout."""
        ndm = super().blocked_deadline(message, cycle)
        if message.blocked_since is None:
            return ndm
        fallback = message.blocked_since + self.fallback_threshold + 1
        if ndm is None or fallback < ndm:
            return fallback
        return ndm

    def describe(self) -> str:
        return (
            f"hybrid(t2={self.threshold}, "
            f"fallback={self.fallback_threshold} cycles)"
        )

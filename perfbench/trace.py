"""In-memory spans and per-call aggregates for the traced run.

Every timed call is a *region*.  Regions nest on a stack, so each one
knows how much of its time its children took; its self time (duration
minus children) is credited to its layer, the name's prefix before the
first dot.  The sum of layer self times over the workload's wall time is
the coverage check.

A region opened with ``span=True`` is also kept as a span record (name,
start, end, parent, cell id) and written out when the run ends.  Per-call
hooks are plain regions: they only add to a count and a seconds total,
which keeps 100k+ calls per run cheap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Region stack, span records and per-name aggregates of one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Self time per layer (the name prefix before the first dot).
        self.layer_self: Dict[str, float] = defaultdict(float)
        # Open regions: [name, start, child seconds, span index or -1,
        # attributed-seconds override or None].
        self._stack: List[List[Any]] = []
        self._cells = 0

    # ------------------------------------------------------------------
    def _open(self, name: str, span: bool, cell: Optional[str]) -> List[Any]:
        index = -1
        if span:
            parent = self._stack_span()
            if cell is None and parent >= 0:
                cell = self.spans[parent]["cell"]
            index = len(self.spans)
            self.spans.append(
                {"id": index, "name": name, "start": 0.0, "end": None,
                 "parent": parent, "cell": cell}
            )
        frame = [name, 0.0, 0.0, index, None]
        self._stack.append(frame)
        frame[1] = self.clock()
        if index >= 0:
            self.spans[index]["start"] = frame[1]
        return frame

    def _close(self, frame: List[Any]) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"region {frame[0]!r} closed out of order")
        name, start, child, index, attributed = frame
        duration = end - start
        self.calls[name] += 1
        self.seconds[name] += duration
        own = (duration if attributed is None else attributed) - child
        self.layer_self[name.split(".", 1)[0]] += own
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index]["end"] = end

    def _stack_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    # ------------------------------------------------------------------
    def region(
        self, name: str, span: bool = False, cell: Optional[str] = None
    ) -> "_Region":
        """Time a ``with`` body as region ``name`` (and record a span if asked)."""
        return _Region(self, name, span, cell)

    def new_cell(self, label: str) -> str:
        """A fresh cell id; spans opened under the cell's span inherit it."""
        self._cells += 1
        return f"{self._cells}:{label}"

    @staticmethod
    def attribute(frame: List[Any], seconds: float) -> None:
        """Credit ``seconds`` (not the region's duration) to its layer.

        Used for ``Simulator.run``: the phase clocks tell how much of the
        run the phases took; the rest is loop and timer overhead, which
        stays unattributed.
        """
        frame[4] = seconds

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a (non-span) region ``name``."""
        open_, close = self._open, self._close

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = open_(name, False, None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return timed

    # ------------------------------------------------------------------
    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write spans and aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "spans": self.spans,
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "layer_self_s": dict(self.layer_self),
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


class _Region:
    """Context manager behind :meth:`Tracer.region`; yields the open frame."""

    __slots__ = ("tracer", "name", "span", "cell", "frame")

    def __init__(self, tracer: Tracer, name: str, span: bool, cell: Optional[str]) -> None:
        self.tracer, self.name, self.span, self.cell = tracer, name, span, cell

    def __enter__(self) -> List[Any]:
        self.frame = self.tracer._open(self.name, self.span, self.cell)
        return self.frame

    def __exit__(self, *exc: Any) -> None:
        self.tracer._close(self.frame)

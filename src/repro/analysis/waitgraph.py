"""Channel wait-for graph construction and cycle analysis.

The fixpoint in :mod:`repro.analysis.deadlock` answers *whether* messages
are deadlocked; this module builds the explicit structure — who waits on
whom, through which channels — for diagnosis, examples and the dependency
ablations.  The graph is returned both as plain adjacency dictionaries and,
when available, as a ``networkx`` digraph for cycle enumeration.

Semantics (OR-wait model): there is an edge ``m -> holder`` for every
occupied virtual channel ``m``'s blocked header may use.  A set of blocked
messages is deadlocked iff it forms a *knot* under OR-semantics — every
message's every alternative leads back into the set — which is what the
fixpoint computes; simple cycles found here are necessary-but-not-
sufficient evidence and therefore reported as *candidates*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.network.message import Message


def _networkx() -> Any:
    """Import networkx on first use.

    networkx is optional (the ``test`` extra installs it) and costs more
    to import than the whole simulator, so only the cycle-analysis
    methods below pay for it.
    """
    try:
        import networkx
    except ImportError as exc:
        raise RuntimeError("networkx is not available") from exc
    return networkx


@dataclass
class WaitEdge:
    """One wait dependency: ``waiter`` wants a VC held by ``holder``."""

    waiter: Message
    holder: Message
    channel_index: int
    vc_index: int


@dataclass
class WaitGraph:
    """The wait-for structure of one simulation instant."""

    #: All blocked messages considered, keyed by id.
    messages: Dict[int, Message] = field(default_factory=dict)
    #: waiter id -> list of edges (one per occupied alternative VC).
    edges: Dict[int, List[WaitEdge]] = field(default_factory=dict)
    #: waiter id -> number of *free* alternative VCs (escapes).
    free_alternatives: Dict[int, int] = field(default_factory=dict)

    def holders_of(self, message: Message) -> Set[int]:
        return {e.holder.id for e in self.edges.get(message.id, [])}

    def out_degree(self, message: Message) -> int:
        return len(self.edges.get(message.id, []))

    def blocked_count(self) -> int:
        return len(self.messages)

    # ------------------------------------------------------------------
    # Cycle analysis
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """The graph as a ``networkx.DiGraph`` (nodes are message ids)."""
        graph = _networkx().DiGraph()
        graph.add_nodes_from(self.messages)
        for waiter_id, edges in self.edges.items():
            for edge in edges:
                if edge.holder.id in self.messages:
                    graph.add_edge(waiter_id, edge.holder.id)
        return graph

    def candidate_cycles(self, limit: int = 64) -> List[List[int]]:
        """Simple cycles among blocked messages (message-id lists).

        Cycles are necessary for deadlock but, under OR-waiting, not
        sufficient; compare with the fixpoint's verdict.
        """
        graph = self.to_networkx()
        cycles: List[List[int]] = []
        for cycle in _networkx().simple_cycles(graph):
            cycles.append(cycle)
            if len(cycles) >= limit:
                break
        return cycles

    def knot_members(self, honor_faults: bool = False) -> Set[int]:
        """Message ids with no escape path (matches the fixpoint oracle)."""
        from repro.analysis.deadlock import find_deadlocked

        return {
            m.id
            for m in find_deadlocked(
                self.messages.values(), honor_faults=honor_faults
            )
        }


def build_wait_graph(
    messages: Iterable[Message], honor_faults: bool = False
) -> WaitGraph:
    """Snapshot the wait-for structure over the blocked messages.

    With ``honor_faults`` (fault-schedule runs), lanes that are currently
    unusable — link down or lane stuck — contribute neither wait edges nor
    free alternatives, matching the fault-aware oracle's escape semantics.
    """
    graph = WaitGraph()
    blocked = [m for m in messages if m.is_blocked() and m.spans]
    for m in blocked:
        graph.messages[m.id] = m
    for m in blocked:
        edges: List[WaitEdge] = []
        free = 0
        for pc in m.feasible_pcs:
            usable = pc.usable_mask if honor_faults else -1
            for vc in pc.vcs:
                if not (usable >> vc.index) & 1:
                    continue  # faulted lane: not an alternative at all
                if vc.occupant is None:
                    free += 1
                else:
                    edges.append(
                        WaitEdge(
                            waiter=m,
                            holder=vc.occupant,
                            channel_index=pc.index,
                            vc_index=vc.index,
                        )
                    )
        graph.edges[m.id] = edges
        graph.free_alternatives[m.id] = free
    return graph


def describe_deadlock(
    graph: WaitGraph, names: Optional[Dict[int, str]] = None
) -> List[str]:
    """Human-readable lines describing the knot (for examples/debugging)."""
    knot = graph.knot_members()
    lines = []
    for message_id in sorted(knot):
        message = graph.messages[message_id]
        label = names.get(message_id, str(message_id)) if names else str(message_id)
        holders = sorted(
            names.get(h, str(h)) if names else str(h)
            for h in graph.holders_of(message)
        )
        lines.append(
            f"message {label} ({message.source}->{message.dest}) waits on "
            f"{', '.join(holders) or 'nothing'}"
        )
    return lines


def tree_depth_histogram(graph: WaitGraph) -> Dict[int, int]:
    """Distribution of wait-chain depths (how deep blocked trees grow).

    Depth of a blocked message = longest holder chain until a non-blocked
    holder (or a repeated message).  Used by the deviation analysis in
    EXPERIMENTS.md.
    """
    histogram: Dict[int, int] = {}
    for message in graph.messages.values():
        depth = _chain_depth(graph, message)
        histogram[depth] = histogram.get(depth, 0) + 1
    return histogram


def _chain_depth(graph: WaitGraph, message: Message, limit: int = 64) -> int:
    seen = {message.id}
    frontier = [message.id]
    depth = 0
    while frontier and depth < limit:
        nxt: List[int] = []
        for waiter_id in frontier:
            for edge in graph.edges.get(waiter_id, []):
                holder_id = edge.holder.id
                if holder_id in graph.messages and holder_id not in seen:
                    seen.add(holder_id)
                    nxt.append(holder_id)
        if not nxt:
            break
        depth += 1
        frontier = nxt
    return depth

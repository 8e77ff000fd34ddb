"""Router: the per-node bundle of channels and local allocation state.

A router owns its *outgoing* physical channels (network outputs plus the
ejection ports that deliver flits to the local node) and keeps references to
its *incoming* ones (network inputs plus the local injection ports).  It also
tracks the number of busy network output virtual channels, which drives the
message injection limitation mechanism of the paper's network model
(López & Duato [11]; López, Martínez, Petrini & Duato [12]).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.topology import Direction
from repro.network.types import NodeId, PortKind


class Router:
    """All channel endpoints attached to one node.

    Attributes:
        node: the node id this router serves.
        output_pcs: outgoing network channels, keyed by direction.
        input_pcs: incoming network channels (any direction order).
        injection_pcs: node-to-router ports through which new messages enter.
        ejection_pcs: router-to-node ports that consume delivered flits.
        busy_network_vcs: currently occupied network-output virtual channels
            (the quantity the injection limitation thresholds against).
        all_g: one-element summary box, True only while every header
            input channel (network inputs and injection ports) holds G.
            Set by the NDM's simple promotion hook, cleared by every P
            write; the router's channels share it (see
            ``PhysicalChannel.src_all_g`` / ``dst_all_g``).
    """

    __slots__ = (
        "node",
        "output_pcs",
        "output_pc_list",
        "input_pcs",
        "injection_pcs",
        "ejection_pcs",
        "busy_network_vcs",
        "all_g",
    )

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self.output_pcs: Dict[Direction, PhysicalChannel] = {}
        self.output_pc_list: List[PhysicalChannel] = []
        self.input_pcs: List[PhysicalChannel] = []
        self.injection_pcs: List[PhysicalChannel] = []
        self.ejection_pcs: List[PhysicalChannel] = []
        self.busy_network_vcs = 0
        self.all_g: List[bool] = [False]

    # ------------------------------------------------------------------
    # Wiring (called once by the simulator builder)
    # ------------------------------------------------------------------
    def add_output(self, direction: Direction, pc: PhysicalChannel) -> None:
        self.output_pcs[direction] = pc
        self.output_pc_list.append(pc)
        pc.src_all_g = self.all_g

    def add_input(self, pc: PhysicalChannel) -> None:
        self.input_pcs.append(pc)
        pc.dst_all_g = self.all_g

    def add_injection(self, pc: PhysicalChannel) -> None:
        self.injection_pcs.append(pc)
        pc.dst_all_g = self.all_g

    def add_ejection(self, pc: PhysicalChannel) -> None:
        self.ejection_pcs.append(pc)
        pc.src_all_g = self.all_g

    # ------------------------------------------------------------------
    # Allocation bookkeeping
    # ------------------------------------------------------------------
    def note_network_vc_allocated(self) -> None:
        self.busy_network_vcs += 1

    def note_network_vc_released(self) -> None:
        self.busy_network_vcs -= 1
        if self.busy_network_vcs < 0:
            raise RuntimeError(f"router {self.node}: negative busy VC count")

    def total_network_vcs(self) -> int:
        return sum(len(pc.vcs) for pc in self.output_pc_list)

    # ------------------------------------------------------------------
    # Queries used by detection mechanisms
    # ------------------------------------------------------------------
    def header_input_pcs(self) -> List[PhysicalChannel]:
        """Input channels that can contain a waiting message header.

        These are the channels whose G/P flag the NDM's simple promotion
        rule flips to G when any I flag of this router resets.
        """
        return self.input_pcs + self.injection_pcs

    def free_injection_vc(self) -> Optional[VirtualChannel]:
        """A free virtual channel on any injection port, or ``None``.

        ``free_lanes`` is kept in lane-index order, so the first entry is
        the lowest-index free lane — the same lane a scan of ``pc.vcs``
        would have returned.  The free mask is ANDed with the channel's
        ``usable_mask`` so faulted injection ports (router stalls) accept
        nothing; the mask is all-ones on healthy channels.
        """
        for pc in self.injection_pcs:
            mask = pc.free_mask & pc.usable_mask
            table = pc.lanes_by_mask
            lanes = (
                table[mask] if table is not None else pc.usable_free_lanes()
            )
            if lanes:
                return lanes[0]
        return None

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(node={self.node}, outs={len(self.output_pc_list)}, "
            f"ins={len(self.input_pcs)}, inj={len(self.injection_pcs)}, "
            f"ej={len(self.ejection_pcs)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def kind_of(pc: PhysicalChannel) -> PortKind:
    """Convenience accessor kept for symmetry with older call sites."""
    return pc.kind

"""A plain (non-programmable) store-and-forward switch.

Models the "regular switch (with sub-microsecond latency)" the paper
places between the clients and the FPGA (Sec VI-A1): a fixed forwarding
delay plus whatever queueing the output links impose.

Every arrival schedules :meth:`Switch._forward` after
``switch_forward_ns``; that callback re-checks ``failed``, looks the
route up and sends through the output port at the forwarding instant,
where the channel fixes the frame's departure and schedules its
delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.device import ForwardingTable, Node, Port
from repro.net.packet import Frame
from repro.obs import spans
from repro.obs.registry import register_with_sim
from repro.protocol.types import PacketType
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile
    from repro.sim.kernel import Simulator

#: Which lifecycle milestone a switch arrival marks, by packet type.
#: Requests are the forward direction, ACKs/responses the return one;
#: everything else (recovery traffic, retransmission control) is not a
#: per-request milestone.
_SPAN_STAGES = {
    PacketType.UPDATE_REQ: spans.SWITCH_FORWARD,
    PacketType.BYPASS_REQ: spans.SWITCH_FORWARD,
    PacketType.PMNET_ACK: spans.SWITCH_RETURN,
    PacketType.SERVER_ACK: spans.SWITCH_RETURN,
    PacketType.SERVER_RESP: spans.SWITCH_RETURN,
    PacketType.CACHE_RESP: spans.SWITCH_RETURN,
}


class Switch(Node):
    """Forwards every frame toward its destination after a fixed delay.

    A switch never extends inbound chains: it keeps the base
    ``arrival_extension``, so inbound channels never ask it.
    """

    def __init__(self, sim: "Simulator", name: str,
                 profile: "NetworkProfile") -> None:
        super().__init__(sim, name)
        self.profile = profile
        self.table = ForwardingTable()
        self.forwarded = Counter(f"{name}.forwarded")
        self._spans = spans.spans_for(sim)
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This switch's typed instruments (explicit registration)."""
        return (self.forwarded,)

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        if self._spans is not None:
            packet = frame.payload
            stage = _SPAN_STAGES.get(getattr(packet, "packet_type", None))
            if stage is not None:
                self._spans.record(packet.request_id, stage, self.sim.now)
        self.sim.schedule(self.profile.switch_forward_ns,
                          self._forward, frame)

    def _forward(self, frame: Frame) -> None:
        if self.failed:
            return
        self.forwarded.value += 1
        self.table.lookup(frame.dst).transmit(frame)

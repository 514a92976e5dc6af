"""A plain (non-programmable) store-and-forward switch.

Models the "regular switch (with sub-microsecond latency)" the paper
places between the clients and the FPGA (Sec VI-A1): a fixed forwarding
delay plus whatever queueing the output links impose.

Because the forwarding delay is a constant, frames reach a given output
channel in exactly the order they arrived at the switch — so when the
output transmitter is predictably idle at send time, the whole hop
folds: forwarding delay + serialization + propagation collapse into one
deferred delivery event (see :meth:`Channel.send_in`).  When the
channel cannot take the reservation (busy, queued, or impaired) the
switch falls back to scheduling ``_forward`` exactly as before; if that
unfolded send lands inside a later reservation's pre-delay gap, the
channel revokes the reservation — running ``_unfold_forward`` at the
slot ``_forward`` would have occupied — so arrival order is preserved.

Folding caveats: the routing lookup and the ``forwarded`` increment
happen at *arrival* time on the folded path, not at the end of the
forwarding delay, so mid-run snapshots of ``forwarded`` may lead the
unfolded timeline by up to ``switch_forward_ns`` (end-of-run totals are
identical), and mutating the forwarding table while frames are inside
that window is incompatible with folding.  A switch crash inside the
window is handled: ``Node.fail`` revokes the reservation and
``_unfold_forward`` re-runs the unfolded ``_forward`` — failed check
and all — rolling the fold-time increment back first.
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
    ``arrival_extension``, so inbound channels never ask it.  It is the
    only node that reserves its output channel (:meth:`Channel.send_in`).
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
            # Arrival executes at the same instant in the folded and
            # unfolded timelines, so this milestone is fold-neutral.
            packet = frame.payload
            stage = _SPAN_STAGES.get(getattr(packet, "packet_type", None))
            if stage is not None:
                self._spans.record(packet.request_id, stage, self.sim.now)
        out_port = self.table.lookup(frame.dst)
        channel = out_port.channel
        if channel is not None:
            if channel.send_in(self.profile.switch_forward_ns, frame,
                               self._unfold_forward):
                self.forwarded.value += 1
                return
        self.sim.schedule(self.profile.switch_forward_ns,
                          self._forward, frame)

    def _unfold_forward(self, frame: Frame) -> None:
        """The reservation was revoked: roll back the fold-time
        ``forwarded`` increment and re-run the unfolded ``_forward`` at
        the slot it would have occupied (failed check included)."""
        self.forwarded.rollback(1)
        self._forward(frame)

    def _forward(self, frame: Frame) -> None:
        if self.failed:
            return
        self.forwarded.value += 1
        self.table.lookup(frame.dst).transmit(frame)

"""A host machine on the fabric: one NIC port, a stack, one endpoint.

The :class:`HostNode` is the glue between the network substrate and the
application libraries: inbound frames are charged the stack's receive
cost and handed to the bound endpoint; outbound packets are charged the
send cost and transmitted from the single NIC port.  Failing a host
silences it (frames black-hole) until recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.errors import NetworkError
from repro.net.device import Node, Port
from repro.net.packet import Frame
from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.stackmodel import HostStack
    from repro.sim.kernel import Simulator


class Endpoint(Protocol):
    """What a host delivers inbound frames to."""

    def on_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


class _ExpressClaim:
    """One pre-drawn receive cost riding an extended arrival chain.

    Created by :meth:`HostNode.arrival_extension`: the host snapshots
    its stack jitter stream, draws the receive cost at reservation time
    instead of wire-arrival time, and hands the cost to the channel as
    an extra chain hop.  The pre-draw is only stream-order-safe while no
    other draw intervenes, so every competing draw site on the host
    (:meth:`HostNode.handle_frame`, :meth:`HostNode.send_frame`,
    :meth:`HostNode.dispatch_cost`) revokes a still-deferred claim
    first, rewinding the stream via the snapshot; once the chain has
    re-sequenced past the wire-arrival slot (``defer_ns`` falsy) the
    draw is committed in correct order and later draws leave it alone.
    The channel releases the claim itself whenever it rewrites the
    record in place (queue conversion, competing send, sender failure).
    """

    __slots__ = ("host", "frame", "epoch", "rng_state", "call", "channel")

    def __init__(self, host: "HostNode", frame: Frame, epoch: int,
                 rng_state) -> None:
        self.host = host
        self.frame = frame
        self.epoch = epoch
        self.rng_state = rng_state
        self.call = None
        self.channel = None

    def attach(self, call, channel) -> None:
        """Called by :meth:`Channel.send_in` once the chain exists."""
        self.call = call
        self.channel = channel

    def release(self) -> None:
        """Channel-side revocation: the record is being rewritten anyway,
        so only the host-side state (claim slot, RNG position) rewinds."""
        host = self.host
        if host._claim is self:
            host._claim = None
        host.stack.restore_jitter_state(self.rng_state)


class HostNode(Node):
    """One machine: NIC + stack + the application endpoint."""

    #: Host extensions pre-draw stack jitter and hold a claim slot per
    #: frame, so channels must query :meth:`arrival_extension` on every
    #: delivery — never cache the plan (see ``Node.arrival_plans_static``).
    arrival_plans_static = False

    def __init__(self, sim: "Simulator", name: str, stack: "HostStack") -> None:
        super().__init__(sim, name)
        self.stack = stack
        self.endpoint: Optional[Endpoint] = None
        self.frames_received = Counter(f"{name}.rx")
        self.frames_sent = Counter(f"{name}.tx")
        #: Generation counter: bumped on every failure so that callbacks
        #: scheduled before a crash do not leak into the recovered life.
        self.epoch = 0
        #: Opt-in: fold the stack send cost into the NIC channel via a
        #: reservation (see :meth:`Channel.send_in`).  A folded send
        #: commits at reservation time; ``Node.fail`` revokes unstarted
        #: reservations so a crash inside the send window still drops
        #: the frame (via :meth:`_unfold_outbound`'s fire-time check).
        #: The remaining unguarded gap is a crash *and* recovery both
        #: landing inside one stack-send window (microseconds, vs the
        #: millisecond outages the failure experiments inject) — so
        #: this stays an opt-in for hosts that never crash mid-run:
        #: client endpoints enable it, server hosts stay unfolded.
        self.fold_outbound = False
        #: Opt-in (client endpoints under whole-request folding): allow
        #: inbound wire chains to extend through this host's stack
        #: receive cost via a pre-drawn :class:`_ExpressClaim`.
        self.express_inbound = False
        #: The single outstanding claim (one at a time keeps the
        #: stream-order argument trivial); ``None`` when free.
        self._claim: Optional[_ExpressClaim] = None
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This host's typed instruments (explicit registration)."""
        return (self.frames_received, self.frames_sent)

    # ------------------------------------------------------------------
    def bind(self, endpoint: Endpoint) -> None:
        if self.endpoint is not None:
            raise NetworkError(f"host {self.name} already has an endpoint")
        self.endpoint = endpoint

    @property
    def nic_port(self) -> Port:
        if not self.ports:
            raise NetworkError(f"host {self.name} is not connected")
        return self.ports[0]

    # ------------------------------------------------------------------
    # Inbound: link -> stack -> endpoint
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        if self._claim is not None:
            self._revoke_claim()
        cost = self.stack.recv_cost(frame.payload_bytes)
        epoch = self.epoch
        self.sim.schedule(cost, self._deliver, frame, epoch)

    def _deliver(self, frame: Frame, epoch: int) -> None:
        if self.failed or epoch != self.epoch:
            return  # the packet died in the stack when the host crashed
        self.frames_received.value += 1
        if self.endpoint is not None:
            self.endpoint.on_frame(frame)

    # ------------------------------------------------------------------
    # Whole-request folding: express arrival claims
    # ------------------------------------------------------------------
    def arrival_extension(self, frame: Frame):
        """Extend an inbound chain through the stack receive cost.

        Only for opted-in hosts (client endpoints), one claim at a time,
        and never while failed: the receive jitter is pre-drawn under a
        revocable claim and the chain ends in :meth:`_express_deliver`
        at exactly the instant the unfolded ``_deliver`` would run.
        """
        if (not self.express_inbound or self.failed
                or self._claim is not None or self.endpoint is None):
            return None
        state = self.stack.jitter_state()
        cost = self.stack.recv_cost(frame.payload_bytes)
        claim = _ExpressClaim(self, frame, self.epoch, state)
        self._claim = claim
        return ((cost,), self._express_deliver, (frame, claim), claim)

    def _express_deliver(self, frame: Frame, claim: _ExpressClaim) -> None:
        """Barrier of an express arrival: the unfolded ``_deliver``
        semantics (liveness check, counters, endpoint dispatch) at the
        same virtual instant and heap slot."""
        if self._claim is claim:
            self._claim = None
        if self.failed or claim.epoch != self.epoch:
            return
        frame.hops += 1  # the Channel._deliver bookkeeping the chain subsumed
        self.frames_received.value += 1
        if self.endpoint is not None:
            self.endpoint.on_frame(frame)

    def _revoke_claim(self) -> None:
        """A competing draw (or arrival) needs the jitter stream: rewind
        a still-deferred claim and strip its chain hop.  A claim whose
        chain already re-sequenced past the wire-arrival slot committed
        its draw in correct stream order — it stays."""
        claim = self._claim
        if claim.call is not None and claim.call.defer_ns:
            self._claim = None
            self.stack.restore_jitter_state(claim.rng_state)
            claim.channel.strip_extension(claim.call, claim.frame)

    def dispatch_cost(self) -> int:
        """The stack dispatch cost, claim-safely: endpoint completion
        paths must draw through here so an outstanding express claim is
        revoked before the jitter stream advances."""
        if self._claim is not None:
            self._revoke_claim()
        return self.stack.dispatch_cost()

    # ------------------------------------------------------------------
    # Outbound: endpoint -> stack -> NIC
    # ------------------------------------------------------------------
    def send_frame(self, dst: str, payload: Any, payload_bytes: int,
                   udp_port: int) -> None:
        """Send one application packet; charges the stack send cost."""
        if self.failed:
            return
        if self._claim is not None:
            self._revoke_claim()
        frame = Frame(src=self.name, dst=dst, payload=payload,
                      payload_bytes=payload_bytes, udp_port=udp_port)
        # The jitter draw happens here in both modes, so the stack RNG
        # stream advances at identical instants with folding on or off.
        cost = self.stack.send_cost(payload_bytes)
        if self.fold_outbound and self.ports:
            channel = self.ports[0].channel
            if channel is not None and channel.send_in(cost, frame,
                                                       self._unfold_outbound):
                self.frames_sent.value += 1
                return
        epoch = self.epoch
        self.sim.schedule(cost, self._transmit, frame, epoch)

    def _unfold_outbound(self, frame: Frame) -> None:
        """The NIC reservation was revoked: roll back the fold-time
        ``frames_sent`` increment and re-run the unfolded ``_transmit``
        at its slot.  The current epoch stands in for the fold-time one
        — equivalent unless the host crashed *and* recovered inside the
        send window, which :attr:`fold_outbound`'s contract excludes."""
        self.frames_sent.rollback(1)
        self._transmit(frame, self.epoch)

    def _transmit(self, frame: Frame, epoch: int) -> None:
        if self.failed or epoch != self.epoch:
            return
        self.frames_sent.value += 1
        self.nic_port.transmit(frame)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        super().fail()
        self.epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "up"
        return f"<HostNode {self.name} {state}>"

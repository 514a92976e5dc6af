"""Links: serialization, propagation, FIFO queueing, and impairments.

A :class:`Link` is full duplex: it is built from two independent directed
:class:`Channel` objects.  Each channel models

* a drop-tail output queue (finite packet capacity),
* a transmitter that serializes one frame at a time at the link rate,
* fixed propagation delay, and
* optional impairments (loss, reordering, duplication) driven by a
  dedicated random stream so experiments can inject packet loss exactly
  where the paper's Fig 7 scenarios need it.

The common case — no impairments, transmitter idle, output queue empty —
takes a **latency-folded fast path**: serialization and propagation are
summed into one scheduled delivery event instead of a ``_serialized``
hop followed by a ``_deliver`` hop.  Delivery times are bit-identical to
the unfolded path (``PMNET_FOLD=none`` keeps it testable); only the
event count changes.  Folding requires ``propagation_ns > 0``: with a
zero-delay wire the deferred chain would execute delivery on the seq
allocated at send time instead of the fresh seq the unfolded ``_launch``
allocates at the serialize instant, perturbing same-nanosecond
tie-breaking.  Transmitter occupancy is tracked as an absolute
``_busy_until`` time so back-to-back sends still serialize exactly: a
frame arriving mid-serialization queues, and the folded record ahead of
it is rewritten **in place** into the unfolded ``_serialized`` callback
— its queue slot (serialize-end time, seq allocated at serialize start)
is exactly where the unfolded record would sit, so the queue restarts
with bit-identical tie-breaking and the transmission finishes on the
unfolded code path.  In-place rewrites only ever touch
a record's callback, args, and deferred chain — never its ``(time,
seq)`` — which is what keeps them legal under every scheduler backend:
the record keeps its slot whether it lives in the heap, the now lane,
a calendar bucket, or the far tier (``PMNET_KERNEL``; see
``docs/simulator.md``), and deferred hops re-sequence through the
owning queue so each hop draws its fresh seq at the exact virtual
instant the unfolded path would have.  Impaired channels never fold — their per-frame
random draws and the loss/duplicate/reorder branching stay on the
original path, preserving RNG stream positions draw for draw.

**Whole-request folding** extends a folded chain *through the receiving
node*: the channel asks the sink node for an
:meth:`~repro.net.device.Node.arrival_extension` — extra deterministic
hops (a PMNet device's ingress/PM stages) appended to the serialize +
propagation chain, ending in the node's own barrier callback instead of
:meth:`_deliver`.  Each extra hop re-sequences at exactly the instant
the device's own folded pipeline would have allocated the corresponding
event, so tie-breaking is unchanged; the barrier re-checks the
receiver's liveness just as that pipeline's interior callbacks would.
Extended records convert in place like base ones — a frame queueing
behind one, or an impairment change, rewrites the record back to the
exact unfolded shape.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Optional

from repro.config import folding_enabled
from repro.errors import SimulationError
from repro.net.device import Node, Port
from repro.net.packet import PMNET_UDP_PORT_MAX, PMNET_UDP_PORT_MIN, Frame
from repro.protocol.packet import PMNetPacket
from repro.sim.clock import transmission_delay
from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter, Gauge, instruments_summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile
    from repro.sim.kernel import Simulator


@dataclass(slots=True)
class Impairments:
    """Probabilistic misbehaviour of a directed channel.

    ``enabled`` is derived, not set: every field write (construction
    and later mutation alike) refreshes it, so the per-send fold gate is
    one attribute read yet still sees a loss window opened by mutating
    a live instance.
    """

    #: Whether any probability is positive (kept current by
    #: :meth:`__setattr__`; declared first so construction writes it
    #: before the probabilities that decide it).
    enabled: bool = field(default=False, init=False, repr=False,
                          compare=False)
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    #: Extra delay added to a reordered frame so it lands behind its
    #: successors.
    reorder_extra_ns: int = 5_000

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        try:
            enabled = (self.loss_probability > 0.0
                       or self.duplicate_probability > 0.0
                       or self.reorder_probability > 0.0)
        except AttributeError:
            return  # mid-construction: a probability is not set yet
        object.__setattr__(self, "enabled", enabled)


#: Frame-kind key for non-PMNet traffic in the arrival-plan cache.
_PLAIN_KIND = object()

#: Cache-miss sentinel (``None`` is a valid cached plan: "never extends").
_NO_PLAN = object()


def _remaining_hops(call) -> int:
    """Hops a deferred record has not yet consumed (0 = final slot)."""
    defer = call.defer_ns
    if type(defer) is tuple:
        return len(defer)
    return 1 if defer else 0


class Channel:
    """One direction of a link: ``source`` port -> ``sink`` port."""

    def __init__(self, sim: "Simulator", name: str, profile: "NetworkProfile",
                 sink: Port, impairments: Optional[Impairments] = None) -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        self.sink = sink
        self.impairments = impairments or Impairments()
        self._rng = sim.random.stream(f"channel:{name}")
        self._queue: Deque[Frame] = deque()
        #: Absolute time the transmitter finishes its current frame.
        self._busy_until = 0
        #: An *unfolded* transmission is in progress: set when
        #: ``_serialized`` is scheduled, cleared when it runs.  While
        #: set, the transmitter is busy even at exactly ``_busy_until``
        #: — the pending ``_serialized`` callback owns the restart, so
        #: a same-nanosecond send must queue behind it (matching the
        #: pre-fold boolean-busy semantics tick for tick).  Folded
        #: transmissions leave this False; they free the transmitter
        #: only once their deferred record has been re-sequenced past
        #: the serialize-end slot, which happens at the same
        #: sub-nanosecond point the unfolded ``_serialized`` would run
        #: (see :meth:`send`).
        self._transmitting = False
        #: The heap record of the newest *folded* transmission.  While
        #: ``now < _busy_until`` with ``_transmitting`` False, this record
        #: owns the transmitter; a frame queueing behind it converts it
        #: in place into the unfolded ``_serialized`` callback (see
        #: :meth:`_unfold_inflight`).
        self._serializing = None
        #: The frame :attr:`_serializing` carries (an extended record's
        #: args no longer hold it) and its arrival-extension hop count:
        #: the record is past its serialize-end slot once no more than
        #: ``_serializing_ext`` deferred hops remain.
        self._serializing_frame = None
        self._serializing_ext = 0
        #: Construction-time half of the fold gate; impairments are
        #: re-checked per send because experiments swap them mid-run
        #: (e.g. a timed loss window).  ``propagation_ns > 0`` keeps the
        #: delivery seq allocation on its own later instant (see the
        #: module docstring).
        self._fold = (folding_enabled()
                      and profile.queue_capacity_packets > 0
                      and profile.propagation_ns > 0)
        #: Whether the sink node can ever extend an inbound chain: a
        #: node class that keeps the base ``arrival_extension`` (a plain
        #: switch) never does, so the send paths skip asking it.
        self._sink_extends = (type(sink.node).arrival_extension
                              is not Node.arrival_extension)
        #: ``payload_bytes -> (wire bytes, serialization ns)``: the
        #: profile is fixed for the channel's life and frames come in a
        #: handful of sizes, so each size is costed once.
        self._costs: dict = {}
        self.delivered = Counter(f"{name}.delivered")
        self.dropped_full = Counter(f"{name}.dropped_full")
        self.dropped_full_bytes = Counter(f"{name}.dropped_full_bytes")
        self.dropped_loss = Counter(f"{name}.dropped_loss")
        self.bytes_sent = Counter(f"{name}.bytes")
        self.folded_sends = Counter(f"{name}.folded")
        self.queue_depth_highwater = Gauge(f"{name}.queue_depth")
        register_with_sim(sim, self)

    # ------------------------------------------------------------------
    def _cost_of(self, payload_bytes: int):
        """``(wire bytes, serialization ns)`` of a payload size, memoised
        in :attr:`_costs`."""
        wire_bytes = payload_bytes + self.profile.header_overhead_bytes
        cost = (wire_bytes,
                transmission_delay(wire_bytes, self.profile.bandwidth_bps))
        self._costs[payload_bytes] = cost
        return cost

    def _sink_extension(self, frame: Frame):
        """The receiving node's arrival extension for ``frame``, served
        from the per-(node, frame-kind) plan cache.

        The extension walk (classification + config lookups) is a pure
        function of the frame kind — re-walking it on every delivery was
        measurable at loadgen scale.  A cached plan is the node's
        ``(hops, barrier)`` answer; the returned triple adds the
        barrier's per-frame args, always ``(frame, frame.payload)``
        (see ``Node.arrival_extension``).  A cache miss queries the node
        through its instance attribute, so test spies intercept the
        first delivery of each kind.  Plans are dropped by
        ``Node.invalidate_arrival_plans`` on failure, recovery,
        impairment change, and device replacement.

        The send paths call this only when :attr:`_sink_extends` is set,
        i.e. when the sink node's *class* overrides
        ``Node.arrival_extension``; a hook attached to one instance of a
        class that keeps the base method is never consulted.
        """
        node = self.sink.node
        plans = node._arrival_plans
        payload = frame.payload
        if (PMNET_UDP_PORT_MIN <= frame.udp_port <= PMNET_UDP_PORT_MAX
                and isinstance(payload, PMNetPacket)):
            kind = payload.packet_type
        else:
            kind = _PLAIN_KIND
        plan = plans.get(kind, _NO_PLAN)
        if plan is _NO_PLAN:
            extension = node.arrival_extension(frame)
            if extension is None:
                plans[kind] = None
                return None
            hops, callback = extension
            plan = plans[kind] = (tuple(hops), callback)
        elif plan is None:
            return None
        hops, callback = plan
        return (hops, callback, (frame, payload))

    def send(self, frame: Frame) -> None:
        """Enqueue a frame for transmission (drop-tail when full)."""
        serializing = self._serializing
        if serializing is not None:
            defer = serializing.defer_ns  # _remaining_hops, inlined
            if ((len(defer) if type(defer) is tuple else 1 if defer else 0)
                    <= self._serializing_ext):
                # The folded record has been re-sequenced past its
                # serialize-end slot (only arrival-extension hops, if
                # any, remain): the instant the unfolded ``_serialized``
                # would have run is behind us, so the transmitter really
                # is free.
                self._serializing = serializing = None
        # At exactly ``now == _busy_until`` a still-deferred record means
        # the unfolded ``_serialized`` (same heap slot) has NOT run yet
        # relative to this event — the kernel re-sequences folded records
        # in (time, seq) order, so ``defer_ns`` being truthy is precisely
        # "our seq comes later this nanosecond".  The unfolded timeline
        # would find ``_transmitting`` still True and queue this frame,
        # so the folded one must too (converting the record in place).
        if (self._fold and not self._transmitting and not self._queue
                and serializing is None
                and self.sim.now >= self._busy_until
                and not self.impairments.enabled):
            # Fast path: idle transmitter, empty queue, no impairments —
            # serialization + propagation fold into one delivery event.
            # The receiving node may extend the chain through its own
            # pipeline head (whole-request folding), ending in a barrier
            # callback that re-checks its liveness.  The send starts
            # serializing immediately, so the record goes straight into
            # the :attr:`_serializing` slot.
            wire_bytes, serialize = (self._costs.get(frame.payload_bytes)
                                     or self._cost_of(frame.payload_bytes))
            self.bytes_sent.value += wire_bytes
            self.folded_sends.value += 1
            now = self.sim.now
            hops = (self.profile.propagation_ns,)
            callback, args = self._deliver, (frame,)
            extension = (self._sink_extension(frame) if self._sink_extends
                         else None)
            if extension is not None:
                extra_hops, ext_callback, ext_args = extension
                hops = hops + extra_hops
                callback, args = self._deliver_ext, (ext_callback, ext_args)
            call = self.sim.schedule_deferred(
                serialize, hops if len(hops) > 1 else hops[0],
                callback, *args)
            self._serializing = call
            self._serializing_frame = frame
            self._serializing_ext = len(hops) - 1
            self._busy_until = now + serialize
            return
        if len(self._queue) >= self.profile.queue_capacity_packets:
            self.dropped_full.increment()
            self.dropped_full_bytes.increment(
                frame.wire_size(self.profile.header_overhead_bytes))
            return
        queue = self._queue
        queue.append(frame)
        depth = len(queue)
        gauge = self.queue_depth_highwater  # Gauge.update, inlined
        gauge.value = depth
        if depth > gauge.highwater:
            gauge.highwater = depth
        if not self._transmitting:
            if serializing is not None:
                # A *folded* frame still owns the transmitter (either
                # mid-serialization, or ending this very nanosecond with
                # its record not yet re-sequenced): nothing would call
                # `_transmit_next` when it frees, so rewrite the folded
                # record into the unfolded `_serialized` callback at its
                # exact heap slot.
                self._unfold_inflight()
            elif self.sim.now >= self._busy_until:
                self._transmit_next()
            else:
                raise SimulationError(
                    f"channel {self.name}: busy transmitter with no "
                    f"in-flight record to convert")

    def _deliver_ext(self, callback, args) -> None:
        """Barrier slot of an extension-carrying chain: count the wire
        delivery (the chain subsumed the ``_deliver`` hop) and run the
        receiving node's barrier callback."""
        self.delivered.value += 1
        callback(*args)

    def on_impairments_changed(self) -> None:
        """Fall in-flight folded work back to the unfolded path after a
        mid-run impairment swap (a chaos fault window opening).

        Folding commits draws-free delivery up front, but the unfolded
        timeline draws loss/duplicate/reorder at each frame's
        serialize-end — so any folded record whose serialize-end lies
        *after* this instant must be converted back: a record
        mid-serialization is rewritten in place into ``_serialized`` at
        its serialize-end slot, where ``_launch`` re-checks impairments
        and draws exactly as the unfolded run does.  Records already
        past serialize-end committed before the swap on both timelines
        and stay folded.

        Cached arrival plans on the receiving node are dropped too: the
        plan cache must never outlive a reconfiguration of the path
        that feeds it (the send paths also stop querying extensions
        entirely while impairments are enabled).
        """
        self.sink.node.invalidate_arrival_plans()
        call = self._serializing
        if (call is not None
                and _remaining_hops(call) == self._serializing_ext + 1):
            self._unfold_inflight()

    def _unfold_inflight(self) -> None:
        """Convert the in-flight folded transmission into ``_serialized``.

        A frame just queued while a folded transmission occupies the
        transmitter, so something must restart the queue when it frees.
        The folded record sits at exactly the heap slot the unfolded
        ``_serialized`` callback would occupy — same time (the serialize
        end), same seq (allocated at the serialize start) — so rather
        than scheduling a separate drain event (whose later-allocated
        seq could tie-break differently against unrelated
        same-nanosecond events), the record is rewritten in place into
        that callback.  From here the transmission is bit-for-bit the
        unfolded one: ``_serialized`` launches the frame, allocating the
        delivery seq at the serialize instant exactly as the unfolded
        ``_launch`` does, and restarts the queue.
        """
        call = self._serializing
        assert (call is not None and _remaining_hops(call)
                == self._serializing_ext + 1), \
            "busy transmitter without a convertible folded record"
        call.callback = self._serialized
        call.args = (self._serializing_frame,)
        call.defer_ns = 0
        self._transmitting = True
        self._serializing = None

    def _transmit_next(self) -> None:
        if not self._queue:
            return
        queue = self._queue
        frame = queue.popleft()
        # A falling level never moves the high-water mark.
        self.queue_depth_highwater.value = len(queue)
        wire_bytes, serialize = (self._costs.get(frame.payload_bytes)
                                 or self._cost_of(frame.payload_bytes))
        self.bytes_sent.value += wire_bytes
        self._busy_until = self.sim.now + serialize
        self._transmitting = True
        # The transmitter is busy for the serialization time, then the
        # frame flies for the propagation delay while the next one starts.
        self.sim.schedule(serialize, self._serialized, frame)

    def _serialized(self, frame: Frame) -> None:
        self._transmitting = False
        self._launch(frame)
        self._transmit_next()

    def _launch(self, frame: Frame) -> None:
        if not self.impairments.enabled:
            # Even an *unfolded* transmission (queued behind contention)
            # can extend its delivery through the receiving node: the
            # record's push seq lands at this serialize-end instant and
            # each extension hop re-sequences exactly where the
            # device's folded pipeline would have allocated its events, so
            # the chain is heap-order-identical with one event fewer.
            # The record is already past the transmitter, so nothing
            # here tracks it.  Impaired copies never extend, mirroring
            # the fold gate.
            extension = (self._sink_extension(frame) if self._sink_extends
                         else None)
            if extension is not None:
                extra_hops, ext_callback, ext_args = extension
                self.sim.schedule_deferred(
                    self.profile.propagation_ns, extra_hops,
                    self._deliver_ext, ext_callback, ext_args)
                return
            self.sim.schedule(self.profile.propagation_ns,
                              self._deliver, frame)
            return
        # Draw order per frame: loss(original), duplicate, then per
        # surviving copy a reorder draw and — for the duplicate — its
        # own loss draw.  Each copy is an independent wire traversal,
        # so each gets independent loss and reorder draws (sharing the
        # original's draws made duplicate+loss and duplicate+reorder
        # unreachable); duplication is decided once per frame, so a
        # duplicate cannot spawn further duplicates.  All draws come
        # from the channel's dedicated stream, keeping runs seeded.
        imp = self.impairments
        rng = self._rng
        lost = rng.random() < imp.loss_probability
        duplicated = rng.random() < imp.duplicate_probability
        self._launch_copy(frame, lost, imp, rng)
        if duplicated:
            self._launch_copy(frame, rng.random() < imp.loss_probability,
                              imp, rng)

    def _launch_copy(self, frame: Frame, lost: bool,
                     imp: Impairments, rng) -> None:
        """Deliver (or drop) one copy of an impaired frame."""
        if lost:
            self.dropped_loss.increment()
            return
        delay = self.profile.propagation_ns
        if rng.random() < imp.reorder_probability:
            delay += imp.reorder_extra_ns
        self.sim.schedule(delay, self._deliver, frame)

    def _deliver(self, frame: Frame) -> None:
        self.delivered.value += 1
        sink = self.sink
        node = sink.node
        if node.failed:
            return  # a dead device is a black hole
        frame.hops += 1
        node.handle_frame(frame, sink)

    @property
    def queue_depth(self) -> int:
        """Frames waiting behind the one being serialized."""
        return len(self._queue)

    def instruments(self) -> tuple:
        """This channel's typed instruments (the explicit registration
        protocol; see :mod:`repro.obs.registry`)."""
        return (self.delivered, self.dropped_full, self.dropped_full_bytes,
                self.dropped_loss, self.bytes_sent, self.folded_sends,
                self.queue_depth_highwater)

    def summary(self) -> dict:
        """Every counter/gauge on this channel (queue pressure included)."""
        return instruments_summary(self.instruments())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} queued={self.queue_depth}>"


class Link:
    """A full-duplex link between two ports (two directed channels)."""

    def __init__(self, sim: "Simulator", profile: "NetworkProfile",
                 port_a: Port, port_b: Port,
                 impairments_ab: Optional[Impairments] = None,
                 impairments_ba: Optional[Impairments] = None) -> None:
        name_ab = f"{port_a.node.name}->{port_b.node.name}"
        name_ba = f"{port_b.node.name}->{port_a.node.name}"
        self.forward = Channel(sim, name_ab, profile, port_b, impairments_ab)
        self.backward = Channel(sim, name_ba, profile, port_a, impairments_ba)
        port_a.channel = self.forward
        port_b.channel = self.backward
        self.port_a = port_a
        self.port_b = port_b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.forward.name}>"

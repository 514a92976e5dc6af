"""Links: serialization, propagation, FIFO queueing, and impairments.

A :class:`Link` is full duplex: it is built from two independent directed
:class:`Channel` objects.  Each channel models

* a drop-tail output queue (finite packet capacity),
* a transmitter that serializes one frame at a time at the link rate,
* fixed propagation delay, and
* optional impairments (loss, reordering, duplication) driven by a
  dedicated random stream so experiments can inject packet loss exactly
  where the paper's Fig 7 scenarios need it.

Serialization is deterministic, so a FIFO transmitter never needs an
event to learn when it frees: :meth:`Channel.send` fixes each frame's
departure when the frame is enqueued — ``start = max(now,
busy_until)``, ``end = start + serialization`` — and schedules exactly
one record for it.  An unimpaired frame's record is its delivery at
``end + propagation_ns``; an impaired frame's is ``_launch`` at
``end``, which draws loss, duplication and reordering in FIFO order from
the channel's own stream at the instant the frame leaves the
transmitter.  The transmitter is free at exactly ``now == busy_until``.
Occupancy for drop-tail and the queue-depth gauge comes from a deque of
the frames whose serialize-end is still ahead: those with ``start >
now`` are waiting, at most one is serializing.  A mid-run impairment
swap (:meth:`Channel.on_impairments_changed`) reschedules every frame
not yet off the transmitter as ``_launch`` at its own serialize-end, so
it meets the new impairments; frames already on the wire keep their
delivery.

**Whole-request folding** extends an unimpaired delivery *through the
receiving node*: the channel asks the sink node for an
:meth:`~repro.net.device.Node.arrival_extension` — extra deterministic
hops (a PMNet device's ingress/PM stages) appended after the delivery
instant, ending in the node's own barrier callback instead of
:meth:`Channel._deliver`.  Each extra hop re-sequences at exactly the
instant the device's own pipeline would have allocated the
corresponding event, so tie-breaking is unchanged; the barrier
re-checks the receiver's liveness just as that pipeline's interior
callbacks would.  The channel model is the same at every fold level;
``PMNET_FOLD=none`` only makes devices decline the extensions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

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
    and later mutation alike) refreshes it, so the per-send impairment
    check is one attribute read yet still sees a loss window opened by
    mutating a live instance.
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


class _DepthGauge(Gauge):
    """A channel's queue-depth gauge: the level is derived from the
    channel's pending departures on every read, so it is exact (0 after
    a drain) with no event; sends only raise the high-water mark."""

    __slots__ = ("_channel",)

    def __init__(self, name: str, channel: "Channel") -> None:
        self.name = name
        self.highwater = 0
        self._channel = channel

    @property
    def value(self) -> int:
        return self._channel.queue_depth


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
        #: ``(start, end, record, frame)`` of every frame whose
        #: serialize-end is still ahead, in FIFO order; ``record`` is the
        #: frame's one scheduled record (see :meth:`send`).  Entries are
        #: pruned lazily, so a prefix may already have departed.
        self._pending: deque = deque()
        #: Absolute time the transmitter finishes its last accepted frame.
        self._busy_until = 0
        #: Whether the sink node can ever extend an inbound chain: a
        #: node class that keeps the base ``arrival_extension`` (a plain
        #: switch) never does, so :meth:`send` skips asking it.
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
        self.queue_depth_highwater = _DepthGauge(f"{name}.queue_depth", self)
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

        :meth:`send` calls this only when :attr:`_sink_extends` is set,
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
        """Enqueue a frame (drop-tail when full) and schedule its one
        record: the departure is fixed here, at enqueue."""
        sim = self.sim
        now = sim.now
        pending = self._pending
        start = self._busy_until
        if start <= now:
            # Idle transmitter (free at exactly ``busy_until``): every
            # tracked frame is already on the wire.
            pending.clear()
            start = now
            waiting = 0
        else:
            while pending[0][1] <= now:
                pending.popleft()
            # Only the head can have started serializing.
            waiting = len(pending) - (pending[0][0] <= now)
        if waiting >= self.profile.queue_capacity_packets:
            self.dropped_full.increment()
            self.dropped_full_bytes.increment(
                frame.wire_size(self.profile.header_overhead_bytes))
            return
        wire_bytes, serialize = (self._costs.get(frame.payload_bytes)
                                 or self._cost_of(frame.payload_bytes))
        self.bytes_sent.value += wire_bytes
        end = start + serialize
        self._busy_until = end
        if start > now:
            waiting += 1
            gauge = self.queue_depth_highwater
            if waiting > gauge.highwater:
                gauge.highwater = waiting
        if self.impairments.enabled:
            record = sim.schedule(end - now, self._launch, frame)
        else:
            self.folded_sends.value += 1
            extension = (self._sink_extension(frame) if self._sink_extends
                         else None)
            if extension is None:
                record = sim.schedule(
                    end + self.profile.propagation_ns - now,
                    self._deliver, frame)
            else:
                hops, callback, args = extension
                record = sim.schedule_deferred(
                    end + self.profile.propagation_ns - now, hops,
                    self._deliver_ext, callback, args)
        pending.append((start, end, record, frame))

    def _deliver_ext(self, callback, args) -> None:
        """Barrier slot of an extension-carrying chain: count the wire
        delivery (the chain subsumed the ``_deliver`` hop) and run the
        receiving node's barrier callback."""
        self.delivered.value += 1
        callback(*args)

    def on_impairments_changed(self) -> None:
        """Re-route frames still at the transmitter after a mid-run
        impairment swap (a chaos fault window opening or closing).

        Every frame whose serialize-end lies after this instant has its
        record cancelled and replaced by ``_launch`` at that same
        serialize-end, where it checks the new impairments and draws in
        FIFO order from the channel's stream.  Frames already on the
        wire keep their delivery.

        Cached arrival plans on the receiving node are dropped too: the
        plan cache must never outlive a reconfiguration of the path
        that feeds it.
        """
        self.sink.node.invalidate_arrival_plans()
        sim = self.sim
        now = sim.now
        relaunched = deque()
        for start, end, record, frame in self._pending:
            if end > now:
                record.cancel()
                relaunched.append(
                    (start, end, sim.schedule(end - now, self._launch, frame),
                     frame))
        self._pending = relaunched

    def _launch(self, frame: Frame) -> None:
        if not self.impairments.enabled:
            # The impairments were lifted while this frame waited: it
            # flies like an unimpaired send, extension included.
            # Impaired copies never extend.
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
        now = self.sim.now
        pending = self._pending
        while pending and pending[0][1] <= now:
            pending.popleft()
        return len(pending) - (bool(pending) and pending[0][0] <= now)

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

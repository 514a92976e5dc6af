"""Abstract network node: anything a link can terminate at.

Concrete nodes are plain switches (:mod:`repro.net.switch`), PMNet devices
(:mod:`repro.core.pmnet_device`), and hosts (:mod:`repro.stack.host`).
A node owns numbered ports; each port is attached to one directed pair of
channels by the topology builder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import NetworkError
from repro.net.packet import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel
    from repro.sim.kernel import Simulator


class Port:
    """One attachment point of a node; sends into a directed channel."""

    def __init__(self, node: "Node", index: int) -> None:
        self.node = node
        self.index = index
        self.channel: Optional["Channel"] = None

    @property
    def connected(self) -> bool:
        return self.channel is not None

    def transmit(self, frame: Frame) -> None:
        """Send a frame out of this port."""
        if self.channel is None:
            raise NetworkError(
                f"port {self.index} of {self.node.name} is not connected")
        self.channel.send(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.index}]>"


class Node:
    """Base class for every device attached to the fabric."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        #: Set by the failure injector; failed nodes drop all traffic.
        self.failed = False
        #: Per-frame-kind arrival-extension plans cached by inbound
        #: channels.  Invalidated on failure, recovery, impairment
        #: change, and device replacement — any event that could change
        #: what this node answers.
        self._arrival_plans: dict = {}

    def add_port(self) -> Port:
        """Create one more port on this node."""
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        """Process one arriving frame; subclasses must implement.

        :meth:`Channel._deliver <repro.net.link.Channel._deliver>` calls
        this for every frame that reaches ``in_port`` while the node is
        up (a failed node is a black hole), after counting the hop.
        """
        raise NotImplementedError

    def arrival_extension(self, frame: Frame):
        """Whole-request folding hook, queried by an inbound channel
        when it schedules a delivery.

        A node that can absorb this frame's arrival into deterministic
        extra hops returns ``(extra_hops, barrier)``: the wire chain is
        extended by ``extra_hops`` and ends in ``barrier(frame,
        frame.payload)`` — which must re-check the node's liveness
        exactly as the folded pipeline's interior callbacks would — instead
        of the usual ``Channel._deliver`` delivery.  The answer must be
        a pure function of the frame's kind (its PMNet packet type, or
        "not PMNet"): channels cache it per kind until
        :meth:`invalidate_arrival_plans`.  The base node never extends.
        """
        return None

    def fail(self) -> None:
        """Mark the node failed (volatile state handling is subclass duty).

        A switch's folded forwards commit their delivery at reservation
        time, before the instant the unfolded model would have
        re-checked ``failed`` (see :meth:`Channel.send_in`).  Revoking
        every not-yet-started reservation on this node's outgoing
        channels converts each one back into its unfolded fire-time
        callback, so a crash inside a fold window drops exactly the
        frames the unfolded model drops.  Started reservations
        (serialization underway) are kept: the unfolded timeline had
        also committed those to the wire.  Nodes that never reserve
        (hosts, PMNet devices) find nothing to revoke.
        """
        self.failed = True
        self.invalidate_arrival_plans()
        for port in self.ports:
            if port.channel is not None:
                port.channel.revoke_unstarted()

    def recover(self) -> None:
        """Bring the node back after an intermittent failure."""
        self.failed = False
        self.invalidate_arrival_plans()

    def invalidate_arrival_plans(self) -> None:
        """Drop every cached arrival-extension plan for this node.

        Channels re-query :meth:`arrival_extension` per kind after this;
        call it whenever the node's extension answers could change
        (failure, recovery, reconfiguration, in-place replacement).
        """
        plans = self._arrival_plans
        if plans:
            plans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "up"
        return f"<{type(self).__name__} {self.name!r} ports={len(self.ports)} {state}>"


class ForwardingTable:
    """Destination-node -> output-port map with an optional default."""

    def __init__(self) -> None:
        self._routes: Dict[str, Port] = {}
        self.default: Optional[Port] = None

    def set_route(self, destination: str, port: Port) -> None:
        self._routes[destination] = port

    def lookup(self, destination: str) -> Port:
        port = self._routes.get(destination)
        if port is None:
            port = self.default
        if port is None:
            raise NetworkError(f"no route to {destination!r}")
        return port

    def destinations(self) -> List[str]:
        return sorted(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

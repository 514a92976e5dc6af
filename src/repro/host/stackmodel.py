"""Host network-stack latency model.

Wraps a :class:`~repro.config.StackProfile` with the random machinery
that produces realistic latency *distributions*: mean-preserving
lognormal jitter on every crossing, plus rare long hiccups on the
application dispatch path (scheduler preemption) that create the tail
the paper's Fig 20 CDFs measure.
"""

from __future__ import annotations

from math import exp
from typing import TYPE_CHECKING

from repro.config import TCP_EXTRA_PER_SIDE_NS, StackProfile
from repro.sim.rand import LatencyJitter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Transports a host stack can speak.
UDP = "udp"
TCP = "tcp"


class HostStack:
    """Charges stack traversal costs for one host."""

    def __init__(self, sim: "Simulator", name: str, profile: StackProfile,
                 transport: str = UDP) -> None:
        if transport not in (UDP, TCP):
            raise ValueError(f"unknown transport {transport!r}")
        self.sim = sim
        self.name = name
        self.profile = profile
        self.transport = transport
        self._jitter = jitter = LatencyJitter(
            sim.random.stream(f"stack:{name}"), profile.jitter_sigma)
        # ``send_cost``/``recv_cost`` run once per packet crossing, so
        # they repeat ``LatencyJitter.sample`` inline: the same bound
        # ``normalvariate`` and ``exp`` that ``lognormvariate`` calls,
        # so the stream and every value are identical, two frames
        # cheaper.
        self._normal = jitter.normalvariate
        self._mu = jitter.mu
        self._sigma = jitter.sigma
        self._tcp_ns = TCP_EXTRA_PER_SIDE_NS if transport == TCP else 0
        self._hiccup_rng = sim.random.stream(f"hiccup:{name}")

    # ------------------------------------------------------------------
    def send_cost(self, payload_bytes: int) -> int:
        """Cost of pushing one packet down the stack onto the NIC."""
        base = (self.profile.send_ns
                + round(payload_bytes * self.profile.copy_ns_per_byte)
                + self._tcp_ns)
        if base <= 0 or self._sigma == 0.0:
            return max(base, 0)
        return max(base // 2,
                   round(base * exp(self._normal(self._mu, self._sigma))))

    def recv_cost(self, payload_bytes: int) -> int:
        """Cost of raising one packet from the NIC into the stack."""
        base = (self.profile.recv_ns
                + round(payload_bytes * self.profile.copy_ns_per_byte)
                + self._tcp_ns)
        if base <= 0 or self._sigma == 0.0:
            return max(base, 0)
        return max(base // 2,
                   round(base * exp(self._normal(self._mu, self._sigma))))

    def dispatch_cost(self) -> int:
        """Cost of waking the application thread for one request.

        This is where the latency tail lives: with probability
        ``hiccup_probability`` the wakeup is delayed by ``hiccup_ns``.
        """
        base = self._jitter.sample(self.profile.dispatch_ns)
        if (self.profile.hiccup_probability > 0.0
                and self._hiccup_rng.random() < self.profile.hiccup_probability):
            base += self.profile.hiccup_ns
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostStack {self.name} {self.profile.name}/{self.transport}>"

"""Additional substrate tests: switch behaviour and channel counters."""

from repro.config import NetworkProfile
from repro.net.device import ForwardingTable, Node, Port
from repro.net.packet import Frame
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator

import pytest

from repro.errors import NetworkError
from tests.knobs import pinned


class _Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame, in_port):
        self.arrivals.append((self.sim.now, frame))


def _wired(sim):
    profile = NetworkProfile()
    topo = Topology(sim, profile)
    a = topo.add(_Host(sim, "a"))
    b = topo.add(_Host(sim, "b"))
    sw = topo.add(Switch(sim, "sw", profile))
    link_a = topo.connect(a, sw)
    link_b = topo.connect(sw, b)
    topo.compute_routes()
    return topo, a, b, sw, link_a, link_b


class TestSwitch:
    def test_forwarding_delay_charged(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        arrival, _frame = b.arrivals[0]
        # two link traversals (117+100 each) + 300 ns switch.
        assert arrival == 2 * (117 + 100) + 300

    def test_forwarded_counter(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(sw.forwarded) == 5

    def test_failed_switch_drops_everything(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        sw.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []

    def test_crash_inside_forward_window_drops_frame(self):
        # The frame reaches the switch at 1137 ns (1037 serialize + 100
        # wire); the forwarding window runs to 1437 ns.  A crash at
        # 1300 ns lands inside it: `_forward`'s failed check drops the
        # frame uncounted.
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.schedule_at(1300, sw.fail)
        sim.run()
        assert b.arrivals == []
        assert int(sw.forwarded) == 0

    @pytest.mark.parametrize("fold", ["none", "whole"])
    def test_forwarded_counts_at_the_forwarding_instant(self, fold):
        # Same wiring as above: arrival at 1137 ns, forward at 1437 ns.
        # Read inside the window, the frame is not yet forwarded at
        # either fold level.
        with pinned(fold=fold):
            sim = Simulator()
            _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        seen = []
        sim.schedule_at(1300, lambda: seen.append(int(sw.forwarded)))
        sim.run()
        assert seen == [0]
        assert int(sw.forwarded) == 1
        assert len(b.arrivals) == 1

    def test_recovered_switch_forwards_again(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        sw.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        sw.recover()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert len(b.arrivals) == 1


class TestChannelCounters:
    def test_bytes_and_delivered(self):
        sim = Simulator()
        _topo, a, b, _sw, link_a, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        assert int(link_a.forward.delivered) == 1
        assert int(link_a.forward.bytes_sent) == 146  # 100 + 46 framing

    def test_queue_depth_visible_mid_burst(self):
        sim = Simulator()
        _topo, a, _b, _sw, link_a, _lb = _wired(sim)
        for _ in range(4):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        # One serializing, three queued.
        assert link_a.forward.queue_depth == 3


class TestForwardingTable:
    def test_default_route_fallback(self):
        sim = Simulator()
        table = ForwardingTable()
        node = _Host(sim, "x")
        port = Port(node, 0)
        table.default = port
        assert table.lookup("anywhere") is port

    def test_no_route_no_default_raises(self):
        table = ForwardingTable()
        with pytest.raises(NetworkError):
            table.lookup("nowhere")

    def test_destinations_listing(self):
        sim = Simulator()
        table = ForwardingTable()
        node = _Host(sim, "x")
        table.set_route("b", Port(node, 0))
        table.set_route("a", Port(node, 1))
        assert table.destinations() == ["a", "b"]
        assert len(table) == 2

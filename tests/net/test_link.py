"""Unit tests for links: serialization, queueing, impairments."""

import pytest

from repro.config import NetworkProfile
from repro.net.device import Node, Port
from repro.net.link import Impairments, Link
from repro.net.packet import Frame
from repro.sim import Simulator


class _Sink(Node):
    """A node that records arrivals with timestamps."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        self.arrivals.append((self.sim.now, frame))


def _pair(sim, profile=None, **impair):
    profile = profile or NetworkProfile()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    link = Link(sim, profile, a.add_port(), b.add_port(),
                impairments_ab=Impairments(**impair) if impair else None)
    return a, b, link


class TestTiming:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=100,
                                 header_overhead_bytes=46)
        a, b, _link = _pair(sim, profile)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        # (100+46)*8 bits / 10 Gbps = 117 ns (rounded up), +100 ns wire.
        assert b.arrivals[0][0] == 117 + 100

    def test_back_to_back_frames_serialize_sequentially(self):
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=0,
                                 header_overhead_bytes=0)
        a, b, _link = _pair(sim, profile)
        for _ in range(3):
            a.ports[0].transmit(Frame("a", "b", None, 1250))  # 1 us each
        sim.run()
        times = [t for t, _f in b.arrivals]
        assert times == [1000, 2000, 3000]

    def test_duplex_is_independent(self):
        sim = Simulator()
        a, b, _link = _pair(sim)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        b.ports[0].transmit(Frame("b", "a", None, 10))
        sim.run()
        assert len(a.arrivals) == 1
        assert len(b.arrivals) == 1


class TestQueueing:
    def test_drop_tail_when_queue_full(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=2)
        a, b, link = _pair(sim, profile)
        for _ in range(10):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        sim.run()
        # 1 in flight + 2 queued survive the burst; later sends enqueue
        # as the transmitter drains, so some drops must be recorded.
        assert int(link.forward.dropped_full) > 0
        assert len(b.arrivals) + int(link.forward.dropped_full) == 10


class TestImpairments:
    def test_loss_drops_frames(self):
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=1.0)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []
        assert int(link.forward.dropped_loss) == 5

    def test_duplication_delivers_twice(self):
        sim = Simulator()
        a, b, _link = _pair(sim, duplicate_probability=1.0)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert len(b.arrivals) == 2

    def test_reordering_delays_marked_frames(self):
        sim = Simulator()
        profile = NetworkProfile(propagation_ns=100)
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        Link(sim, profile, a.add_port(), b.add_port(),
             impairments_ab=Impairments(reorder_probability=1.0,
                                        reorder_extra_ns=5_000))
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals[0][0] > 5_000

    def test_duplicate_copy_draws_its_own_loss(self):
        # loss=0.5 + duplicate=1.0: each copy draws independently, so
        # frames arriving exactly once (one copy lost) and exactly
        # twice (both survive) must both occur — combinations the old
        # shared-draw code made unreachable.
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=0.5,
                           duplicate_probability=1.0)
        n = 200
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()
        delivered = len(b.arrivals)
        dropped = int(link.forward.dropped_loss)
        # Every one of the 2n copies met exactly one fate.
        assert delivered + dropped == 2 * n
        per_frame = {}
        for _t, frame in b.arrivals:
            per_frame[frame.payload] = per_frame.get(frame.payload, 0) + 1
        counts = set(per_frame.values())
        assert 1 in counts, "a lone surviving copy never happened"
        assert 2 in counts, "both copies surviving never happened"
        assert len(per_frame) < n, "a fully-lost frame never happened"

    def test_duplicate_copy_draws_its_own_reorder(self):
        # duplicate=1.0 + reorder=0.5: some frame must arrive with one
        # copy on time and the other delayed by exactly
        # reorder_extra_ns — impossible when the copy skipped the
        # reorder draw.
        sim = Simulator()
        profile = NetworkProfile(propagation_ns=100)
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        Link(sim, profile, a.add_port(), b.add_port(),
             impairments_ab=Impairments(duplicate_probability=1.0,
                                        reorder_probability=0.5,
                                        reorder_extra_ns=5_000))
        n = 100
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()
        assert len(b.arrivals) == 2 * n
        gaps = {}
        for t, frame in b.arrivals:
            gaps.setdefault(frame.payload, []).append(t)
        split = [times for times in gaps.values()
                 if max(times) - min(times) == 5_000]
        together = [times for times in gaps.values()
                    if max(times) == min(times)]
        assert split, "copies never took different reorder fates"
        assert together, "copies never shared a reorder fate"

    def test_impaired_draw_sequence_is_pinned(self):
        # The corrected per-frame draw order is load-bearing for seeded
        # reproducibility: loss(original), duplicate, then per surviving
        # copy a reorder draw, plus the duplicate's own loss draw.  This
        # replays the channel's dedicated stream and predicts every
        # arrival/drop exactly.
        import random as _random

        seed = 11
        imp = dict(loss_probability=0.4, duplicate_probability=0.5,
                   reorder_probability=0.3)
        sim = Simulator(seed=seed)
        a, b, link = _pair(sim, **imp)
        n = 150
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()

        rng = _random.Random(f"{seed}/channel:a->b")
        expected_delivered = 0
        expected_dropped = 0
        for _ in range(n):
            lost = rng.random() < imp["loss_probability"]
            duplicated = rng.random() < imp["duplicate_probability"]
            if lost:
                expected_dropped += 1
            else:
                rng.random()  # the original's reorder draw
                expected_delivered += 1
            if duplicated:
                if rng.random() < imp["loss_probability"]:
                    expected_dropped += 1
                else:
                    rng.random()  # the duplicate's reorder draw
                    expected_delivered += 1
        assert len(b.arrivals) == expected_delivered
        assert int(link.forward.dropped_loss) == expected_dropped

    def test_failed_node_blackholes(self):
        sim = Simulator()
        a, b, _link = _pair(sim)
        b.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []

    def test_disconnected_port_raises(self):
        sim = Simulator()
        node = _Sink(sim, "lonely")
        port = node.add_port()
        from repro.errors import NetworkError
        with pytest.raises(NetworkError):
            port.transmit(Frame("lonely", "x", None, 1))


def _fast_profile():
    """1000 ns serialization for a 1250 B frame, 100 ns propagation."""
    return NetworkProfile(bandwidth_bps=10e9, propagation_ns=100,
                          header_overhead_bytes=0)


class TestFoldedFastPath:
    def test_fast_path_times_match_unfolded(self, monkeypatch):
        def burst(sim):
            a, b, _link = _pair(sim, _fast_profile())
            for _ in range(4):
                a.ports[0].transmit(Frame("a", "b", None, 1250))
            sim.schedule(2_500, a.ports[0].transmit,
                         Frame("a", "b", None, 1250))
            sim.run()
            return [t for t, _f in b.arrivals]

        folded = burst(Simulator())
        monkeypatch.setenv("PMNET_FOLD", "none")
        unfolded = burst(Simulator())
        assert folded == unfolded
        assert folded == [1100, 2100, 3100, 4100, 5100]

    def test_folded_sends_counted(self):
        sim = Simulator()
        a, _b, link = _pair(sim, _fast_profile())
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.folded_sends) == 1

    def test_impaired_channel_never_folds(self):
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=1.0)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.folded_sends) == 0
        assert b.arrivals == []

    def test_impairments_checked_per_send_not_cached(self):
        sim = Simulator()
        a, b, link = _pair(sim, _fast_profile())
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.folded_sends) == 1
        # A loss window opened mid-run must bypass the fold immediately.
        link.forward.impairments.loss_probability = 1.0
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.folded_sends) == 1
        assert int(link.forward.dropped_loss) == 1
        assert len(b.arrivals) == 1


class TestReservations:
    def test_reservation_folds_pre_delay_into_one_event(self):
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", None, 1250),
                               channel.send) is True
        sim.run()
        # pre 500 + serialize 1000 + propagation 100, one executed event.
        assert b.arrivals[0][0] == 1600
        assert sim.executed_events == 1

    def test_reservation_refused_while_transmitter_busy(self):
        sim = Simulator()
        a, _b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", None, 1250),
                               channel.send) is True
        # Serialization occupies [500, 1500): a 200 ns lead cannot fit.
        assert channel.send_in(200, Frame("a", "b", None, 1250),
                               channel.send) is False

    def test_stacked_reservations_serialize_exactly(self):
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", None, 1250),
                               channel.send) is True
        # A longer lead clears the first reservation's busy window.
        assert channel.send_in(1_700, Frame("a", "b", None, 1250),
                               channel.send) is True
        sim.run()
        assert [t for t, _f in b.arrivals] == [1600, 2800]

    def test_plain_send_revokes_unstarted_reservation(self):
        sim = Simulator()
        a, b, link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        reserved = Frame("a", "b", "reserved", 1250)
        plain = Frame("a", "b", "plain", 1250)
        channel.send_in(500, reserved, channel.send)
        # A competing send lands inside the pre-delay gap: on the
        # unfolded timeline the transmitter is idle at t=100, so the
        # plain frame must go first and the reserved one re-send at its
        # original start time and queue behind it.
        sim.schedule(100, channel.send, plain)
        sim.run()
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (1200, "plain"), (2200, "reserved")]
        # Both frames' bytes end up counted exactly once.
        assert int(link.forward.bytes_sent) == 2500
        assert int(link.forward.folded_sends) == 1

    def test_started_reservation_is_not_revoked(self):
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        reserved = Frame("a", "b", "reserved", 1250)
        plain = Frame("a", "b", "plain", 1250)
        channel.send_in(500, reserved, channel.send)
        # The competing send arrives after serialization began at t=500:
        # the reservation is already on the wire and keeps its slot.
        sim.schedule(700, channel.send, plain)
        sim.run()
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (1600, "reserved"), (2600, "plain")]

    def test_queued_behind_fold_converts_in_place(self, monkeypatch):
        # A folds; B queues mid-serialization (converting A's record to
        # the unfolded `_serialized` slot); C lands exactly at the
        # serialize end, where the old drain event's later-allocated seq
        # could have tie-broken differently.
        def scenario(sim):
            a, b, _link = _pair(sim, _fast_profile())
            channel = a.ports[0].channel
            channel.send(Frame("a", "b", "A", 1250))  # busy until 1000
            sim.schedule(400, channel.send, Frame("a", "b", "B", 1250))
            sim.schedule(1000, channel.send, Frame("a", "b", "C", 1250))
            sim.run()
            return [(t, f.payload) for t, f in b.arrivals]

        folded = scenario(Simulator())
        monkeypatch.setenv("PMNET_FOLD", "none")
        unfolded = scenario(Simulator())
        assert folded == unfolded
        assert folded == [(1100, "A"), (2100, "B"), (3100, "C")]

    def test_zero_propagation_never_folds(self):
        # With a zero-delay wire the folded chain would execute delivery
        # on the send-time seq instead of the serialize-instant seq the
        # unfolded `_launch` allocates, so folding is gated off.
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=0,
                                 header_overhead_bytes=0)
        a, b, link = _pair(sim, profile)
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", None, 1250),
                               channel.send) is False
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.run()
        assert int(link.forward.folded_sends) == 0
        assert [t for t, _f in b.arrivals] == [1000]

    def test_revocation_matches_unfolded_timeline(self, monkeypatch):
        def scenario(sim, fold):
            a, b, _link = _pair(sim, _fast_profile())
            channel = a.ports[0].channel
            reserved = Frame("a", "b", "reserved", 1250)
            plain = Frame("a", "b", "plain", 1250)
            if fold:
                assert channel.send_in(500, reserved, channel.send) is True
            else:
                sim.schedule(500, channel.send, reserved)
            sim.schedule(100, channel.send, plain)
            sim.run()
            return [(t, f.payload) for t, f in b.arrivals]

        folded = scenario(Simulator(), fold=True)
        monkeypatch.setenv("PMNET_FOLD", "none")
        unfolded = scenario(Simulator(), fold=False)
        assert folded == unfolded


class TestRevocationLiveness:
    def test_revoked_reservation_routes_through_on_revoke(self):
        # The revoked heap slot must run the owner's fire-time callback,
        # not re-enter Channel.send directly.
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        observed = []

        def on_revoke(frame):
            observed.append((sim.now, frame.payload))
            channel.send(frame)

        assert channel.send_in(500, Frame("a", "b", "reserved", 1250),
                               on_revoke) is True
        sim.schedule(100, channel.send, Frame("a", "b", "plain", 1250))
        sim.run()
        assert observed == [(500, "reserved")]
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (1200, "plain"), (2200, "reserved")]

    def test_failed_node_never_transmits_revoked_reservation(self):
        # Node.fail revokes pending unstarted reservations; the
        # on_revoke fire-time check then drops the frame, exactly as
        # the unfolded owner callback would have.
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel

        def on_revoke(frame):
            if a.failed:
                return
            channel.send(frame)

        assert channel.send_in(500, Frame("a", "b", "doomed", 1250),
                               on_revoke) is True
        sim.schedule(200, a.fail)  # inside the pre-delay gap
        sim.run()
        assert b.arrivals == []
        assert int(channel.bytes_sent) == 0
        assert int(channel.folded_sends) == 0

    def test_started_reservation_survives_node_failure(self):
        # Serialization began before the crash: the unfolded timeline
        # had committed the frame to the wire too, so it delivers.
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", "committed", 1250),
                               lambda frame: None) is True
        sim.schedule(700, a.fail)  # serialization started at 500
        sim.run()
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (1600, "committed")]


class TestChannelSummary:
    def test_queue_depth_highwater_in_summary(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=8)
        a, _b, link = _pair(sim, profile)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        summary = link.forward.summary()
        # One in flight (folded), four waiting behind it.
        assert summary["queue_depth"] == 4
        sim.run()
        drained = link.forward.summary()
        assert drained["queue_depth"] == 0
        # The gauge's mark keeps the worst pressure seen.
        assert drained["queue_depth_highwater"] == 4

    def test_dropped_full_bytes_counted(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=1,
                                 header_overhead_bytes=46)
        a, _b, link = _pair(sim, profile)
        for _ in range(4):
            a.ports[0].transmit(Frame("a", "b", None, 100))
        summary = link.forward.summary()
        assert summary["dropped_full"] == 2
        assert summary["dropped_full_bytes"] == 2 * (100 + 46)

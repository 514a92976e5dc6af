"""Unit tests for the raw event queues (ordering, cancellation, tiers).

Every contract test runs against both scheduler backends — the single
binary heap and the tiered lane/calendar/far queue — because they must
be observably interchangeable.
Tiered-only structure tests (routing, compaction of each tier) live in
their own class.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.event import (
    COMPACT_MIN_CANCELLED,
    HeapEventQueue,
    TieredEventQueue,
    make_event_queue,
)

BACKENDS = [HeapEventQueue, TieredEventQueue]


@pytest.fixture(params=BACKENDS, ids=lambda cls: cls.backend)
def queue(request):
    return request.param()


class TestEventQueue:
    def test_pop_orders_by_time(self, queue):
        queue.push(30, lambda: None)
        queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        assert [queue.pop().time for _ in range(3)] == [10, 20, 30]

    def test_fifo_within_same_time(self, queue):
        handles = [queue.push(5, lambda: None) for _ in range(4)]
        popped = [queue.pop() for _ in range(4)]
        assert popped == handles

    def test_cancelled_entries_skipped(self, queue):
        keep = queue.push(10, lambda: None)
        drop = queue.push(5, lambda: None)
        drop.cancel()
        assert queue.pop() is keep

    def test_len_excludes_cancelled(self, queue):
        queue.push(1, lambda: None)
        victim = queue.push(2, lambda: None)
        victim.cancel()
        assert len(queue) == 1

    def test_len_is_exact_through_mixed_traffic(self, queue):
        # The O(1) counter must agree with a hand-maintained count
        # through an arbitrary push/pop/cancel interleaving.
        live = 0
        handles = []
        for time in range(1, 41):
            handles.append(queue.push(time, lambda: None))
            live += 1
            assert len(queue) == live
        for victim in handles[::3]:
            victim.cancel()
            live -= 1
            assert len(queue) == live
        while queue:
            queue.pop()
            live -= 1
            assert len(queue) == live
        assert live == 0

    def test_double_cancel_counts_once(self, queue):
        queue.push(1, lambda: None)
        victim = queue.push(2, lambda: None)
        victim.cancel()
        victim.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self, queue):
        victim = queue.push(1, lambda: None)
        queue.push(9, lambda: None)
        victim.cancel()
        assert queue.peek_time() == 9

    def test_empty_pop_raises(self, queue):
        with pytest.raises(IndexError):
            queue.pop()

    def test_bool_reflects_pending_work(self, queue):
        assert not queue
        handle = queue.push(1, lambda: None)
        assert queue
        handle.cancel()
        assert not queue

    def test_peek_empty_returns_none(self, queue):
        assert queue.peek_time() is None

    def test_compaction_purges_dominant_dead_records(self, queue):
        # Cancel-heavy regression guard: when cancelled records dominate
        # the physical structures, the queue must sweep them out instead
        # of carrying them until their (never-arriving) pop.  This is
        # exactly the retransmission pattern — most timeout guards are
        # cancelled long before they fire.
        keepers = [queue.push(10_000 + i, lambda: None) for i in range(8)]
        victims = [queue.push(20_000 + i, lambda: None)
                   for i in range(4 * COMPACT_MIN_CANCELLED)]
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert queue.tier_stats()["cancelled_pending"] < len(victims)
        assert len(queue) == len(keepers)
        assert [queue.pop() for _ in range(len(keepers))] == keepers

    def test_compaction_preserves_order_and_survivors(self, queue):
        order = []
        handles = {}
        for time in range(1, 3 * COMPACT_MIN_CANCELLED):
            handles[time] = queue.push(time, lambda: None)
        for time, handle in handles.items():
            if time % 3:
                handle.cancel()
        queue.compact()
        while queue:
            order.append(queue.pop().time)
        assert order == [t for t in handles if t % 3 == 0]


class TestTieredRouting:
    def test_push_routes_by_delta_from_queue_clock(self):
        queue = TieredEventQueue(horizon=100)
        queue.push(0, lambda: None)            # same instant -> lane
        queue.push(50, lambda: None)           # inside horizon -> calendar
        queue.push(5_000, lambda: None)        # beyond horizon -> far
        assert len(queue._lane) == 1
        assert list(queue._buckets) == [50]
        assert len(queue._far) == 1
        assert [queue.pop().time for _ in range(3)] == [0, 50, 5_000]

    def test_far_record_drains_before_equal_time_bucket(self):
        # A record pushed far (when its delta was >= horizon) must still
        # precede a later same-time calendar push: tier never trumps the
        # (time, seq) contract.
        queue = TieredEventQueue(horizon=10)
        early = queue.push(50, lambda: None)   # delta 50 >= 10 -> far
        queue.push(5, lambda: None)
        assert queue.pop().time == 5           # qnow = 5; 50 is near now
        late = queue.push(50, lambda: None)    # -> calendar bucket
        assert queue.pop() is early
        assert queue.pop() is late

    def test_lane_pushes_during_drain_stay_fifo(self):
        queue = TieredEventQueue()
        seen = []

        def chained(tag):
            seen.append(tag)
            if tag < 3:
                queue.push(10, chained, (tag + 1,))

        queue.push(10, chained, (1,))
        queue.push(10, lambda: seen.append("peer"))
        while queue:
            call = queue.pop()
            call.callback(*call.args)
        assert seen == [1, "peer", 2, 3]

    def test_compaction_sweeps_every_tier(self):
        queue = TieredEventQueue(horizon=100)
        queue.push(40, lambda: None)
        victims = [queue.push(50 + (i % 30), lambda: None)
                   for i in range(2 * COMPACT_MIN_CANCELLED)]
        victims += [queue.push(10_000 + i, lambda: None)
                    for i in range(2 * COMPACT_MIN_CANCELLED)]
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert len(queue) == 1
        assert queue.pop().time == 40

    def test_invalid_horizon_rejected(self):
        with pytest.raises(SimulationError):
            TieredEventQueue(horizon=0)


class TestBackendSelection:
    def test_factory_builds_each_backend(self):
        assert make_event_queue("heap").backend == "heap"
        assert make_event_queue("tiered").backend == "tiered"

    def test_factory_rejects_unknown_backend(self):
        with pytest.raises(SimulationError):
            make_event_queue("quantum")

"""The ``compiled`` scheduler backend: an exec-specialized drain loop.

``PMNET_KERNEL=compiled`` resolves to this module (the hook point the
kernel reserved when the tiered scheduler landed).  The container this
repository targets has no Cython/mypyc toolchain and a single core, so
the backend is the *pure-Python* half of the ROADMAP's compiled-hot-path
item: instead of compiling to C, it compiles to *specialized Python* —
``run_loop`` generates (``exec``) a drain loop tailored to the exact
Simulator configuration and caches it for the life of the process.

What generation buys over the hand-written tiered loop
------------------------------------------------------

* **Config-dead branches are eliminated at generation time.**  The
  tiered loop tests ``check_until``, the event budget, and the profiler
  on every event even when the run has none of them; the generated loop
  simply omits those tests.  (The loadgen/chaos drive — ``run()`` with
  no bound, no budget, no profiler — gets the leanest variant.)
* **The horizon is constant-folded.**  Tier routing for re-sequenced
  deferred records compares against a literal, not an attribute load.
* **Cancelled-check and deferred-hop walks are inlined.**  The tiered
  loop calls ``q._drop_cancelled()`` / ``q.resequence()`` per skipped
  record; the generated loop performs the counter arithmetic and the
  hop re-insertion inline on already-hoisted locals.
* **The ``until`` check is hoisted to instant boundaries.**  Within one
  drain instant the queue clock cannot move, so the bound is checked
  when the instant is entered, not per event.  (The live-count guard on
  the ``self.now = until`` pin is preserved exactly — see
  ``Simulator._run_tiered`` for why it exists.)
* **Tier cursors and lengths live in locals.**  The claimed bucket is
  append-frozen (same-instant pushes join the lane), so its length is
  hoisted once per claim; per-tier pop counters are derived from cursor
  deltas at instant boundaries instead of incremented per event.
* **``stop()`` is polled only after user code runs.**  Only a callback
  can set the flag, so non-executing iterations skip the test.

Contract and regeneration
-------------------------

:class:`CompiledEventQueue` subclasses :class:`TieredEventQueue`
unchanged: pushes, cancellation, compaction, ``step()``/``peek_time``
and ``tier_stats()`` are shared code, so everything outside ``run()``
is trivially identical to ``tiered`` and ``kernel_stats()`` reports
real tier numbers.  A loop variant is generated once per
``(until?, budget?, profiler?, horizon)`` key and cached at module
level; attaching a profiler or changing ``PMNET_KERNEL_HORIZON``
therefore regenerates (once), and every Simulator with the same shape
reuses the cached function.  Ordering, tie-breaking, counter
writebacks, and the final value of ``sim.now`` are bit-for-bit those of
the tiered loop — guarded by the differential programs in
``tests/sim/test_scheduler_equivalence.py`` and the identity suites in
``tests/integration/test_kernel_backend_identity.py``.

An ahead-of-time C extension (mypyc/Cython) remains an optional drop-in
behind the same module contract: export ``make_event_queue()`` and
``run_loop(sim, until, max_events)`` and the kernel will use it.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.sim.event import QUEUE_BACKENDS, TieredEventQueue

__all__ = ["CompiledEventQueue", "make_event_queue", "run_loop",
           "generated_variants"]


class CompiledEventQueue(TieredEventQueue):
    """Tiered queue driven by a generated drain loop.

    The structural contract (lane / calendar / far tier, cursors,
    counters) is inherited unchanged — specialization lives entirely in
    the generated ``run_loop``, which hoists these structures as locals
    exactly like ``Simulator._run_tiered`` does.  Pushes go through the
    same ``schedule``/``call_soon``/``schedule_deferred`` closures as
    the tiered backend (``Simulator._bind_fast_scheduling``).
    """

    backend = "compiled"
    __slots__ = ()


# Let the generic factory build it too (`make_event_queue("compiled")`)
# once this module has been imported by the kernel.
QUEUE_BACKENDS.setdefault("compiled", CompiledEventQueue)


def make_event_queue(initial=None, horizon: Optional[int] = None) -> CompiledEventQueue:
    """Build the queue the kernel pairs with :func:`run_loop`."""
    return CompiledEventQueue(initial, horizon=horizon)


# ---------------------------------------------------------------------------
# Loop generation
# ---------------------------------------------------------------------------

#: Generated drain loops, keyed by
#: ``(check_until, has_budget, has_profiler, horizon)``.
_LOOPS: dict = {}

# The specialization fragments.  Indentation matters: each fragment is
# pre-indented for its splice point in the template below.
_ENTRY_UNTIL = """\
    if qnow > until:
        # The queue clock already sits past the bound (a previous run
        # went further).  Everything pending is at or beyond qnow, so
        # pin and stop exactly as the per-branch checks would.
        if q._size > 0:
            sim.now = until
        return
"""

_ADV_UNTIL = """\
                if time > until:
                    if q._size - executed > 0:
                        sim.now = until
                    break
"""

_BUDGET = """\
                if executed == budget:
                    break
"""

_PROFILE = """\
            profiler.record(call.callback)
"""

# The template mirrors Simulator._run_tiered statement for statement;
# every divergence is a generation-time specialization argued in the
# module docstring.  {entry_until}/{adv_until}/{budget}/{profile} are
# spliced per variant; {horizon} is the constant-folded routing bound.
_LOOP_TEMPLATE = """\
def _drain(sim, q, until, budget, profiler,
           heappop=heappop, heappush=heappush):
    lane = q._lane
    buckets = q._buckets
    times = q._times
    far = q._far
    cur = q._cur
    cur_pos = q._cur_pos
    cur_len = len(cur)
    lane_pos = q._lane_pos
    qnow = q._qnow
{entry_until}\
    executed = 0
    far_pops = reseqs = 0
    # Lane/near pops are derived from cursor travel: seeded with the
    # entry offsets, adjusted at instant boundaries, settled from the
    # final cursor positions in the writeback.
    lane_pops = -lane_pos
    near_pops = -cur_pos
    lane_checked = False
    try:
        while True:
            if cur_pos < cur_len:
{budget}\
                call = cur[cur_pos]
                cur_pos += 1
            elif lane_pos < len(lane):
{budget}\
                if lane_checked:
                    call = lane[lane_pos]
                    lane_pos += 1
                elif far and far[0][0] == qnow:
                    call = heappop(far)[2]
                    far_pops += 1
                elif times and times[0] == qnow:
                    heappop(times)
                    bucket = buckets.pop(qnow)
                    if type(bucket) is list:
                        near_pops += cur_pos
                        cur = q._cur = bucket
                        cur_pos = 1
                        cur_len = len(bucket)
                        call = bucket[0]
                    else:
                        near_pops += 1
                        call = bucket
                else:
                    lane_checked = True
                    call = lane[lane_pos]
                    lane_pos += 1
            else:
                if lane:
                    lane_pops += lane_pos
                    del lane[:]
                    lane_pos = 0
                lane_checked = False
                from_far = False
                if times:
                    time = times[0]
                    if far and far[0][0] <= time:
                        time = far[0][0]
                        from_far = True
                elif far:
                    time = far[0][0]
                    from_far = True
                else:
                    break
{adv_until}\
{budget}\
                if from_far:
                    call = heappop(far)[2]
                    far_pops += 1
                else:
                    heappop(times)
                    bucket = buckets.pop(time)
                    if type(bucket) is list:
                        near_pops += cur_pos
                        cur = q._cur = bucket
                        cur_pos = 1
                        cur_len = len(bucket)
                        call = bucket[0]
                    else:
                        near_pops += 1
                        call = bucket
                qnow = q._qnow = time
            if call.cancelled:
                if q._cancelled > 0:
                    q._cancelled -= 1
                continue
            defer = call.defer_ns
            if defer:
                seq = q._seq
                q._seq = seq + 1
                if type(defer) is tuple:
                    delay = defer[0]
                    call.defer_ns = defer[1] if len(defer) == 2 else defer[1:]
                else:
                    delay = defer
                    call.defer_ns = 0
                rtime = call.time + delay
                call.time = rtime
                call.seq = seq
                delta = rtime - qnow
                if delta == 0:
                    lane.append(call)
                elif delta < {horizon}:
                    bucket = buckets.get(rtime)
                    if bucket is None:
                        buckets[rtime] = call
                        heappush(times, rtime)
                    elif type(bucket) is list:
                        bucket.append(call)
                    else:
                        buckets[rtime] = [bucket, call]
                else:
                    heappush(far, (rtime, seq, call))
                reseqs += 1
                continue
            call.owner = None
            sim.now = qnow
            executed += 1
{profile}\
            call.callback(*call.args)
            if sim._stopped:
                break
    finally:
        q._cur_pos = cur_pos
        q._lane_pos = lane_pos
        q._size -= executed
        q.lane_pops += lane_pops + lane_pos
        q.near_pops += near_pops + cur_pos
        q.far_pops += far_pops
        q.resequences += reseqs
        sim.executed_events += executed
"""


def _generate_loop(check_until: bool, has_budget: bool,
                   has_profiler: bool, horizon: int):
    """Exec one drain-loop variant with config-dead branches omitted."""
    source = _LOOP_TEMPLATE.format(
        entry_until=_ENTRY_UNTIL if check_until else "",
        adv_until=_ADV_UNTIL if check_until else "",
        budget=_BUDGET if has_budget else "",
        profile=_PROFILE if has_profiler else "",
        horizon=horizon,
    )
    namespace = {"heappop": heapq.heappop, "heappush": heapq.heappush}
    exec(compile(source, f"<compiled kernel loop "
                         f"until={check_until} budget={has_budget} "
                         f"profiler={has_profiler} horizon={horizon}>",
                 "exec"), namespace)
    return namespace["_drain"]


def run_loop(sim, until: Optional[int], max_events: Optional[int]) -> None:
    """Drain ``sim``'s queue with the variant matching this run's shape.

    Called by :meth:`Simulator.run`; reentrancy/``_stopped`` reset and
    the final ``now`` return stay in the kernel.
    """
    q = sim._queue
    profiler = sim._profiler
    key = (until is not None, max_events is not None, profiler is not None,
           q._horizon)
    fn = _LOOPS.get(key)
    if fn is None:
        fn = _LOOPS[key] = _generate_loop(*key)
    fn(sim, q, until, -1 if max_events is None else max_events, profiler)


def generated_variants() -> tuple:
    """Keys of the loop variants generated so far (test/debug hook)."""
    return tuple(sorted(_LOOPS))

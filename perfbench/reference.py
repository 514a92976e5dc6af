"""A fixed reference workload that measures how fast the machine is now.

On a shared host the same simulation can take 25% more or less CPU from
one minute to the next.  The benchmark therefore runs a short slice of
this reference between the simulation's scheduler chunks and divides
every host time by the machine's current *speed factor*: the slices'
CPU time over their nominal CPU time.  The reference is a small
discrete-event loop in plain Python — a heap of slotted event objects,
bound-method callbacks, dict tables and seeded random draws — so it
slows down under contention the way the simulator does, and it shares
no code with the program, so a change to the program never moves it.

Changing this file or ``NOMINAL_SLICE_S`` rescales every normalised
host metric: re-measure the baseline after such a change.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Events executed per slice.
SLICE_EVENTS = 4_000
#: CPU seconds one slice takes at nominal speed (the median slice on a
#: quiet 2-vCPU Intel Xeon 2.1 GHz virtual machine, CPython 3.11).
NOMINAL_SLICE_S = 0.021


class _Event:
    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time_ns, seq, callback, args):
        self.time = time_ns
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.received = 0
        self.table = {}

    def receive(self, loop, packet) -> None:
        self.received += 1
        key, hops = packet
        self.table[key & 1023] = packet
        if hops:
            target = loop.nodes[key % len(loop.nodes)]
            loop.schedule(loop.rng.randrange(1, 500), target.receive,
                          ((key * 31 + 7) & 0xFFFF, hops - 1))


class _Loop:
    def __init__(self) -> None:
        self.heap = []
        self.seq = 0
        self.now = 0
        self.rng = random.Random(1)
        self.nodes = [_Node(index) for index in range(64)]

    def schedule(self, delay, callback, args) -> None:
        self.seq += 1
        heapq.heappush(self.heap,
                       _Event(self.now + delay, self.seq, callback, args))

    def run(self) -> None:
        while self.heap:
            event = heapq.heappop(self.heap)
            self.now = event.time
            event.callback(self, event.args)


def slice_seconds() -> float:
    """Run one reference slice; return the CPU seconds it took.

    The cyclic collector is paused so that the slice never pays for a
    collection of the simulator's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        loop = _Loop()
        for index in range(SLICE_EVENTS // 20):
            loop.schedule(index, loop.nodes[index % 64].receive,
                          (index, 19))
        loop.run()
        return time.process_time() - started
    finally:
        if collecting:
            gc.enable()

"""Differential property tests: every scheduler backend, one behaviour.

The tiered queue earns its speed only if it is *observably identical*
to the reference heap: same callbacks, same order, same timestamps,
same counters, under any interleaving of ``schedule`` /
``schedule_at`` / ``call_soon`` / ``cancel`` / ``schedule_deferred``
(including tuple re-sequencing chains) issued from inside running
callbacks.  Hypothesis generates random scheduling programs; an
interpreter executes each program once per backend and the traces must
match exactly.

The far/near boundary is the riskiest code, so the property also draws
the calendar horizon from a set that forces traffic through every
tier (horizon 1 pushes nearly everything far; 1 << 30 keeps
everything in the calendar).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from tests.knobs import pinned

BACKENDS = ("heap", "tiered")

#: Calendar widths the tiered backend is exercised at: degenerate
#: (everything far), narrow (constant tier crossings), default, and
#: effectively infinite (everything near).
HORIZONS = (1, 16, 4096, 1 << 30)


# ---------------------------------------------------------------------------
# Program representation: node i carries a list of actions it performs
# when its callback runs.  Handles are kept per node id so ``cancel``
# can target any previously scheduled node, including already-executed
# or never-scheduled ones (both must be harmless no-ops / misses).
# ---------------------------------------------------------------------------

def _actions(num_nodes: int):
    delay = st.integers(min_value=0, max_value=40)
    target = st.integers(min_value=0, max_value=num_nodes - 1)
    chain = st.lists(st.integers(min_value=1, max_value=30),
                     min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.just("schedule"), delay, target),
        st.tuples(st.just("schedule_at"), delay, target),
        st.tuples(st.just("call_soon"), target),
        st.tuples(st.just("deferred"), delay, chain, target),
        st.tuples(st.just("cancel"), target),
    )


def _programs():
    def build(num_nodes):
        node = st.lists(_actions(num_nodes), max_size=4)
        roots = st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=0, max_value=num_nodes - 1)),
            min_size=1, max_size=6)
        return st.tuples(st.lists(node, min_size=num_nodes,
                                  max_size=num_nodes), roots)

    return st.integers(min_value=2, max_value=10).flatmap(build)


def _interpret(program, kernel: str, horizon: int, drive: str):
    """Run ``program`` on a fresh simulator; return its observables."""
    nodes, roots = program
    with pinned(horizon=horizon):
        sim = Simulator(seed=0, kernel=kernel)

    trace = []
    handles = {}
    fired = [0]

    def fire(node_id: int) -> None:
        fired[0] += 1
        if fired[0] > 400:      # re-arming cycles: bound the program
            return
        trace.append((sim.now, node_id))
        for action in nodes[node_id]:
            kind = action[0]
            if kind == "schedule":
                handles[action[2]] = sim.schedule(action[1], fire, action[2])
            elif kind == "schedule_at":
                handles[action[2]] = sim.schedule_at(
                    sim.now + action[1], fire, action[2])
            elif kind == "call_soon":
                handles[action[1]] = sim.call_soon(fire, action[1])
            elif kind == "deferred":
                chain = action[2]
                defer = chain[0] if len(chain) == 1 else tuple(chain)
                handles[action[3]] = sim.schedule_deferred(
                    action[1], defer, fire, action[3])
            else:  # cancel
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for delay, node_id in roots:
        handles[node_id] = sim.schedule(delay, fire, node_id)

    if drive == "run":
        sim.run()
    elif drive == "segments":
        bound = 0
        while sim.pending_events():
            bound += 17
            sim.run(until=bound)
    elif drive == "budget":
        while sim.pending_events():
            sim.run(max_events=3)
    else:  # step
        while sim.step():
            pass
    return {
        "trace": tuple(trace),
        "now": sim.now,
        "executed": sim.executed_events,
        "pending": sim.pending_events(),
    }


class TestSchedulerEquivalence:
    @given(program=_programs(),
           horizon=st.sampled_from(HORIZONS),
           drive=st.sampled_from(("run", "segments", "budget", "step")))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backends_execute_identically(self, program, horizon, drive):
        results = {kernel: _interpret(program, kernel, horizon, drive)
                   for kernel in BACKENDS}
        baseline = results[BACKENDS[0]]
        diverged = [kernel for kernel, result in results.items()
                    if result != baseline]
        assert not diverged, (
            f"backends diverged from heap: {diverged} "
            f"(horizon={horizon}, drive={drive})")

    @given(program=_programs(), horizon=st.sampled_from(HORIZONS))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_driving_mode_is_invisible(self, program, horizon):
        # run / until-segments / budget loops / step must drain one
        # backend identically — the loop liberties documented on the
        # kernel must stay unobservable.
        results = {drive: _interpret(program, "tiered", horizon, drive)
                   for drive in ("run", "segments", "budget", "step")}
        baseline = results["run"]
        assert all(result == baseline for result in results.values())

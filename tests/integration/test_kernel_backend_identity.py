"""Backend identity bar: every backend's runs must match bit for bit.

The tiered scheduler is a pure performance substitution for the heap —
the acceptance line is that chaos digests, closed-loop latency samples,
and metrics registry tables are *byte-identical* under
``PMNET_KERNEL=heap`` and ``tiered``.  These tests drive real
deployments (not synthetic queues) through both backends and diff
every observable:
trace digests, executed-event counts, final clocks, handler state
digests, latency sample streams, and formatted report tables.

The sibling unit-level property suite
(``tests/sim/test_scheduler_equivalence.py``) covers adversarial
interleavings; this file covers the full stack, including the chaos
fault injector and the instrumented metrics pipeline.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.experiments.deploy import build_pmnet_switch
from repro.experiments.driver import run_closed_loop
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap
from tests.knobs import pinned

BACKENDS = ("heap", "tiered")

#: Seeded chaos schedules replayed under every backend.  Three seeds
#: keep the tier-1 budget modest; the CI backend-identity job replays
#: the full regression corpus.
CHAOS_SEEDS = (1, 2, 3)


def _op_maker(index, request_index, rng):
    key = rng.randrange(32)
    if rng.random() < 0.5:
        return Operation(OpKind.SET, key=key, value=request_index), 100
    return Operation(OpKind.GET, key=key), 100


def _closed_loop_observables() -> dict:
    config = SystemConfig(seed=11).quick_scale().with_clients(4)
    handler = StructureHandler(PMHashmap())
    deployment = build_pmnet_switch(config, handler=handler)
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=40, warmup_requests=4)
    sim = deployment.sim
    return {
        "kernel": sim.kernel,
        "executed_events": sim.executed_events,
        "final_now": sim.now,
        "latency_samples": stats.all_latencies.samples,
        "requests": stats.requests,
        "errors": stats.errors,
        "misses": stats.misses,
        "digest": handler.digest(),
    }


class TestClosedLoopIdentity:
    def test_latencies_events_and_state_match(self):
        observables = {}
        for backend in BACKENDS:
            with pinned(kernel=backend):
                observables[backend] = _closed_loop_observables()
        for backend in BACKENDS:
            assert observables[backend]["kernel"] == backend
        heap = observables["heap"]
        for key in ("executed_events", "final_now", "latency_samples",
                    "requests", "errors", "misses", "digest"):
            for backend in BACKENDS[1:]:
                assert heap[key] == observables[backend][key], (
                    f"{key} diverged between heap and {backend}")


class TestChaosIdentity:
    def test_chaos_schedules_replay_identically(self):
        from repro.failure.chaos import generate_plan, run_plan

        for seed in CHAOS_SEEDS:
            verdicts = {}
            for backend in BACKENDS:
                with pinned(kernel=backend):
                    verdicts[backend] = run_plan(generate_plan(seed)).to_dict()
            diverged = [backend for backend in BACKENDS[1:]
                        if verdicts[backend] != verdicts["heap"]]
            assert not diverged, (
                f"chaos seed {seed} diverged from heap on {diverged}")


class TestRegistryIdentity:
    def test_metrics_tables_render_byte_identically(self):
        from repro.experiments.instrumented import (format_breakdown,
                                                    metrics_report,
                                                    run_instrumented)

        tables = {}
        for backend in BACKENDS:
            with pinned(kernel=backend):
                run = run_instrumented("fig02", seed=5)
                tables[backend] = format_breakdown(metrics_report(run))
        assert len(set(tables.values())) == 1, (
            "metrics tables diverged across scheduler backends")

"""End-to-end requests/CPU-second across the scheduler backends.

The kernel microbenchmark (:mod:`repro.sim.benchmark`) isolates the
event queue; this one answers the question users actually have: how
many *requests* does the full model push through per CPU-second, and
how much of the tiered scheduler's hot-path win survives once the PM
model, the protocol stack, and the folding pipeline are doing real work
around it.

Two legs per backend, both deterministic:

* **loadgen** — the flow-level closed-loop generator against the PMNet
  switch (the quick-sweep shape: thousands of modeled users, a fixed
  request budget), and
* **chaos** — seeded chaos plans (:func:`repro.failure.chaos.run_plan`)
  whose deployments, workloads, and fault schedules derive from the
  seed alone.

Each repeat runs both backends back to back (one machine-speed phase —
see :mod:`repro.sim.benchmark` for why only adjacent runs are
comparable on shared hosts) and yields one tiered/heap ratio on the
aggregate requests-per-CPU-second of the group's legs.  The reported
``speedup_tiered`` is the median, ``speedup_tiered_best`` the
least-disturbed group.

Identity is enforced, not sampled: every leg's digest (the loadgen
latency digest, the chaos trace digest) must be bit-identical across
the backends, otherwise :class:`BackendDivergence` is raised and
no report is written — a faster backend that computes a different
simulation is worthless.

Two entry points use this module: ``pmnet-repro bench-e2e`` (writes
``BENCH_e2e.json``) and ``benchmarks/test_e2e_requests.py`` (checks the
report shape and cross-backend identity).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.experiments.common import Scale, pinned_env
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.chaos import generate_plan, run_plan
from repro.net.packet import reset_frame_ids
from repro.protocol.packet import reset_request_ids
from repro.workloads.loadgen import LoadGenConfig, run_loadgen

#: Result file emitted by ``pmnet-repro bench-e2e``.
BENCH_RESULT_FILE = "BENCH_e2e.json"

#: The scheduler backends every leg is measured against, in the order
#: they run inside a group (alternated per repeat to cancel drift).
E2E_BACKENDS = ("heap", "tiered")

#: The loadgen leg: the quick closed-loop point — think-time users
#: against the switch, a fixed completed-request budget.
LOADGEN_POINT = LoadGenConfig(mode="closed", users=2_000,
                              total_requests=4_000, window=64,
                              warmup_requests=8)

#: Chaos plans per group; two seeds keep the leg mix (faults, cache
#: on/off, replication) broader than any single plan.
CHAOS_SEEDS = (1, 2)


class BackendDivergence(RuntimeError):
    """Two backends produced different simulations for the same leg."""


def _leg(name: str, backend: str, requests: int, digest: str,
         executed_events: int, cpu: float, wall: float) -> Dict[str, object]:
    return {
        "leg": name,
        "backend": backend,
        "requests": float(requests),
        "digest": digest,
        "executed_events": executed_events,
        "cpu_seconds": cpu,
        "seconds": wall,
        "requests_per_cpu_second": requests / cpu if cpu > 0 else 0.0,
    }


def _loadgen_leg(backend: str, seed: int) -> Dict[str, object]:
    """One closed-loop loadgen run on ``backend``; only the simulation
    (not deployment construction) is timed."""
    reset_request_ids()
    reset_frame_ids()
    with pinned_env("PMNET_KERNEL", backend):
        scale = Scale.exact(True)
        config = SystemConfig(seed=seed).with_clients(
            scale.clients).with_payload(LOADGEN_POINT.payload_bytes)
        deployment = build(DeploymentSpec(placement="switch"), config)
    sim = deployment.sim
    if sim.kernel != backend:
        raise BackendDivergence(
            f"requested backend {backend!r} resolved to {sim.kernel!r}")
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    result = run_loadgen(deployment, LOADGEN_POINT)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - wall_started
    return _leg("loadgen", backend, result.completed, result.digest(),
                sim.executed_events, cpu, wall)


def _chaos_leg(backend: str, seed: int) -> Dict[str, object]:
    """One full chaos plan on ``backend`` (``run_plan`` derives the
    deployment and resets the id counters itself)."""
    with pinned_env("PMNET_KERNEL", backend):
        plan = generate_plan(seed)
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        result = run_plan(plan)
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - wall_started
    return _leg(f"chaos[{seed}]", backend, result.completions,
                result.trace_digest, result.executed_events, cpu, wall)


def _check_digests(legs_by_backend: Dict[str, List[Dict[str, object]]]) -> None:
    reference_backend = next(iter(legs_by_backend))
    reference = legs_by_backend[reference_backend]
    for backend, legs in legs_by_backend.items():
        for leg, ref in zip(legs, reference):
            if leg["digest"] != ref["digest"]:
                raise BackendDivergence(
                    f"{leg['leg']}: {backend} digest {leg['digest']} != "
                    f"{reference_backend} digest {ref['digest']}")
            if leg["executed_events"] != ref["executed_events"]:
                raise BackendDivergence(
                    f"{leg['leg']}: {backend} executed "
                    f"{leg['executed_events']} events, {reference_backend} "
                    f"executed {ref['executed_events']}")


def _aggregate(legs: Sequence[Dict[str, object]]) -> float:
    requests = sum(leg["requests"] for leg in legs)
    cpu = sum(leg["cpu_seconds"] for leg in legs)
    return requests / cpu if cpu > 0 else 0.0


def _median(sorted_values: List[float]) -> float:
    return sorted_values[len(sorted_values) // 2] if sorted_values else 0.0


def run_e2e_benchmark(repeats: int = 3, seed: int = 42,
                      chaos_seeds: Sequence[int] = CHAOS_SEEDS
                      ) -> Dict[str, object]:
    """Measure the end-to-end request rate on both backends.

    Raises :class:`BackendDivergence` if any leg's digest or event
    count differs between backends — identity is the precondition for
    the speedups meaning anything.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    rates: Dict[str, List[float]] = {b: [] for b in E2E_BACKENDS}
    groups: List[Dict[str, object]] = []
    pairwise_tiered: List[float] = []
    digests: Dict[str, str] = {}
    for index in range(repeats):
        order = E2E_BACKENDS if index % 2 == 0 else E2E_BACKENDS[::-1]
        legs_by_backend: Dict[str, List[Dict[str, object]]] = {}
        for backend in order:
            legs = [_loadgen_leg(backend, seed)]
            legs.extend(_chaos_leg(backend, s) for s in chaos_seeds)
            legs_by_backend[backend] = legs
        _check_digests(legs_by_backend)
        group = {}
        for backend, legs in legs_by_backend.items():
            rate = _aggregate(legs)
            rates[backend].append(rate)
            group[backend] = {"requests_per_cpu_second": rate, "legs": legs}
        groups.append(group)
        heap_rate = group["heap"]["requests_per_cpu_second"]
        tiered_rate = group["tiered"]["requests_per_cpu_second"]
        if heap_rate > 0:
            pairwise_tiered.append(tiered_rate / heap_rate)
        for leg in legs_by_backend[E2E_BACKENDS[0]]:
            digests[leg["leg"]] = leg["digest"]
    pairwise_tiered.sort()
    return {
        "benchmark": "e2e_requests",
        "backends": list(E2E_BACKENDS),
        "repeats": repeats,
        "seed": seed,
        "chaos_seeds": list(chaos_seeds),
        "loadgen": LOADGEN_POINT.to_params(),
        "requests_per_cpu_second": max(rates["tiered"]),
        "baseline_requests_per_cpu_second": max(rates["heap"]),
        "speedup_tiered": _median(pairwise_tiered),
        "speedup_tiered_best": pairwise_tiered[-1] if pairwise_tiered else 0.0,
        "pairwise_tiered_speedups": pairwise_tiered,
        "digests": digests,
        "digests_identical": True,  # _check_digests raises otherwise
        "all_requests_per_cpu_second": rates,
        "groups": groups,
    }


def write_result(result: Dict[str, object],
                 path: Optional[str] = None) -> str:
    """Write the enveloped benchmark report as JSON; return the path."""
    from repro.obs.export import write_bench_report

    target = path or BENCH_RESULT_FILE
    return write_bench_report('e2e', result, target, quick=True)


def format_result(result: Dict[str, object]) -> str:
    lines = [
        (f"e2e requests/CPU-sec (loadgen + chaos, tiered): "
         f"{result['requests_per_cpu_second']:,.0f} — tiered/heap "
         f"{result['speedup_tiered']:.2f}x median / "
         f"{result['speedup_tiered_best']:.2f}x best group "
         f"({result['repeats']} adjacent groups, digests identical)"),
    ]
    for backend in result.get("backends", ()):
        best = max(result["all_requests_per_cpu_second"][backend])
        lines.append(f"  {backend:9s} {best:>12,.0f} req/CPU-sec (best)")
    return "\n".join(lines)

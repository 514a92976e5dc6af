"""The benchmark's workloads: one guarded, checked simulation per call.

Each workload stands a system up through the public API
(``DeploymentSpec``/``build``, ``FlowLoadGenerator``,
``attach_control_plane``, ``FailureInjector``), runs it under the run
guard, checks its outputs, and returns a JSON-safe record.  A traced run
additionally attaches ``Observability(spans=True)`` and a ``cProfile``
profiler around the simulation phase and adds the per-layer metrics.

Nothing here changes what the program computes: the store handler is
the default ideal handler that also remembers which keys it applied,
the tagger only labels completions, and the guard runs the scheduler in
event-budget chunks, which executes the same event order as one
``sim.run()`` (``test_perfbench.py`` holds both claims to account).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro
from repro.analysis.stats import percentile
from repro.config import SystemConfig, fold_level, kernel_horizon_ns
from repro.control.balancer import FailoverPolicy, attach_control_plane
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.host.handler import IdealHandler
from repro.net.link import Impairments
from repro.net.packet import reset_frame_ids
from repro.obs import spans as stages
from repro.obs.context import Observability
from repro.protocol.packet import reset_request_ids
from repro.sim.clock import microseconds
from repro.workloads.loadgen import FlowLoadGenerator, LoadGenConfig

import layers
import reference

#: ``src/repro``: the files whose time the profiler charges to a layer.
PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a deployment, a load, and a guard size."""

    spec: DeploymentSpec
    loadgen: LoadGenConfig
    #: Client hosts (single-rack shapes; the fabric sizes per rack).
    clients: Optional[int] = None
    #: Power-cut one shard server a third of the way in, fail its shards
    #: over through the control plane, then reboot it with log replay.
    failover: bool = False
    #: Run-guard event budget per request, about four times the healthy
    #: rate, so a retransmission storm is cut off instead of hanging.
    events_per_request: int = 100


#: Why each workload is here is recorded in ``BENCHMARK.json`` and
#: ``LAYERS.md``.  Request counts give every run at least 10k samples
#: after the warm-up trim, so p99.9 has ten samples beyond it.
WORKLOADS: Dict[str, Workload] = {
    "write-log": Workload(
        spec=DeploymentSpec(placement="switch"),
        clients=8,
        loadgen=LoadGenConfig(mode="closed", users=2_000,
                              total_requests=11_000, window=64,
                              update_ratio=1.0, zipf_theta=0.9,
                              warmup_requests=64),
        events_per_request=100),
    "read-cache-open": Workload(
        spec=DeploymentSpec(placement="switch", enable_cache=True),
        clients=8,
        loadgen=LoadGenConfig(mode="open", total_requests=11_000,
                              mean_interarrival_ns=4_000, window=64,
                              update_ratio=0.5, zipf_theta=0.99,
                              warmup_requests=64),
        events_per_request=80),
    "fabric-failover": Workload(
        spec=DeploymentSpec(racks=3, spines=1, devices_per_rack=1,
                            servers_per_rack=2, chain_length=2,
                            clients_per_rack=2, placement="switch"),
        loadgen=LoadGenConfig(mode="closed", users=12_000,
                              total_requests=10_500, window=32,
                              update_ratio=1.0, warmup_requests=32),
        failover=True,
        events_per_request=250),
}

#: Fabric-failover timing: a request costs ~150 ns of simulated time at
#: this load, so the crash lands a third of the way in at any size.
CRASH_NS_PER_REQUEST = 60
CONTROL_PERIOD_NS = microseconds(25)
HEARTBEAT_PERIOD_NS = microseconds(20)


@dataclass(frozen=True)
class Guard:
    """Limits that cut a run off instead of letting it hang.

    The scheduler runs in chunks of ``chunk_events``; between chunks the
    guard checks the event budget, the simulated-time horizon and the
    process CPU spent.  A healthy run never reaches any of them.
    """

    max_events: int
    sim_horizon_ns: int = 100_000_000
    cpu_seconds: float = 90.0
    chunk_events: int = 25_000

    def run(self, sim, pause=None) -> Tuple[Optional[str], float]:
        """Run ``sim`` to quiescence, calling ``pause()`` between chunks.

        Returns the reason the run was cut off (``None`` when it drained)
        and the CPU seconds spent in the scheduler, pauses excluded.
        """
        started = time.process_time()
        sim_cpu_s = 0.0
        while True:
            chunk_started = time.process_time()
            sim.run(until=self.sim_horizon_ns, max_events=self.chunk_events)
            sim_cpu_s += time.process_time() - chunk_started
            if pause is not None:
                pause()
            if sim.pending_events() == 0:
                return None, sim_cpu_s
            if sim.executed_events >= self.max_events:
                return f"event budget of {self.max_events} spent", sim_cpu_s
            if sim.now >= self.sim_horizon_ns:
                return (f"simulated horizon of {self.sim_horizon_ns} ns hit",
                        sim_cpu_s)
            if time.process_time() - started > self.cpu_seconds:
                return (f"CPU watchdog of {self.cpu_seconds} s tripped",
                        sim_cpu_s)


class StoreHandler(IdealHandler):
    """The default ideal handler, remembering every key it applied.

    Timing and results are :class:`IdealHandler`'s; the key set is the
    shard store the durability oracle reads.
    """

    def __init__(self, cost_ns: int) -> None:
        super().__init__(cost_ns)
        self.keys: set = set()

    def process(self, op):
        if op.is_update:
            self.keys.add(op.key)
        return super().process(op)


def _stall_all_channels(deployment) -> None:
    """Drop every frame from now on (the forced-stall check)."""
    for link in deployment.topology.links:
        for channel in (link.forward, link.backward):
            channel.impairments = Impairments(loss_probability=1.0)
            channel.on_impairments_changed()


def _attach_failover(deployment, engine, total_requests: int) -> dict:
    """Control plane with heartbeats + FailoverPolicy, and a power cut."""
    plane = attach_control_plane(
        deployment, period_ns=CONTROL_PERIOD_NS, policies=[FailoverPolicy()],
        heartbeats=True, heartbeat_period_ns=HEARTBEAT_PERIOD_NS,
        miss_threshold=3,
        stop_when=lambda: engine.completed >= total_requests)
    plane.start()
    victim = deployment.servers[-1]
    crash_at = CRASH_NS_PER_REQUEST * total_requests
    detected: List[int] = []
    monitor = plane.monitors[victim.host.name]
    monitor.on_failure = lambda: detected.append(deployment.sim.now)
    injector = FailureInjector(deployment.sim)
    record = injector.crash_server_at(victim, crash_at)
    injector.recover_server_at(
        victim, 2 * crash_at,
        deployment.recovery_devices(victim.host.name), record)
    return {"plane": plane, "crash_at": crash_at, "detected": detected}


def run_workload(name: str, seed: int, requests: Optional[int] = None,
                 trace: bool = False, stall_at_ns: Optional[int] = None,
                 guard: Optional[Guard] = None) -> dict:
    """Run one workload once in this process; return its record.

    ``requests`` shrinks the run (tests); ``stall_at_ns`` drops every
    frame from that simulated instant on, which only the guard can end.
    """
    workload = WORKLOADS[name]
    loadgen = workload.loadgen
    if requests is not None:
        loadgen = LoadGenConfig.from_params(
            dict(loadgen.to_params(), total_requests=requests))
    total = loadgen.total_requests
    if guard is None:
        guard = Guard(max_events=workload.events_per_request * total)
    reset_request_ids()
    reset_frame_ids()

    config = SystemConfig(seed=seed).with_payload(loadgen.payload_bytes)
    if workload.clients is not None:
        config = config.with_clients(workload.clients)
    handlers: List[StoreHandler] = []

    def handler_factory() -> StoreHandler:
        handler = StoreHandler(config.server.ideal_handler_ns)
        handlers.append(handler)
        return handler

    obs = Observability(spans=True) if trace else None
    build_started = time.monotonic()
    if workload.spec.racks > 1:
        deployment = build(workload.spec, config,
                           handler_factory=handler_factory, obs=obs)
    else:
        deployment = build(workload.spec, config,
                           handler=handler_factory(), obs=obs)
    build_s = time.monotonic() - build_started
    sim = deployment.sim
    # Tag each update completion with its key: the acknowledged set the
    # durability oracle checks (warm-up completions carry no tag).
    engine = FlowLoadGenerator(
        deployment, loadgen,
        tagger=lambda client, op: op.key if op.is_update else None)
    failover = (_attach_failover(deployment, engine, total)
                if workload.failover else None)
    if stall_at_ns is not None:
        sim.schedule_at(stall_at_ns, _stall_all_channels, deployment)
    deployment.open_all_sessions()
    engine.start()

    # An untraced run measures the machine's speed between chunks; a
    # traced run is profiled instead and reports no slowdown.
    slices: List[float] = []
    profiler = cProfile.Profile() if trace else None
    ready_at = time.monotonic()
    if profiler is not None:
        profiler.enable()
        cut_off, sim_cpu_s = guard.run(sim)
        profiler.disable()
    else:
        cut_off, sim_cpu_s = guard.run(
            sim, pause=lambda: slices.append(reference.slice_seconds()))

    result = engine.result()
    rows = [latency for shard in result.samples.values()
            for latency in shard]
    stored = set().union(*(handler.keys for handler in handlers))
    completed = result.completed
    record = {
        "workload": name,
        "seed": seed,
        "requests": total,
        "issued": result.issued,
        "completed": completed,
        "errors": result.errors,
        "cut_off": cut_off,
        "logs_left": sum(device.log.occupancy
                         for device in deployment.devices),
        "acked_keys": len(engine.tagged),
        "acked_missing": sum(1 for key in engine.tagged
                             if key not in stored),
        "digest": result.digest(),
        "samples": len(rows),
        "sim_p50_us": percentile(rows, 50) / 1000.0 if rows else 0.0,
        "sim_p999_us": percentile(rows, 99.9) / 1000.0 if rows else 0.0,
        "sim_kreq_per_s": result.ops_per_second() / 1000.0,
        "events": sim.executed_events,
        # The settings that change what is measured, as resolved.
        "knobs": {"PMNET_KERNEL": sim.kernel, "PMNET_FOLD": fold_level(),
                  "PMNET_KERNEL_HORIZON": kernel_horizon_ns(),
                  "REPRO_FULL": os.environ.get("REPRO_FULL", "")},
        "sim_cpu_s": sim_cpu_s,
        # > 1 when the machine runs slower than nominal right now.
        "slowdown": (sum(slices) / len(slices) / reference.NOMINAL_SLICE_S
                     if slices else None),
        "build_s": build_s,
        "ready_at": ready_at,
    }
    if failover is not None:
        record.update(_failover_summary(failover))
    if profiler is not None:
        record["layers"] = _layer_metrics(deployment, obs, profiler,
                                          completed, record)
    return record


def _failover_summary(failover: dict) -> dict:
    plane = failover["plane"]
    moves = plane.migrator.completed
    after_crash = [at for at in failover["detected"]
                   if at >= failover["crash_at"]]
    return {
        "migrations": len(moves),
        "migrator_busy": plane.migrator.busy,
        "migration_sim_us": (sum(m.completed_at_ns - m.started_at_ns
                                 for m in moves) / len(moves) / 1000.0
                             if moves else 0.0),
        "parked_ops": sum(m.parked_released for m in moves),
        "detect_sim_us": ((after_crash[0] - failover["crash_at"]) / 1000.0
                          if after_crash else 0.0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_span_delta(recorder, earlier: str, later: str) -> float:
    """Mean simulated µs from a request's first ``earlier`` milestone to
    the first ``later`` one after it, over the requests that have both."""
    deltas = []
    for span in recorder.spans(kind=stages.REQUEST):
        start = next((t for stage, t in span.events if stage == earlier),
                     None)
        if start is None:
            continue
        end = next((t for stage, t in span.events
                    if stage == later and t >= start), None)
        if end is not None:
            deltas.append(end - start)
    return sum(deltas) / len(deltas) / 1000.0 if deltas else 0.0


def _layer_metrics(deployment, obs, profiler, completed: int,
                   record: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see ``LAYERS.md``)."""
    seconds, calls, total = layers.split_by_layer(
        pstats.Stats(profiler).stats, PACKAGE_ROOT)
    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS + (layers.OTHER,):
        metrics[f"{layer}.cpu_share"] = _ratio(seconds[layer], total)
        metrics[f"{layer}.calls_per_req"] = _ratio(calls[layer], completed)

    counters: Dict[str, int] = {}
    for instrument in obs.registry.instruments():
        if instrument.kind == "counter":
            suffix = instrument.name.rsplit(".", 1)[-1]
            counters[suffix] = counters.get(suffix, 0) + instrument.value

    channels = [channel for link in deployment.topology.links
                for channel in (link.forward, link.backward)]
    devices = set(deployment.devices)
    delivered = sum(int(channel.delivered) for channel in channels)
    dropped = sum(int(channel.dropped_full) + int(channel.dropped_loss)
                  for channel in channels)
    frames = delivered + dropped
    logged = counters.get("logged", 0)
    bypassed = sum(counters.get(key, 0) for key in (
        "bypassed_full", "bypassed_collision", "bypassed_queue_busy"))
    in_network = counters.get("completed_pmnet", 0) \
        + counters.get("completed_cache", 0)
    client_completions = in_network + counters.get("completed_server", 0)
    spans = obs.spans
    metrics.update({
        "sim.kernel.events_per_req": _ratio(record["events"], completed),
        "net.frames_per_req": _ratio(frames, completed),
        "net.fold_ratio": _ratio(counters.get("folded", 0), frames),
        "net.drop_frac": _ratio(dropped, frames),
        "net.queue_depth_max": max(
            channel.queue_depth_highwater.highwater for channel in channels),
        "core.cache_hit_ratio": _ratio(
            counters.get("hits", 0),
            counters.get("hits", 0) + counters.get("misses", 0)),
        "core.device_frames_per_req": _ratio(
            sum(int(channel.delivered) for channel in channels
                if channel.sink.node in devices), completed),
        "core.recovery_resends": counters.get("resends", 0),
        "pm.log_accept_ratio": _ratio(logged, logged + bypassed),
        "pm.log_writes_per_req": _ratio(logged, completed),
        "pm.log_persist_sim_us": _mean_span_delta(
            spans, stages.LOG_WRITE, stages.PMNET_ACK),
        "host.retransmit_ratio": _ratio(counters.get("retransmissions", 0),
                                        record["issued"]),
        "host.in_network_completion_frac": _ratio(in_network,
                                                  client_completions),
        "host.server_apply_sim_us": _mean_span_delta(
            spans, stages.CLIENT_SEND, stages.SERVER_HANDLER),
        "control.migrations": record.get("migrations", 0),
        "control.migration_sim_us": record.get("migration_sim_us", 0.0),
        "control.parked_ops": record.get("parked_ops", 0),
        "failure.detect_sim_us": record.get("detect_sim_us", 0.0),
    })
    return metrics

"""Absolute loadgen digests, pinned per scheduler backend.

The identity suites compare modes against each other *within one
checkout*, so a change that moves every mode the same way passes them.
These pins compare against recorded values instead: small loads shaped
like the three benchmark workloads — closed-loop all-update at a PMNet
ToR, open-loop 50/50 GET/SET through the device read cache, and the
3-rack chain-replicated fabric with heartbeats, a ``FailoverPolicy``
control plane, a shard-server power cut and a reboot with redo-log
replay — are built through the public API (``DeploymentSpec``/``build``,
``FlowLoadGenerator``) and must reproduce the recorded sample digest,
executed-event count and final clock under every backend.

A change that legitimately moves simulated behaviour updates the pins
in the same commit and says why in CHANGES.md.  A pure performance
change must leave the sample digest and the final clock untouched.  The
executed-event count is a cost property, not behaviour: only a change
to *what folds* (which hops share one executed event) may move it, and
such a change records the old and new counts in CHANGES.md.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.config import SystemConfig
from repro.control.balancer import FailoverPolicy, attach_control_plane
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.host.handler import IdealHandler
from repro.net.packet import reset_frame_ids
from repro.obs.context import Observability
from repro.protocol.packet import reset_request_ids
from repro.sim.clock import microseconds
from repro.workloads.loadgen import FlowLoadGenerator, LoadGenConfig

BACKENDS = ("heap", "tiered")
REQUESTS = 1_500

#: shape -> (sample digest, executed events, final simulated ns).
PINNED: Dict[str, Tuple[str, int, int]] = {
    "write-log": ("b54a2008dc3c2f8a", 37_186, 1_508_415),
    "read-cache-open": ("559adce129a4fb2e", 32_584, 1_761_774),
    "fabric-failover": ("c804d2ae6d7a6f33", 84_759, 6_203_505),
}


def _write_log() -> Tuple[DeploymentSpec, SystemConfig, LoadGenConfig]:
    config = SystemConfig(seed=1).with_payload(100).with_clients(8)
    load = LoadGenConfig(mode="closed", users=2_000,
                         total_requests=REQUESTS, window=64,
                         update_ratio=1.0, zipf_theta=0.9,
                         warmup_requests=64)
    return DeploymentSpec(placement="switch"), config, load


def _read_cache_open() -> Tuple[DeploymentSpec, SystemConfig, LoadGenConfig]:
    config = SystemConfig(seed=1).with_payload(100).with_clients(8)
    load = LoadGenConfig(mode="open", total_requests=REQUESTS,
                         mean_interarrival_ns=4_000, window=64,
                         update_ratio=0.5, zipf_theta=0.99,
                         warmup_requests=64)
    return DeploymentSpec(placement="switch", enable_cache=True), config, load


def _fabric_failover() -> Tuple[DeploymentSpec, SystemConfig, LoadGenConfig]:
    config = SystemConfig(seed=1).with_payload(100)
    load = LoadGenConfig(mode="closed", users=12_000,
                         total_requests=REQUESTS, window=32,
                         update_ratio=1.0, warmup_requests=32)
    spec = DeploymentSpec(racks=3, spines=1, devices_per_rack=1,
                          servers_per_rack=2, chain_length=2,
                          clients_per_rack=2, placement="switch")
    return spec, config, load


SHAPES = {"write-log": _write_log, "read-cache-open": _read_cache_open,
          "fabric-failover": _fabric_failover}


def build_shape(name: str, requests: int = REQUESTS, obs=None):
    """Stand one shape up under the current ``PMNET_*`` settings; return
    the deployment, its started load generator and the control plane
    (``None`` off the fabric)."""
    spec, config, load = SHAPES[name]()
    load = LoadGenConfig.from_params(dict(load.to_params(),
                                          total_requests=requests))
    reset_request_ids()
    reset_frame_ids()

    def handler_factory() -> IdealHandler:
        return IdealHandler(config.server.ideal_handler_ns)

    if spec.racks > 1:
        deployment = build(spec, config, handler_factory=handler_factory,
                           obs=obs)
    else:
        deployment = build(spec, config, handler=handler_factory(), obs=obs)
    engine = FlowLoadGenerator(deployment, load)
    plane = None
    if name == "fabric-failover":
        plane = attach_control_plane(
            deployment, period_ns=microseconds(25),
            policies=[FailoverPolicy()], heartbeats=True,
            heartbeat_period_ns=microseconds(20), miss_threshold=3,
            stop_when=lambda: engine.completed >= requests)
        plane.start()
        victim = deployment.servers[-1]
        crash_at = 60 * requests
        injector = FailureInjector(deployment.sim)
        record = injector.crash_server_at(victim, crash_at)
        injector.recover_server_at(
            victim, 2 * crash_at,
            deployment.recovery_devices(victim.host.name), record)
    deployment.open_all_sessions()
    engine.start()
    return deployment, engine, plane


def run_shape(name: str) -> Tuple[str, int, int]:
    """Run one pinned shape to quiescence under the current
    ``PMNET_KERNEL``; return its digest, event count and final clock."""
    deployment, engine, plane = build_shape(name)
    deployment.sim.run()
    result = engine.result()
    assert result.completed == REQUESTS
    assert result.errors == 0
    if plane is not None:
        # The power cut really failed shards over and committed.
        assert plane.migrator.completed and not plane.migrator.busy
    return result.digest(), deployment.sim.executed_events, deployment.sim.now


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_digest_matches_pin(shape, backend, monkeypatch):
    monkeypatch.setenv("PMNET_KERNEL", backend)
    assert run_shape(shape) == PINNED[shape]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_unfolded_digest_and_clock_match_pin(shape, monkeypatch):
    """``PMNET_FOLD=none`` runs more events but the same behaviour: its
    digest and final clock are the pinned ones."""
    monkeypatch.setenv("PMNET_FOLD", "none")
    digest, _events, final_ns = run_shape(shape)
    pinned_digest, _pinned_events, pinned_ns = PINNED[shape]
    assert (digest, final_ns) == (pinned_digest, pinned_ns)


def _trace_until(fold: str, until_ns: int, monkeypatch) -> list:
    monkeypatch.setenv("PMNET_FOLD", fold)
    obs = Observability(spans=False, trace=True)
    deployment, _engine, _plane = build_shape("fabric-failover", 6_000, obs)
    deployment.sim.run(until=until_ns)
    return [(r.time_ns, r.component, r.event, sorted(r.details.items()))
            for r in obs.tracer.records]


def test_fabric_failover_fold_levels_agree_past_the_power_cut(monkeypatch):
    """Fold on == fold off on the fabric, past the power cut.

    With 6,000 requests the power cut lands at 360 us, and at 371.589 us
    two frames reach spine0 from leaf0 and leaf1 in the same nanosecond.
    Switch forwarding reservations used to swap them when folded (a
    reservation drew its serialize-start seq before the unfolded queue
    restart would), so client-r2c1 completed a request at 382.400 us
    instead of 381.897 us.  Switches no longer reserve; every trace
    record up to 400 us (well before quiescence, to keep the check
    cheap) must now match across fold levels.
    """
    unfolded = _trace_until("none", 400_000, monkeypatch)
    folded = _trace_until("whole", 400_000, monkeypatch)
    assert folded == unfolded

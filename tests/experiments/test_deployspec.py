"""The DeploymentSpec API bar: shims are warnings plus *byte identity*.

The four historical builders survive only as deprecation shims over
``build(spec)``.  That is safe exactly when a shim-built system and its
spec-built equivalent are indistinguishable — same trace digests, same
instrument summaries, same latency samples, same final clock — under
every fold level and every kernel backend.  This file holds that line,
plus the spec's own contract: validation of impossible shapes and a
lossless JSON round trip (experiment jobs and the chaos engine ship
specs across process boundaries).
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import (
    DeploymentSpec,
    build,
    build_client_server,
    build_pmnet_nic,
    build_pmnet_switch,
    build_sharded,
)
from repro.experiments.driver import run_closed_loop
from repro.host.stackmodel import TCP
from repro.obs.context import Observability
from repro.protocol.packet import reset_request_ids
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap
from tests.knobs import pinned

BACKENDS = ("heap", "tiered")
FOLD_LEVELS = ("none", "whole")


# ----------------------------------------------------------------------
# Spec validation and round trip
# ----------------------------------------------------------------------
class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(placement="switchboard"),
        dict(racks=0),
        dict(spines=0),
        dict(chain_length=0),
        dict(devices_per_rack=0),
        dict(servers_per_rack=0),
        dict(clients_per_rack=0),
        dict(ring_replicas=0),
        # Baseline has no device to replicate or cache on.
        dict(placement="none", chain_length=2),
        dict(placement="none", enable_cache=True),
        # The NIC is a single bump-in-the-wire device.
        dict(placement="nic", chain_length=2),
        # Single-rack sharding needs the ToR position, and is a
        # different shape from device chaining.
        dict(placement="none", servers_per_rack=2),
        dict(placement="switch", servers_per_rack=2, chain_length=2),
        # The fabric places devices at the leaves.
        dict(racks=2, placement="nic"),
        # Chain longer than the fabric has devices.
        dict(racks=2, devices_per_rack=1, chain_length=3),
    ])
    def test_impossible_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeploymentSpec(**kwargs)

    @pytest.mark.parametrize("spec", [
        DeploymentSpec(placement="none"),
        DeploymentSpec(placement="nic", enable_cache=True, transport=TCP),
        DeploymentSpec(placement="switch", chain_length=3),
        DeploymentSpec(placement="switch", servers_per_rack=4),
        DeploymentSpec(racks=3, spines=2, devices_per_rack=2,
                       servers_per_rack=2, chain_length=3,
                       clients_per_rack=2, spine_propagation_ns=2_000),
    ])
    def test_params_round_trip_losslessly(self, spec):
        params = spec.to_params()
        # Jobs and chaos plans ship specs as JSON.
        assert json.loads(json.dumps(params)) == params
        assert DeploymentSpec.from_params(params) == spec

    def test_transport_override_replaces_spec_transport(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().quick_scale(), transport=TCP)
        assert deployment.spec.transport == TCP


# ----------------------------------------------------------------------
# Deprecation surface
# ----------------------------------------------------------------------
class TestShimsWarn:
    @pytest.mark.parametrize("shim,kwargs", [
        (build_client_server, {}),
        (build_pmnet_switch, {}),
        (build_pmnet_nic, {}),
        (build_sharded, dict(num_servers=2)),
    ])
    def test_every_legacy_builder_warns(self, shim, kwargs):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            shim(SystemConfig().quick_scale(), **kwargs)

    def test_build_itself_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build(DeploymentSpec(placement="switch"),
                  SystemConfig().quick_scale())


# ----------------------------------------------------------------------
# Byte identity: shim-built == spec-built
# ----------------------------------------------------------------------
def _op_maker(index, request_index, rng):
    key = rng.randrange(32)
    if rng.random() < 0.5:
        return Operation(OpKind.SET, key=key, value=request_index), 100
    return Operation(OpKind.GET, key=key), 100


#: name -> (shim invocation, equivalent spec invocation).  Each entry
#: is a builder taking (config, obs) and returning (deployment,
#: handlers) with every shard handler listed.
def _single(builder, spec=None, **kwargs):
    def construct(config, obs):
        handler = StructureHandler(PMHashmap())
        if spec is not None:
            deployment = build(spec, config, handler=handler, obs=obs)
        else:
            deployment = builder(config, handler=handler, obs=obs, **kwargs)
        return deployment, [handler]
    return construct


def _multi(builder, spec=None, **kwargs):
    def construct(config, obs):
        handlers = []

        def factory():
            handler = StructureHandler(PMHashmap())
            handlers.append(handler)
            return handler

        if spec is not None:
            deployment = build(spec, config, handler_factory=factory,
                               obs=obs)
        else:
            deployment = builder(config, handler_factory=factory, obs=obs,
                                 **kwargs)
        return deployment, handlers
    return construct


PAIRS = {
    "client-server": (
        _single(build_client_server),
        _single(build, spec=DeploymentSpec(placement="none"))),
    "pmnet-switch": (
        _single(build_pmnet_switch, replication=2),
        _single(build, spec=DeploymentSpec(placement="switch",
                                           chain_length=2))),
    "pmnet-nic": (
        _single(build_pmnet_nic, enable_cache=True),
        _single(build, spec=DeploymentSpec(placement="nic",
                                           enable_cache=True))),
    "sharded": (
        _multi(build_sharded, num_servers=2),
        _multi(build, spec=DeploymentSpec(placement="switch",
                                          servers_per_rack=2))),
}


def _observables(construct) -> dict:
    """Every byte-comparison surface of one constructed system."""
    reset_request_ids()  # ids land in traces; depend on the seed alone
    config = SystemConfig(seed=9).quick_scale().with_clients(2)
    obs = Observability(spans=False, trace=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        deployment, handlers = construct(config, obs)
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=12, warmup_requests=2)
    trace = obs.tracer.dump()
    return {
        "trace_digest": hashlib.sha256(trace.encode()).hexdigest(),
        "instrument_summaries": obs.registry.summaries(),
        "latency_samples": stats.all_latencies.samples,
        "requests": stats.requests,
        "errors": stats.errors,
        "final_now": deployment.sim.now,
        "executed_events": deployment.sim.executed_events,
        "state_digests": [handler.digest() for handler in handlers],
    }


class TestShimEquivalence:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("fold", FOLD_LEVELS)
    def test_byte_identical_across_fold_levels(self, name, fold):
        shim, spec = PAIRS[name]
        with pinned(fold=fold):
            via_shim, via_spec = _observables(shim), _observables(spec)
        assert via_shim == via_spec, (
            f"{name} shim diverged from its spec at fold level {fold}")

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_identical_across_backends(self, name, backend):
        shim, spec = PAIRS[name]
        with pinned(kernel=backend):
            via_shim, via_spec = _observables(shim), _observables(spec)
        assert via_shim == via_spec, (
            f"{name} shim diverged from its spec on the {backend} backend")

"""Per-request call budget of the default packet path.

Wall-clock rates swing by several percent from run to run, so a small
hot-path regression hides in their noise.  The number of Python calls a
request costs does not: it is a property of the code, identical on every
run of one seed.  This benchmark profiles a 2,000-request closed-loop
all-update load at a PMNet ToR (the shape of the repository benchmark's
``write-log`` workload) with ``cProfile`` and counts the calls into
functions defined under ``src/repro`` per completed request — setup
included, standard library and builtins excluded, so the count does not
depend on the Python version's own internals.

The budget is a ceiling, not a target: when a change pushes the count
over it, the failure message lists the functions called most per
request, which names the layer that regressed without a timing run.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_call_budget.py -s
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro
from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.host.handler import IdealHandler
from repro.net.packet import reset_frame_ids
from repro.protocol.packet import reset_request_ids
from repro.workloads.loadgen import FlowLoadGenerator, LoadGenConfig

#: Calls into ``src/repro`` per completed request (the default fold level
#: and scheduler backend; 223 when the budget was tightened to this value
#: by deleting the revocable host/device reservations and host receive
#: claims, 251 when it was first set at 300, 542 before the hot-path
#: flattening that motivated it).
MAX_CALLS_PER_REQUEST = 240

REQUESTS = 2_000

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _run_write_log() -> int:
    """Build and drain the write-log shape; return completed requests."""
    reset_request_ids()
    reset_frame_ids()
    config = SystemConfig(seed=1).with_payload(100).with_clients(8)
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=IdealHandler(config.server.ideal_handler_ns))
    engine = FlowLoadGenerator(deployment, LoadGenConfig(
        mode="closed", users=2_000, total_requests=REQUESTS, window=64,
        update_ratio=1.0, zipf_theta=0.9, warmup_requests=64))
    deployment.open_all_sessions()
    engine.start()
    deployment.sim.run()
    return engine.result().completed


def test_calls_per_request_within_budget(capsys, monkeypatch):
    for knob in ("PMNET_FOLD", "PMNET_KERNEL", "PMNET_KERNEL_HORIZON"):
        monkeypatch.delenv(knob, raising=False)
    profiler = cProfile.Profile()
    profiler.enable()
    completed = _run_write_log()
    profiler.disable()
    assert completed == REQUESTS

    per_function = {}
    for (path, line, name), stat in pstats.Stats(profiler).stats.items():
        if os.path.abspath(path).startswith(PACKAGE_ROOT + os.sep):
            where = (f"{os.path.relpath(path, PACKAGE_ROOT)}:{line} {name}")
            per_function[where] = stat[1]  # total calls, recursion included
    calls_per_request = sum(per_function.values()) / completed
    heaviest = sorted(per_function.items(), key=lambda item: -item[1])[:12]
    table = "\n".join(f"  {calls / completed:7.2f}  {where}"
                      for where, calls in heaviest)
    with capsys.disabled():
        print(f"\n{calls_per_request:.1f} calls into src/repro per request "
              f"(budget {MAX_CALLS_PER_REQUEST})\n{table}\n")
    assert calls_per_request <= MAX_CALLS_PER_REQUEST, (
        f"{calls_per_request:.1f} calls/request > {MAX_CALLS_PER_REQUEST}; "
        f"heaviest per request:\n{table}")

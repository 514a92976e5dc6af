"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They use tiny runs (a few hundred requests) so the whole file takes
well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 600


def _bench(*args, env=None, cwd=ROOT):
    """Run ``run.py``; return (exit code, stdout lines)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               *args]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170, env=env)
    return done.returncode, done.stdout.strip().splitlines()


def _units(trace):
    return run.catalog(run.load_spec(), trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_agree_with_benchmark_json(trace):
    code, lines = _bench("--workload", "write-log", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--requests", str(TINY))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _units(trace)


def test_benchmark_json_names_every_workload_and_layer():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = set(_units(1))
    for layer in layers.LAYERS:
        assert {f"{layer}.cpu_share", f"{layer}.calls_per_req"} <= names


@pytest.mark.parametrize("workload, requests", [
    ("write-log", TINY), ("read-cache-open", TINY),
    ("fabric-failover", 2_400)])
def test_two_runs_and_the_traced_run_agree(workload, requests):
    deadline = time.monotonic() + 170
    first = run.spawn(workload, 5, deadline, requests=requests)
    second = run.spawn(workload, 5, deadline, requests=requests)
    traced = run.spawn(workload, 5, deadline, trace=True,
                       requests=requests)
    for record in (first, second, traced):
        assert run.run_problems(record) == []
    for key in run.IDENTICAL:
        assert first[key] == second[key] == traced[key], key
    assert first["slowdown"] > 0 and traced["slowdown"] is None
    assert set(traced["layers"]) | {
        "sim.kernel.ns_per_event", "setup.import_s", "setup.build_s",
        "trace.overhead_x"} == set(_units(1))
    if workload == "fabric-failover":
        assert traced["layers"]["control.migrations"] >= 1
        assert traced["layers"]["failure.detect_sim_us"] > 0


def test_another_seed_gives_other_samples():
    one = workloads.run_workload("write-log", 1, requests=TINY)
    two = workloads.run_workload("write-log", 2, requests=TINY)
    assert one["digest"] != two["digest"]


def test_guarded_run_executes_like_a_plain_run():
    """Chunked guard, store handler and tagger change nothing simulated."""
    from repro.net.packet import reset_frame_ids
    from repro.protocol.packet import reset_request_ids
    from repro.config import SystemConfig
    from repro.experiments.deploy import build
    from repro.workloads.loadgen import LoadGenConfig, run_loadgen

    workload = workloads.WORKLOADS["write-log"]
    guard = workloads.Guard(max_events=10**7, chunk_events=997)
    record = workloads.run_workload("write-log", 7, requests=TINY,
                                    guard=guard)
    reset_request_ids()
    reset_frame_ids()
    loadgen = LoadGenConfig.from_params(
        dict(workload.loadgen.to_params(), total_requests=TINY))
    deployment = build(workload.spec,
                       SystemConfig(seed=7).with_clients(workload.clients))
    plain = run_loadgen(deployment, loadgen)
    assert record["digest"] == plain.digest()
    assert record["events"] == deployment.sim.executed_events


def test_a_forced_stall_trips_the_guard_and_counts_as_failed():
    started = time.monotonic()
    record = workloads.run_workload("write-log", 1, requests=TINY,
                                    stall_at_ns=20_000)
    assert time.monotonic() - started < 60
    assert record["cut_off"]
    assert any("run guard" in problem
               for problem in run.run_problems(record))
    assert run.failed_requests(record) > 0
    metrics = run.end_to_end([dict(record, setup_s=0.1, peak_rss_mb=1.0)])
    assert metrics["completed_frac"] < 1.0


def test_a_leftover_knob_is_refused():
    assert run.leftover_knobs({"PMNET_KERNEL": "tiered",
                               "PMNET_NO_FOLD": "0"}) == []
    assert run.leftover_knobs({"PMNET_FOLD": "none"}) == [
        "PMNET_FOLD='none'"]
    env = dict(os.environ, PMNET_KERNEL="heap")
    code, lines = _bench("--workload", "write-log", "--seed", "1",
                         "--seconds", "1", "--requests", str(TINY), env=env)
    assert code == 2 and lines == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "write-log", "--seed", "1",
                         "--seconds", "1", cwd=str(tmp_path))
    assert code != 0 and lines == []


def test_layer_of_file_follows_the_module_tree():
    root = workloads.PACKAGE_ROOT
    cases = {"sim/kernel.py": "sim.kernel", "sim/event.py": "sim.kernel",
             "sim/rand.py": "sim.rand", "sim/trace.py": "sim.monitor",
             "obs/spans.py": "sim.monitor", "net/link.py": "net",
             "core/pmnet_device.py": "core", "pm/log.py": "pm",
             "host/client.py": "host", "workloads/loadgen.py": "workloads",
             "control/migrator.py": "control",
             "failure/injector.py": layers.OTHER}
    for path, layer in cases.items():
        assert layers.layer_of_file(os.path.join(root, path), root) == layer
    assert layers.layer_of_file("~", root) == ""
    assert layers.layer_of_file(json.__file__, root) == ""
    assert layers.layer_of_file(run.__file__, root) == layers.OTHER


def test_library_time_is_charged_to_the_calling_layer():
    root = workloads.PACKAGE_ROOT
    kernel = (os.path.join(root, "sim/kernel.py"), 1, "_run_tiered")
    send = (os.path.join(root, "net/link.py"), 1, "send")
    draw = ("~", 0, "<method 'random' of '_random.Random' objects>")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        kernel: (1, 1, 1.0, 10.0, {}),
        send: (4, 4, 2.0, 8.0, {kernel: (4, 4, 2.0, 8.0)}),
        draw: (4, 4, 3.0, 3.0, {send: (4, 4, 3.0, 3.0)}),
        push: (6, 6, 4.0, 4.0, {kernel: (2, 2, 1.0, 1.0),
                                send: (4, 4, 3.0, 3.0)}),
    }
    seconds, calls, total = layers.split_by_layer(stats, root)
    assert total == pytest.approx(10.0)
    assert seconds["sim.kernel"] == pytest.approx(2.0)
    assert seconds["net"] == pytest.approx(8.0)
    assert calls["net"] == 4 and calls["sim.kernel"] == 0

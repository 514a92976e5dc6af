"""The repository benchmark: named workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload write-log --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` runs the workload again and again, each time in a fresh
process (``child.py``) with the same seed, until ``--seconds`` are used
up (at least three runs).  It checks every run, then reports the
end-to-end metrics: host metrics as the median over the runs, simulated
metrics once (every run must produce them, and its sample-table digest,
identically).  ``--trace 1`` makes one untraced and one traced run of
the same seed and size and reports the per-layer metrics, including the
traced/untraced CPU ratio; the two digests must agree.

The metric names and units are those of ``BENCHMARK.json``.  Human
readable lines (provenance, one line per run, the metric table) come
first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
for a correct result, 1 for a result whose checks failed, and 2 when
nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Spellings of the program's defaults for the settings that change what
#: is measured; a run refuses a shell that sets any of them otherwise.
DEFAULT_KNOBS = {"PMNET_KERNEL": ("tiered",), "PMNET_FOLD": ("whole", "2"),
                 "PMNET_NO_FOLD": ("0",), "PMNET_KERNEL_HORIZON": ("4096",),
                 "REPRO_FULL": ()}
#: The same defaults as every run record reports them once resolved.
RESOLVED_KNOBS = {"PMNET_KERNEL": "tiered", "PMNET_FOLD": 2,
                  "PMNET_KERNEL_HORIZON": 4096, "REPRO_FULL": ""}

MIN_RUNS = 3
#: Every run of this command ends within this many wall seconds.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """Nothing could be measured (bad input, missing program, crash)."""


def leftover_knobs(environ) -> List[str]:
    """Shell settings that would change what the benchmark measures."""
    return [f"{name}={environ[name]!r}"
            for name, defaults in DEFAULT_KNOBS.items()
            if environ.get(name, "").strip().lower() not in ("",) + defaults]


def provenance() -> Dict[str, object]:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {"git_rev": git_rev, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def spawn(workload: str, seed: int, deadline: float, trace: bool = False,
          requests: Optional[int] = None, warm: bool = False) -> dict:
    """Run ``child.py`` in a fresh process; return its record."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if requests is not None:
        command += ["--requests", str(requests)]
    if warm:
        command.append("--warm")
    command += ["--spawned-at", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left before the deadline")
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchmarkError(
                f"{workload} run did not end before the deadline")
    if child.returncode != 0:
        raise BenchmarkError(f"{workload} run exited with "
                             f"{child.returncode}:\n{err.strip()}")
    if warm:
        return {}
    return json.loads(out.strip().splitlines()[-1])


def run_problems(record: dict) -> List[str]:
    """What is wrong with one run's outputs (empty when correct)."""
    problems = []
    if record["cut_off"]:
        problems.append(f"cut off by the run guard: {record['cut_off']}")
    if record["issued"] != record["requests"]:
        problems.append(f"issued {record['issued']} of "
                        f"{record['requests']} requests")
    if record["completed"] != record["issued"]:
        problems.append(f"{record['issued'] - record['completed']} "
                        "requests never completed")
    if record["errors"]:
        problems.append(f"{record['errors']} requests failed")
    if record["logs_left"]:
        problems.append(f"{record['logs_left']} device log entries left "
                        "at quiesce")
    if record["acked_missing"]:
        problems.append(f"{record['acked_missing']} acknowledged keys "
                        "missing from the shard stores")
    if "migrations" in record and (not record["migrations"]
                                   or record["migrator_busy"]):
        problems.append("the failover did not migrate and commit")
    if record["knobs"] != RESOLVED_KNOBS:
        problems.append(f"non-default settings {record['knobs']}")
    return problems


#: Outputs that must be identical in every run of one seed and size.
IDENTICAL = ("digest", "samples", "events", "sim_p50_us", "sim_p999_us",
             "sim_kreq_per_s")


def failed_requests(record: dict) -> int:
    """Requests that failed, never completed or were cut off."""
    return record["requests"] - (record["completed"] - record["errors"])


def normalised(record: dict, seconds: float) -> float:
    """Host seconds at the reference's nominal machine speed."""
    return seconds / record["slowdown"]


def end_to_end(records: List[dict]) -> Dict[str, float]:
    first = records[0]
    requests = sum(record["requests"] for record in records)
    return {
        "host_req_per_cpu_s": statistics.median(
            r["completed"] / normalised(r, r["sim_cpu_s"]) for r in records),
        "setup_s": statistics.median(normalised(r, r["setup_s"])
                                     for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "sim_p50_us": first["sim_p50_us"],
        "sim_p999_us": first["sim_p999_us"],
        "sim_kreq_per_s": first["sim_kreq_per_s"],
        "completed_frac": 1.0 - sum(map(failed_requests, records))
        / requests,
    }


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    metrics = dict(traced["layers"])
    metrics.update({
        "sim.kernel.ns_per_event": normalised(
            untraced, untraced["sim_cpu_s"]) * 1e9 / untraced["events"],
        "setup.import_s": normalised(untraced, untraced["import_s"]),
        "setup.build_s": normalised(untraced, untraced["build_s"]),
        "trace.overhead_x": traced["sim_cpu_s"] / untraced["sim_cpu_s"],
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            requests: Optional[int]) -> Tuple[List[dict], Dict[str, float],
                                              List[str]]:
    """Make the runs; return them, the metrics and every problem found."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    spawn(workload, seed, deadline, warm=True)
    if trace:
        records = [spawn(workload, seed, deadline, requests=requests),
                   spawn(workload, seed, deadline, trace=True,
                         requests=requests)]
    else:
        records = []
        first_at = time.monotonic()
        while True:
            records.append(spawn(workload, seed, deadline,
                                 requests=requests))
            if run_problems(records[-1]):
                break
            now = time.monotonic()
            per_run = (now - first_at) / len(records)
            if now + per_run > deadline - 5.0:
                break
            if len(records) >= MIN_RUNS and now + per_run > started + seconds:
                break
    problems = [f"run {index}: {problem}"
                for index, record in enumerate(records, 1)
                for problem in run_problems(record)]
    for key in IDENTICAL:
        values = {record[key] for record in records}
        if len(values) > 1:
            problems.append(f"runs of one seed disagree on {key}: "
                            f"{sorted(values)}")
    metrics = (per_layer(*records) if trace else end_to_end(records))
    return records, metrics, problems


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and the metric catalogue."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def catalog(spec: dict, trace: bool) -> Dict[str, str]:
    """Metric name -> unit of the end-to-end or the per-layer metrics."""
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="shrink every run to this many requests "
                             "(smoke tests; default: the workload's size)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.requests is not None and args.requests < 1):
        parser.error("--seconds and --requests must be positive")
    leftovers = leftover_knobs(os.environ)
    if leftovers:
        print("refusing to run: the shell sets "
              f"{', '.join(leftovers)}; unset them to measure the "
              "program's defaults", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("refusing to run: no program source under src/repro",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = catalog(spec, trace)
    try:
        records, metrics, problems = measure(
            args.workload, args.seed, args.seconds, trace, args.requests)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print("benchmark failed: metrics and BENCHMARK.json disagree: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2

    info = dict(provenance(), workload=args.workload, seed=args.seed,
                trace=args.trace, knobs=records[0]["knobs"])
    print("provenance: " + json.dumps(info, sort_keys=True))
    for index, record in enumerate(records, 1):
        print(f"run {index}{' (traced)' if record.get('layers') else ''}: "
              f"digest={record['digest']} samples={record['samples']} "
              f"events={record['events']} "
              f"acked_keys={record['acked_keys']} "
              f"sim_cpu_s={record['sim_cpu_s']:.3f} "
              f"slowdown={record['slowdown'] or 0:.3f} "
              f"setup_s={record['setup_s']:.3f} "
              f"peak_rss_mb={record['peak_rss_mb']:.1f}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(record["requests"] for record in records),
        "failed": sum(map(failed_requests, records)),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Events/request benchmark: the latency-folded path scorecard.

Runs the Fig 16 stress shape at both fold levels and holds the folded
paths to their contract:

* **event pins** — each fold level must execute exactly its pinned
  number of events.  Event counts are deterministic, so a pin never
  trips on machine noise; it trips on any change to what folds, in
  either direction, and such a change re-pins with old -> new counts
  in CHANGES.md.
* **calls floor and ceiling** — the folded run must make at least 6 %
  fewer Python calls per request than the unfolded one (folding must
  pay for its own bookkeeping), and without spans at most 340 calls
  per request; calls are deterministic too.
* **identity** — every per-request latency must match across levels.
* **loadgen floor** — the flow-level generator leg models >= 10^4
  closed-loop users and the whole fold holds its per-request event
  budget at that scale.

Every check runs and every failure is reported, so one failing floor
never hides another.

Run with:  pytest benchmarks/test_pipeline_events.py --benchmark-only -s
"""

from __future__ import annotations

from repro.experiments.pipeline_bench import (LOADGEN_MIN_USERS,
                                              format_result,
                                              run_pipeline_benchmark)

#: Executed events of the 32-client x 20-request shape, per fold level
#: (31.38 and 37.58 events/request over 640 measured requests).  Spans
#: must not move either count.
PINNED_EXECUTED_EVENTS = {"whole": 20_085, "none": 24_053}

#: Whole-fold calls into ``src/repro`` per request, below the unfolded
#: run's: folding must save at least this share of the unfolded calls
#: (measured: 8.3 %, 330.3 vs 360.2 calls/request).  Calls, not
#: events: a fold that removes an event but costs more bookkeeping than
#: the event did lowers the event count while raising the real cost,
#: and only calls see both sides.  Links run one model at both levels,
#: so only the device and client folds count here.
MIN_WHOLE_VS_NONE_CALL_REDUCTION = 0.06

#: Ceiling on the whole-fold run's own calls per request on the same
#: shape with spans off (measured: 330.3; 345.4 with spans on).
MAX_WHOLE_CALLS_PER_REQUEST = 340.0

#: Events/request ceiling for the >= 10^4-user loadgen leg (measured:
#: 23.41).
MAX_LOADGEN_EVENTS_PER_REQUEST = 26.0


def _assert_contract(result):
    problems = []
    if not result["latencies_identical"]:
        problems.append("fold levels produced different request latencies")
    for level, key in (("whole", "fold"), ("none", "no_fold")):
        events = result[key]["executed_events"]
        if events != PINNED_EXECUTED_EVENTS[level]:
            problems.append(
                f"PMNET_FOLD={level} executed {events:,} events, pinned "
                f"{PINNED_EXECUTED_EVENTS[level]:,}")
    reduction = result["calls_per_request_reduction"]
    if reduction < MIN_WHOLE_VS_NONE_CALL_REDUCTION:
        problems.append(
            f"whole fold spends {result['fold']['calls_per_request']:.1f} "
            f"calls/request vs {result['no_fold']['calls_per_request']:.1f} "
            f"unfolded — only {reduction:.1%} fewer, needs >= "
            f"{MIN_WHOLE_VS_NONE_CALL_REDUCTION:.0%}")
    whole_calls = result["fold"]["calls_per_request"]
    # Span recording costs calls by design; the ceiling is the default
    # path's.
    if not result["spans"] and whole_calls > MAX_WHOLE_CALLS_PER_REQUEST:
        problems.append(
            f"whole fold spends {whole_calls:.1f} calls/request, ceiling "
            f"is {MAX_WHOLE_CALLS_PER_REQUEST:.0f}")
    loadgen = result["loadgen"]
    if loadgen["modeled_users"] < LOADGEN_MIN_USERS:
        problems.append(f"loadgen leg models {loadgen['modeled_users']:,} "
                        f"users, needs >= {LOADGEN_MIN_USERS:,}")
    if loadgen["completed"] <= loadgen["modeled_users"]:
        problems.append(f"loadgen leg completed {loadgen['completed']:,} "
                        f"requests for {loadgen['modeled_users']:,} users")
    if loadgen["events_per_request"] > MAX_LOADGEN_EVENTS_PER_REQUEST:
        problems.append(
            f"loadgen leg spends {loadgen['events_per_request']:.2f} "
            f"events/request at {loadgen['modeled_users']:,} users — "
            f"ceiling is {MAX_LOADGEN_EVENTS_PER_REQUEST}")
    assert not problems, "\n".join(problems)


class TestPipelineEvents:
    def test_fold_cuts_events_and_preserves_latencies(self, benchmark,
                                                      capsys):
        result = benchmark.pedantic(
            run_pipeline_benchmark,
            kwargs={"clients": 32, "requests_per_client": 20, "repeats": 1},
            rounds=1, iterations=1)
        with capsys.disabled():
            print(f"\n{format_result(result)}\n")
        _assert_contract(result)

    def test_floor_holds_with_spans_enabled(self, benchmark, capsys):
        """The observability overhead guarantee: recording lifecycle
        spans must not add events or move a single latency sample, so
        the event pins and floors hold unchanged with spans on."""
        result = benchmark.pedantic(
            run_pipeline_benchmark,
            kwargs={"clients": 32, "requests_per_client": 20, "repeats": 1,
                    "spans": True},
            rounds=1, iterations=1)
        with capsys.disabled():
            print(f"\n[spans enabled] {format_result(result)}\n")
        assert result["spans"] is True
        _assert_contract(result)

"""Events/request benchmark: the latency-folded path scorecard.

Runs the Fig 16 stress shape at both fold levels and holds the folded
paths to their contract:

* **floor guard** — the folded run must need at most 70 % of the
  unfolded run's events per request, and at least 15 % fewer Python
  calls per request (folding must pay for its own bookkeeping).  Event
  and call counts are deterministic, so these never trip on machine
  noise; they trip when someone un-folds a path or adds a fold that
  costs more than it saves.
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

#: Whole-fold events/request over unfolded, at most.  The measured
#: ratio on the reference container is ~0.67; 0.70 is the floor the
#: fold tiers were built to beat.
MAX_EVENT_RATIO = 0.70

#: Whole-fold calls into ``src/repro`` per request, below the unfolded
#: run's: folding must save at least this share of the unfolded calls
#: (measured: 20.7 %, 344.9 vs 435.1 calls/request).  Calls, not
#: events: a fold that removes an event but costs more bookkeeping than
#: the event did lowers the event count while raising the real cost,
#: and only calls see both sides.
MIN_WHOLE_VS_NONE_CALL_REDUCTION = 0.15

#: Events/request ceiling for the >= 10^4-user loadgen leg (measured:
#: ~26 on the reference container).
MAX_LOADGEN_EVENTS_PER_REQUEST = 30.0


def _assert_contract(result):
    problems = []
    if not result["latencies_identical"]:
        problems.append("fold levels produced different request latencies")
    whole = result["fold"]["events_per_request"]
    off = result["no_fold"]["events_per_request"]
    if whole > MAX_EVENT_RATIO * off:
        problems.append(
            f"whole fold spends {whole:.2f} events/request vs {off:.2f} "
            f"unfolded — ratio {whole / off:.2f} exceeds {MAX_EVENT_RATIO}")
    reduction = result["calls_per_request_reduction"]
    if reduction < MIN_WHOLE_VS_NONE_CALL_REDUCTION:
        problems.append(
            f"whole fold spends {result['fold']['calls_per_request']:.1f} "
            f"calls/request vs {result['no_fold']['calls_per_request']:.1f} "
            f"unfolded — only {reduction:.1%} fewer, needs >= "
            f"{MIN_WHOLE_VS_NONE_CALL_REDUCTION:.0%}")
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
        the folded-path floor holds unchanged with spans on."""
        result = benchmark.pedantic(
            run_pipeline_benchmark,
            kwargs={"clients": 32, "requests_per_client": 20, "repeats": 1,
                    "spans": True},
            rounds=1, iterations=1)
        with capsys.disabled():
            print(f"\n[spans enabled] {format_result(result)}\n")
        assert result["spans"] is True
        _assert_contract(result)

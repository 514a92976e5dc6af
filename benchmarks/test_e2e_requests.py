"""End-to-end requests/CPU-second across the scheduler backends.

The kernel microbenchmark guards the tiered scheduler's structural
speedup over the heap (``test_kernel_events.py``, where the queue is
the whole workload).  This benchmark reports what is left of it once
the whole model runs: the aggregate loadgen + chaos request rate per
CPU-second, measured in adjacent heap/tiered groups
(:mod:`repro.experiments.e2e_bench`).

What is held is **identity**: every leg's digest and event count must
be bit-identical across backends.  ``run_e2e_benchmark`` raises
:class:`~repro.experiments.e2e_bench.BackendDivergence` otherwise, so
merely completing is the assertion.  The e2e rate is model-dominated
(the queue is a fraction of the CPU time) and host noise on a shared
box swings individual groups by ±10 %, so no rate floor is set here.

Run with:  pytest benchmarks/test_e2e_requests.py --benchmark-only -s
"""

from __future__ import annotations

from repro.experiments.e2e_bench import format_result, run_e2e_benchmark

#: Adjacent heap/tiered groups to measure.
_REPEATS = 3

#: One chaos plan per group keeps the benchmark under a minute; the
#: seed-sweep identity lives in the integration tier.
_CHAOS_SEEDS = (1,)


class TestE2ERequests:
    def test_backends_agree_end_to_end(self, capsys):
        result = run_e2e_benchmark(repeats=_REPEATS,
                                   chaos_seeds=_CHAOS_SEEDS)
        with capsys.disabled():
            print(f"\n{format_result(result)}\n")
        assert result["digests_identical"]
        assert result["backends"] == ["heap", "tiered"]
        # The report records an absolute rate for every backend — the
        # envelope consumers (CI smoke, BENCH_e2e.json) rely on these.
        for backend in ("heap", "tiered"):
            assert max(result["all_requests_per_cpu_second"][backend]) > 0

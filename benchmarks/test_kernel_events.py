"""Raw kernel events/sec microbenchmark (the hot-path scorecard).

Unlike the figure benchmarks, this one measures the simulator itself:
how many scheduled callbacks the kernel executes per second with no
model attached, across the three queue shapes and both scheduler
backends (``PMNET_KERNEL=heap|tiered``).

Two kinds of floor are guarded:

* an **absolute** sanity floor (100k events/sec) that trips only on a
  genuine hot-path catastrophe, never on machine noise, and
* **relative** floors — tiered versus the heap reference, measured in
  the same process as the **best** adjacent pairwise ratio (see :mod:`repro.sim.benchmark` for why pairing is
  the only stable statistic on shared hosts; host disturbance can only
  drag a pair's ratio toward noise, so the least-disturbed pair is the
  cleanest view of the structural speedup).  The headline requirement
  is tiered ≥1.25× heap on the mixed shape; the other shapes guard
  against the tiered backend regressing anywhere.

Run with:  pytest benchmarks/test_kernel_events.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.sim.benchmark import run_once, run_shape_comparison

#: Conservative absolute floor: the pre-refactor kernel managed ~150k
#: events/sec on the reference container; the tiered backend ~1M.  100k
#: trips only on a genuine hot-path regression, not on machine noise.
MIN_EVENTS_PER_SECOND = 100_000

#: Events per comparison run: long enough (~0.1-0.3 s) that clock
#: granularity and startup transients stop mattering, short enough that
#: a run fits inside one machine-speed phase.
_COMPARE_EVENTS = 100_000

#: Adjacent heap/tiered groups per shape; with 5 groups the
#: floors only need one to land inside a quiet machine-speed phase.
_COMPARE_REPEATS = 5

#: Relative floors per shape (best pairwise tiered/heap ratio — noise
#: only ever deflates a pair, so the max is the robust statistic; the
#: median swings ±0.15 on a busy 1-vCPU host while the best pair holds
#: steady).  Mixed is the acceptance bar from the tiered-scheduler
#: work; the same-instant shape is the now lane's best case and must
#: stay a clear win; cancel-heavy is a parity guard (both backends
#: share the compaction machinery) with headroom for noise.
MIN_SPEEDUP = {
    "mixed": 1.25,
    "same_instant": 1.1,
    "cancel_heavy": 0.95,
}


class TestKernelEvents:
    def test_events_per_second(self, benchmark):
        result = benchmark.pedantic(run_once, kwargs={"num_events": 200_000},
                                    rounds=3, iterations=1)
        benchmark.extra_info["events_per_second"] = result["events_per_second"]
        assert result["events"] >= 200_000
        assert result["events_per_second"] >= MIN_EVENTS_PER_SECOND

    @pytest.mark.parametrize("shape", sorted(MIN_SPEEDUP))
    def test_tiered_speedup_floor(self, shape):
        comparison = run_shape_comparison(
            shape, num_events=_COMPARE_EVENTS, repeats=_COMPARE_REPEATS)
        floor = MIN_SPEEDUP[shape]
        assert comparison["speedup_best"] >= floor, (
            f"tiered backend below its floor on the {shape!r} shape: "
            f"best pairwise speedup {comparison['speedup_best']:.3f} < {floor} "
            f"(median {comparison['speedup']:.3f}, pairs: "
            f"{[round(p, 3) for p in comparison['pairwise_speedups']]})")

    def test_all_backends_clear_absolute_floor(self):
        for kernel in ("heap", "tiered"):
            result = run_once(num_events=100_000, kernel=kernel)
            assert result["backend"] == kernel
            assert result["events_per_second"] >= MIN_EVENTS_PER_SECOND, (
                f"{kernel} backend fell below the absolute sanity floor")

"""The chaos engine: plan determinism, replay, shrinking, the corpus.

The mutation check is the suite's teeth: it plants a known persistence
bug (eager log invalidation before the server commit) and asserts the
chaos pipeline catches it, shrinks it to a minimal schedule, and emits
a replayable repro line.
"""

import json
from pathlib import Path

import pytest

from repro.core.pmnet_device import PMNetDevice
from repro.experiments.jobs import execute_serial
from repro.experiments.parallel import run_jobs
from repro.experiments.registry import EXPERIMENTS
from repro.failure import chaos
from tests.knobs import pinned

CORPUS = Path(__file__).parent / "chaos_corpus.txt"


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        assert chaos.generate_plan(11) == chaos.generate_plan(11)

    def test_plans_vary_across_seeds(self):
        plans = {chaos.generate_plan(seed) for seed in range(16)}
        assert len(plans) == 16

    @pytest.mark.parametrize("seed", range(32))
    def test_fault_windows_never_overlap(self, seed):
        plan = chaos.generate_plan(seed)
        cursor = 0
        for fault in plan.faults:
            assert fault.at_ns > cursor
            assert fault.duration_ns > 0
            cursor = fault.end_ns

    @pytest.mark.parametrize("seed", range(32))
    def test_replacements_leave_a_surviving_log_copy(self, seed):
        plan = chaos.generate_plan(seed)
        replacements = sum(1 for f in plan.faults
                           if f.kind == chaos.DEVICE_REPLACE)
        assert replacements <= plan.replication - 1

    @pytest.mark.parametrize("seed", range(32))
    def test_at_most_one_server_outage(self, seed):
        plan = chaos.generate_plan(seed)
        outages = sum(1 for f in plan.faults
                      if f.kind == chaos.SERVER_OUTAGE)
        assert outages <= 1


class TestDeterministicReplay:
    def test_same_seed_twice_is_bit_identical(self):
        plan = chaos.generate_plan(7)
        first = chaos.run_plan(plan)
        second = chaos.run_plan(plan)
        assert first.to_dict() == second.to_dict()

    def test_fold_identity(self):
        plan = chaos.generate_plan(7)
        with pinned(fold="whole"):
            folded = chaos.run_plan(plan)
        with pinned(fold="none"):
            unfolded = chaos.run_plan(plan)
        assert unfolded.trace_digest == folded.trace_digest
        assert unfolded.violations == folded.violations
        assert unfolded.completions == folded.completions
        # Folding only merges events; it never changes what happens.
        assert unfolded.executed_events >= folded.executed_events

    def test_result_independent_of_prior_runs(self):
        plan = chaos.generate_plan(7)
        baseline = chaos.run_plan(plan).to_dict()
        chaos.run_plan(chaos.generate_plan(3))  # dirty the globals
        assert chaos.run_plan(plan).to_dict() == baseline

    @pytest.mark.parametrize("seed", range(6))
    def test_small_sweep_is_clean(self, seed):
        result = chaos.run_plan(chaos.generate_plan(seed))
        assert result.ok, "\n".join(result.violations)
        assert result.completions == (result.plan.clients
                                      * result.plan.requests_per_client)


class TestWholeFoldReplay:
    """The whole-request fold under the full chaos battery.

    The chaos engine exercises every revocation trigger the fold has —
    impairment windows opening mid-request, device crashes, server
    outages, replacements — so replaying fault schedules with the fold
    pinned to ``whole`` vs fully unfolded is the strongest identity
    check in the suite: same trace digest, same R1-R6 violation set,
    same durability-oracle verdict, request for request.
    """

    @staticmethod
    def _assert_fold_invisible(plan):
        with pinned(fold="none"):
            unfolded = chaos.run_plan(plan)
        with pinned(fold="whole"):
            whole = chaos.run_plan(plan)
        label = f"seed={plan.seed}"
        assert whole.trace_digest == unfolded.trace_digest, label
        assert whole.violations == unfolded.violations, label
        assert whole.ok == unfolded.ok, label
        assert whole.completions == unfolded.completions, label
        assert whole.acknowledged == unfolded.acknowledged, label
        # Folding only merges events; it never adds any.
        assert whole.executed_events <= unfolded.executed_events, label

    def test_shipped_corpus_replays_identically(self):
        seeds = chaos.load_corpus(str(CORPUS))
        assert seeds
        for seed in seeds:
            self._assert_fold_invisible(chaos.generate_plan(seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(1000, 1040))
    def test_fresh_sweep_replays_identically(self, seed):
        self._assert_fold_invisible(chaos.generate_plan(seed))


def _plant_eager_invalidate(monkeypatch):
    """Plant the bug: invalidate the log entry right after the PMNet-ACK,
    before any server commit — a direct R3 violation and, if the server
    dies first, a durability hole."""
    original = PMNetDevice._on_persisted

    def eager(self, entry):
        original(self, entry)
        packet = entry.packet
        if self.failed or self.log.lookup(packet.hash_val) is None:
            return
        self.log.invalidate(packet.hash_val)
        self.tracer.emit(self.sim.now, self.name, "log_invalidated",
                         req=packet.request_id, seq=packet.seq_num)

    monkeypatch.setattr(PMNetDevice, "_on_persisted", eager)


class TestMutationCheck:
    def test_planted_bug_is_caught_shrunk_and_reported(self, monkeypatch):
        _plant_eager_invalidate(monkeypatch)
        plan = chaos.generate_plan(0)
        failing = chaos.run_plan(plan)
        assert not failing.ok
        assert any("[R3]" in violation for violation in failing.violations)
        minimal = chaos.shrink(plan, failing)
        # The bug fires on every update; no fault is needed to expose it.
        assert minimal.fault_indices == ()
        line = chaos.repro_line(minimal)
        assert line == "pmnet-repro chaos --seed 0 --faults none"

    def test_shrink_refuses_passing_plans(self):
        with pytest.raises(ValueError, match="passes"):
            chaos.shrink(chaos.generate_plan(0))


class TestFaultSelector:
    def test_all_and_none(self):
        assert chaos.parse_fault_selector(None, 3) is None
        assert chaos.parse_fault_selector("all", 3) is None
        assert chaos.parse_fault_selector("none", 3) == ()

    def test_indices(self):
        assert chaos.parse_fault_selector("0,2", 3) == (0, 2)

    def test_rejects_garbage_and_out_of_range(self):
        with pytest.raises(ValueError):
            chaos.parse_fault_selector("1,frog", 3)
        with pytest.raises(ValueError):
            chaos.parse_fault_selector("3", 3)

    def test_subset_replay_matches_selector(self):
        plan = chaos.generate_plan(2)
        result = chaos.run_plan(plan, (0,))
        assert result.fault_indices == (0,)
        assert result.ok


class TestCorpus:
    def test_roundtrip_and_idempotence(self, tmp_path):
        path = str(tmp_path / "corpus.txt")
        assert chaos.load_corpus(path) == []
        assert chaos.append_to_corpus(path, 41, note="[R3] planted")
        assert chaos.append_to_corpus(path, 42)
        assert not chaos.append_to_corpus(path, 41)
        assert chaos.load_corpus(path) == [41, 42]

    def test_shipped_corpus_replays_clean(self):
        seeds = chaos.load_corpus(str(CORPUS))
        assert seeds, "shipped corpus must not be empty"
        for seed in seeds:
            result = chaos.run_plan(chaos.generate_plan(seed))
            assert result.ok, (f"corpus seed {seed} regressed:\n"
                               + "\n".join(result.violations))


class TestJobProtocol:
    def test_registered(self):
        assert "chaos" in EXPERIMENTS
        assert EXPERIMENTS["chaos"].run_point is chaos.run_point

    def test_run_point_matches_direct_run(self):
        spec = chaos.jobs(start_seed=4, runs=1)[0]
        direct = chaos.run_plan(chaos.generate_plan(4)).to_dict()
        assert chaos.run_point(spec) == direct

    def test_parallel_matches_serial(self):
        specs = chaos.jobs(start_seed=0, runs=4)
        serial = execute_serial(specs, chaos.run_point)
        fanned = run_jobs(specs, jobs=2, cache=None)
        by_seed = lambda r: r.spec.seed  # noqa: E731
        assert ([r.value for r in sorted(serial, key=by_seed)]
                == [r.value for r in sorted(fanned, key=by_seed)])
        assert "0 failing" in chaos.assemble(fanned)


class TestCLI:
    def test_single_seed(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--corpus", ""]) == 0
        out = capsys.readouterr().out
        assert "chaos seed 2" in out
        assert "verdict: clean" in out

    def test_faults_none_replay(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--faults", "none",
                     "--corpus", ""]) == 0
        assert "verdict: clean" in capsys.readouterr().out

    def test_faults_requires_single_run(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--runs", "2", "--faults", "none"]) == 2

    def test_sweep_json_envelope(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.export import validate_bench_report
        path = tmp_path / "chaos.json"
        assert main(["chaos", "--runs", "3", "--jobs", "1",
                     "--json", str(path), "--corpus", ""]) == 0
        report = json.loads(path.read_text())
        assert validate_bench_report(report) == []
        payload = report["payload"]
        assert payload["clean"] == 3
        assert payload["failing_seeds"] == []
        assert len(payload["results"]) == 3

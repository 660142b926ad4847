"""Chaos harness (``repro.sim.chaos``) and the recovery invariant.

The tentpole guarantee of the supervised execution layer: **under any
chaos spec, a campaign's deterministic report is byte-identical to
the undisturbed serial oracle.**  The matrix below injects every
failure kind (worker crash, hang past the timeout, slow chunk, poison
exception) into serial and parallel runs on every backend, plus store
lock contention and a simulated mid-campaign kill that must resume,
under any worker count, with zero re-simulation of finished faults.
"""

import json
import shutil

import pytest

from harness import FAST, stratified
from repro.diagnosis.dictionary import build_dictionary
from repro.faults.lists import fault_list_2
from repro.march.known import known_march
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import fault_outcomes
from repro.sim.chaos import (
    ChaosPoison,
    ChaosSpec,
    apply_chaos,
    parse_chaos,
)
from repro.sim.supervisor import SupervisorPolicy
from repro.store import QualificationStore, qualification_key

TEST = known_march("March C-").test
#: A stratified slice of FL#2 keeps each matrix cell around a second
#: while still spreading faults across several chunks.
FAULTS = stratified(fault_list_2(), 12)
#: 12 faults / chunk_size 3 = 4 chunks per run -- enough parallelism
#: for crashes to catch innocent chunks in flight.
CHUNK = 3

#: Hang cells need a real timeout to recover; generous enough for a
#: loaded 1-CPU CI runner, small enough to keep the cell fast.
HANG = SupervisorPolicy(timeout=1.5, backoff_base=0.0)


def fault_row_key(fault):
    """The store key of *fault*'s campaign row (March C-, n=3)."""
    return qualification_key(TEST, [fault], 3, 6, "straddle", 1, None)


def run_campaign(**kwargs):
    return CoverageCampaign(
        TEST, {"FL2": FAULTS}, memory_sizes=[3], **kwargs).run()


@pytest.fixture(scope="module")
def oracle_json():
    """The undisturbed serial oracle every disturbed run must match."""
    return run_campaign().report_json()


# ----------------------------------------------------------------------
# Spec parsing and planning
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_full_spec(self):
        spec = parse_chaos(
            "crash=0.3, poison=0.2, seed=7, attempts=2, "
            "slow_seconds=0.5")
        assert spec == ChaosSpec(
            seed=7, crash=0.3, poison=0.2, attempts=2,
            slow_seconds=0.5)

    def test_parse_empty_tokens_tolerated(self):
        assert parse_chaos("crash=1,,") == ChaosSpec(crash=1.0)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="bad chaos token"):
            parse_chaos("explode=0.5")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad chaos value"):
            parse_chaos("crash=often")

    def test_parse_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            parse_chaos("crash=1.5")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="rate"):
            ChaosSpec(poison=-0.1)
        with pytest.raises(ValueError, match="attempts"):
            ChaosSpec(attempts=0)
        with pytest.raises(ValueError, match="durations"):
            ChaosSpec(slow_seconds=-1)

    def test_plan_is_deterministic(self):
        spec = ChaosSpec(seed=3, crash=0.3, poison=0.3)
        plans = [spec.plan(f"chunk {i}", 0) for i in range(50)]
        assert plans == [spec.plan(f"chunk {i}", 0) for i in range(50)]
        # With combined rate 0.6 over 50 labels, both actions and
        # clean chunks must all occur.
        assert {"crash", "poison", None} <= set(plans) | {None}
        assert any(plan == "crash" for plan in plans)
        assert any(plan == "poison" for plan in plans)
        assert any(plan is None for plan in plans)

    def test_plan_rate_one_always_fires(self):
        assert ChaosSpec(crash=1.0).plan("anything", 0) == "crash"
        assert ChaosSpec(hang=1.0).plan("anything", 0) == "hang"

    def test_plan_spares_later_attempts(self):
        spec = ChaosSpec(crash=1.0, attempts=1)
        assert spec.plan("chunk", 0) == "crash"
        assert spec.plan("chunk", 1) is None

    def test_plan_attempts_extends_disturbance(self):
        spec = ChaosSpec(crash=1.0, attempts=2)
        assert spec.plan("chunk", 1) == "crash"
        assert spec.plan("chunk", 2) is None

    def test_seed_changes_the_plan(self):
        labels = [f"chunk {i}" for i in range(40)]
        a = [ChaosSpec(seed=0, crash=0.5).plan(lb, 0) for lb in labels]
        b = [ChaosSpec(seed=1, crash=0.5).plan(lb, 0) for lb in labels]
        assert a != b

    def test_apply_slow_and_poison(self):
        apply_chaos(None, 0.0, 0.0)  # no-op
        apply_chaos("slow", 0.0, 0.0)  # zero-duration sleep
        with pytest.raises(ChaosPoison):
            apply_chaos("poison", 0.0, 0.0)
        with pytest.raises(ValueError, match="unknown chaos action"):
            apply_chaos("meltdown", 0.0, 0.0)

    def test_lock_plan_none_at_zero_rate(self):
        assert ChaosSpec().lock_plan() is None

    def test_lock_plan_first_attempt_only(self):
        fire = ChaosSpec(lock=1.0).lock_plan()
        # Every operation's first attempt is disturbed, its retry
        # (the call right after a firing call) always passes.
        assert [fire() for _ in range(6)] \
            == [True, False, True, False, True, False]

    def test_lock_plan_deterministic(self):
        draws = [ChaosSpec(lock=0.5, seed=9).lock_plan()()
                 for _ in range(1)]
        fire_a = ChaosSpec(lock=0.5, seed=9).lock_plan()
        fire_b = ChaosSpec(lock=0.5, seed=9).lock_plan()
        sequence_a = [fire_a() for _ in range(20)]
        sequence_b = [fire_b() for _ in range(20)]
        assert sequence_a == sequence_b
        assert draws[0] == sequence_a[0]


# ----------------------------------------------------------------------
# The chaos matrix: every failure kind x serial/parallel x backend
# must recover to the oracle's exact bytes
# ----------------------------------------------------------------------
#: kind -> (spec, policy, recovery event it must have produced):
#: a crash is seen as a dead worker, a hang as a chunk timeout, a
#: poison pill as a worker exception; slow chunks succeed on their
#: own (no recovery event -- byte-identity is the whole assertion).
MATRIX_SPECS = {
    "crash": (ChaosSpec(seed=7, crash=0.35), FAST, "crash"),
    "hang": (ChaosSpec(seed=7, hang=0.35, hang_seconds=30.0), HANG,
             "timeout"),
    "slow": (ChaosSpec(seed=7, slow=0.35, slow_seconds=0.05), FAST,
             None),
    "poison": (ChaosSpec(seed=7, poison=0.35), FAST, "error"),
}


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", sorted(MATRIX_SPECS))
    @pytest.mark.parametrize("workers", [1, 2],
                             ids=["serial", "parallel"])
    @pytest.mark.parametrize(
        "backend", ["dense", "sparse", "bitpar"])
    def test_recovered_report_matches_oracle(
            self, oracle_json, kind, workers, backend):
        chaos, policy, event_kind = MATRIX_SPECS[kind]
        result = run_campaign(
            workers=workers, chunk_size=CHUNK, backend=backend,
            chaos=chaos, policy=policy)
        assert result.report_json() == oracle_json
        report = result.failure_report
        assert report is not None
        # Seeded rate 0.35 over 4 chunks: this fixed seed disturbs at
        # least one chunk in every cell, so recovery actually ran
        # (slow chunks recover by simply finishing -- no event).
        if event_kind is not None:
            assert report.count(event_kind) >= 1, report.to_dict()

    def test_chaos_forces_supervision_even_serially(self, oracle_json):
        result = run_campaign(
            workers=1, chunk_size=CHUNK,
            chaos=ChaosSpec(seed=7, crash=0.35), policy=FAST)
        assert result.failure_report is not None
        assert result.report_json() == oracle_json

    def test_crash_poison_storm_recovers(self, oracle_json):
        # Regression: a poisoned chunk's retry used to be resubmitted
        # into a pool that a concurrent crash had just broken, and
        # the whole campaign died with BrokenProcessPool.  Every
        # chunk's first attempt is disturbed here (rates sum to 1),
        # coin-flipping between the two kinds across 12 chunks.
        result = run_campaign(
            workers=2, chunk_size=1, policy=FAST,
            chaos=ChaosSpec(seed=3, crash=0.5, poison=0.5))
        assert result.report_json() == oracle_json
        assert result.failure_report.count("crash") >= 1
        assert result.failure_report.count("error") >= 1

    def test_mixed_chaos_with_store_locks(self, oracle_json, tmp_path):
        store = QualificationStore(tmp_path / "chaos.sqlite")
        result = run_campaign(
            workers=2, chunk_size=CHUNK, store=store, policy=FAST,
            chaos="crash=0.2,poison=0.2,lock=0.5,seed=11")
        assert result.report_json() == oracle_json
        assert store.session_write_retries >= 1
        assert store._lock_chaos is None  # seam cleared after the run
        # Every fault's row and the job row landed despite the chaos.
        assert len(store) == len(FAULTS) + 1
        # The disturbed store is a perfectly warm cache afterwards.
        warm = run_campaign(workers=1, store=store)
        assert warm.report_json() == oracle_json
        assert warm.store_hits == 1 and warm.store_misses == 0
        store.close()

    def test_failure_report_serialized_not_in_report_json(self):
        result = run_campaign(
            workers=2, chunk_size=CHUNK,
            chaos=ChaosSpec(seed=7, poison=0.35), policy=FAST)
        as_dict = result.to_dict()
        assert as_dict["failure_report"]["errors"] >= 1
        assert "failure_report" not in json.loads(result.report_json())
        assert "recovery event" in result.summary()


# ----------------------------------------------------------------------
# Chunk-level checkpoint/resume: a killed campaign re-simulates
# nothing it already finished
# ----------------------------------------------------------------------
class TestChunkResume:
    def test_kill_mid_campaign_resumes_at_chunk_level(self, tmp_path):
        oracle = run_campaign()
        store = QualificationStore(tmp_path / "resume.sqlite")
        real_put_many = store.put_many
        checkpoints = []

        def exploding_put_many(rows):
            if len(checkpoints) == 2:
                raise KeyboardInterrupt("simulated kill")
            real_put_many(rows)
            checkpoints.append(rows)

        store.put_many = exploding_put_many
        with pytest.raises(KeyboardInterrupt):
            CoverageCampaign(
                TEST, {"FL2": FAULTS}, memory_sizes=[3], workers=2,
                chunk_size=CHUNK, store=store, policy=FAST).run()
        store.put_many = real_put_many
        # Two of the four chunks were checkpointed before the kill,
        # one row per fault; the job row never landed.
        assert len(store) == 2 * CHUNK
        stored = [fault_row_key(fault) in store for fault in FAULTS]
        assert sum(stored) == 2 * CHUNK

        resumed = CoverageCampaign(
            TEST, {"FL2": FAULTS}, memory_sizes=[3], workers=4,
            chunk_size=CHUNK, store=store, policy=FAST).run()
        assert resumed.report_json() == oracle.report_json()
        # Under another worker count, exactly the faults without a
        # row were simulated: each one's own contexts, nothing more.
        assert resumed.contexts_executed == sum(
            contexts for (_, contexts), done
            in zip(fault_outcomes(TEST, FAULTS, 3), stored)
            if not done)
        assert 0 < resumed.contexts_executed \
            < oracle.contexts_executed
        # The resumed run completed the job-level row too: the next
        # run is a pure job-level hit with zero simulation.
        warm = run_campaign(workers=1, store=store)
        assert warm.store_hits == 1 and warm.store_misses == 0
        assert warm.contexts_executed == 0
        assert warm.report_json() == oracle.report_json()
        store.close()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_replays_fault_rows_under_any_worker_count(
            self, tmp_path, workers):
        # A 2-worker run's rows serve a resume at any worker count
        # once the job row is gone: every fault is replayed, none
        # simulated again.
        faults = list(fault_list_2())
        oracle = CoverageCampaign(
            TEST, {"FL2": faults}, memory_sizes=[3]).run()
        path = tmp_path / "run.sqlite"
        store = QualificationStore(path)
        first = CoverageCampaign(
            TEST, {"FL2": faults}, memory_sizes=[3], workers=2,
            store=store).run()
        assert first.contexts_executed == oracle.contexts_executed > 0
        store._conn.execute(
            "DELETE FROM qualifications WHERE key = ?",
            (qualification_key(
                TEST, faults, 3, 6, "straddle", 1, None),))
        store._conn.commit()
        store.close()
        copy = tmp_path / f"copy-{workers}.sqlite"
        shutil.copyfile(path, copy)
        with QualificationStore(copy) as resumed_store:
            resumed = CoverageCampaign(
                TEST, {"FL2": faults}, memory_sizes=[3],
                workers=workers, store=resumed_store).run()
        assert resumed.store_misses == 1
        assert resumed.report_json() == oracle.report_json()
        assert resumed.contexts_executed == 0

    def test_chunk_partition_change_still_correct(self, tmp_path):
        # Checkpoints are per fault, so a different chunk_size cannot
        # change what a resume finds; it must still reach oracle bytes.
        oracle = run_campaign()
        store = QualificationStore(tmp_path / "partition.sqlite")
        first = run_campaign(workers=2, chunk_size=CHUNK, store=store)
        assert first.report_json() == oracle.report_json()
        again = CoverageCampaign(
            TEST, {"FL2": FAULTS}, memory_sizes=[3], workers=2,
            chunk_size=CHUNK + 2, store=store).run()
        # Job-level row exists, so this is served without chunking.
        assert again.store_hits == 1
        assert again.report_json() == oracle.report_json()
        store.close()


# ----------------------------------------------------------------------
# The dictionary build shares the same recovery ladder
# ----------------------------------------------------------------------
class TestDictionaryChaos:
    def test_chaotic_build_matches_serial_oracle(self, tmp_path):
        oracle = build_dictionary(TEST, FAULTS, memory_size=3)
        store = QualificationStore(tmp_path / "dict.sqlite")
        disturbed = build_dictionary(
            TEST, FAULTS, memory_size=3, workers=2, store=store,
            policy=FAST, chaos="crash=0.25,poison=0.25,lock=0.3,seed=5")
        assert disturbed.to_json() == oracle.to_json()
        assert disturbed.failure_report is not None
        # Every fault's signature row landed despite the chaos.
        assert len(store) == len(FAULTS)
        # The disturbed build checkpointed every fault: a warm
        # rebuild simulates nothing and matches byte-for-byte.
        warm = build_dictionary(
            TEST, FAULTS, memory_size=3, store=store)
        assert warm.simulated_runs == 0
        assert warm.to_json() == oracle.to_json()
        store.close()

    def test_serial_build_has_no_failure_report(self):
        assert build_dictionary(
            TEST, FAULTS[:2], memory_size=3).failure_report is None

"""Supervised execution layer (``repro.sim.supervisor``).

Unit-level guarantees of the recovery ladder, exercised with toy
picklable workers (see ``harness.py``) so each failure mode is
isolated: result ordering, bounded retry with deterministic backoff,
worker-crash respawn that keeps completed results, hung-chunk timeout
recovery, degradation to fallback arguments and to in-process serial
execution, and the typed :class:`CampaignExecutionError` once every
rung is exhausted.  The campaign/chaos suites prove the same ladder
end-to-end on real qualification work.
"""

import threading

import pytest

from repro.sim.supervisor import (
    CampaignExecutionError,
    FailureEvent,
    FailureReport,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
)

from harness import (
    toy_crash_until,
    toy_fail_until,
    toy_hang_until,
    toy_require_flag,
    toy_sleep,
    toy_square,
)

#: No backoff sleeps -- retries should be instant under test.
FAST = SupervisorPolicy(backoff_base=0.0)


def squares(count):
    return [
        SupervisedTask(f"square {x}", toy_square, (x,))
        for x in range(count)
    ]


class TestSupervisorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            SupervisorPolicy(timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            SupervisorPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="degrade_serial_after"):
            SupervisorPolicy(degrade_serial_after=0)
        with pytest.raises(ValueError, match="degrade_backend_after"):
            SupervisorPolicy(degrade_backend_after=0)

    def test_backoff_deterministic_and_bounded(self):
        policy = SupervisorPolicy(backoff_base=0.05, backoff_cap=0.4)
        first = policy.backoff("chunk A", 1)
        assert first == policy.backoff("chunk A", 1)
        assert first != policy.backoff("chunk A", 2)
        assert first != policy.backoff("chunk B", 1)
        for attempt in range(10):
            delay = policy.backoff("chunk A", attempt)
            # Jitter spans [0.5x, 1.5x] of the capped exponential.
            assert 0.0 <= delay <= 0.4 * 1.5

    def test_backoff_zero_base(self):
        assert FAST.backoff("anything", 3) == 0.0

    def test_jitter_seed_changes_schedule(self):
        a = SupervisorPolicy(jitter_seed=0).backoff("chunk", 1)
        b = SupervisorPolicy(jitter_seed=1).backoff("chunk", 1)
        assert a != b


class TestFailureReport:
    def test_empty_report_is_falsy(self):
        report = FailureReport()
        assert not report
        assert len(report) == 0
        assert report.summary() == "no failures"
        assert report.to_dict()["events"] == []

    def test_counts_and_summary(self):
        report = FailureReport()
        report.record("crash", "chunk 1", 0, "died")
        report.record("retry", "chunk 1", 1)
        report.record("crash", "chunk 2", 0)
        assert report
        assert report.count("crash") == 2
        assert report.count("retry") == 1
        assert report.count("timeout") == 0
        assert "2 crash" in report.summary()
        as_dict = report.to_dict()
        assert as_dict["crashes"] == 2
        assert as_dict["retries"] == 1
        assert as_dict["events"][0] == {
            "kind": "crash", "label": "chunk 1", "attempt": 0,
            "detail": "died",
        }

    def test_event_describe(self):
        event = FailureEvent("timeout", "chunk 3", 1, "past budget")
        assert "timeout" in event.describe()
        assert "chunk 3" in event.describe()
        assert FailureEvent("crash", "c", 0).describe() \
            == "crash [c] attempt 0"


class TestSupervisorBasics:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            Supervisor(0)

    def test_empty_task_list(self):
        assert Supervisor(2, FAST).run([]) == []

    def test_results_in_task_order(self):
        # Later tasks finish first (descending sleep), results must
        # still come back in submission order.
        tasks = [
            SupervisedTask(f"sleep {x}", toy_sleep,
                           (x, 0.05 * (3 - x)))
            for x in range(4)
        ]
        assert Supervisor(2, FAST).run(tasks) == [0, 1, 2, 3]

    def test_clean_run_records_nothing(self):
        supervisor = Supervisor(2, FAST)
        assert supervisor.run(squares(5)) == [0, 1, 4, 9, 16]
        assert not supervisor.report

    def test_on_complete_fires_once_per_task(self):
        seen = []
        supervisor = Supervisor(2, FAST)
        supervisor.run(
            squares(5),
            on_complete=lambda task, result: seen.append(
                (task.label, result)))
        assert sorted(seen) == [
            (f"square {x}", x * x) for x in range(5)]


class TestPoolLifecycle:
    @pytest.mark.parametrize("crash", [False, True],
                             ids=["clean", "respawned"])
    def test_no_pool_thread_outlives_the_run(self, tmp_path, crash):
        # The next pool is forked from this process; a retired pool's
        # manager or queue-feeder thread still running at that moment
        # is the fork-with-threads hazard that can deadlock a child.
        tasks = squares(3)
        if crash:
            tasks.append(SupervisedTask(
                "crasher", toy_crash_until,
                (7, str(tmp_path / "crash"), 1)))
        before = set(threading.enumerate())
        supervisor = Supervisor(2, FAST)
        assert supervisor.run(tasks)[:3] == [0, 1, 4]
        assert (supervisor.report.count("respawn") >= 1) == crash
        assert set(threading.enumerate()) <= before


class TestRecovery:
    def test_crash_respawns_and_retries(self, tmp_path):
        marker = str(tmp_path / "crash")
        tasks = squares(3) + [SupervisedTask(
            "crasher", toy_crash_until, (7, marker, 1))]
        supervisor = Supervisor(2, FAST)
        assert supervisor.run(tasks) == [0, 1, 4, 7]
        report = supervisor.report
        assert report.count("crash") >= 1
        assert report.count("respawn") >= 1
        assert any(event.label == "crasher" for event in report.events
                   if event.kind == "crash")

    def test_completed_results_survive_a_crash(self, tmp_path):
        # The crasher dies *after* other tasks completed; their
        # results and completion callbacks must not be replayed.
        marker = str(tmp_path / "crash")
        completions = []
        tasks = squares(4) + [SupervisedTask(
            "crasher", toy_crash_until, (9, marker, 1))]
        supervisor = Supervisor(1, FAST)
        results = supervisor.run(
            tasks,
            on_complete=lambda task, result: completions.append(
                task.label))
        assert results == [0, 1, 4, 9, 9]
        assert sorted(completions) == sorted(
            task.label for task in tasks)

    def test_transient_error_is_retried(self, tmp_path):
        marker = str(tmp_path / "flaky")
        tasks = [SupervisedTask(
            "flaky", toy_fail_until, (5, marker, 1))]
        supervisor = Supervisor(2, FAST)
        assert supervisor.run(tasks) == [5]
        assert supervisor.report.count("error") == 1
        assert supervisor.report.count("retry") == 1
        detail = supervisor.report.events[0].detail
        assert "RuntimeError" in detail

    def test_hang_hits_timeout_and_recovers(self, tmp_path):
        marker = str(tmp_path / "hang")
        policy = SupervisorPolicy(timeout=0.75, backoff_base=0.0)
        tasks = [SupervisedTask(
            "hanger", toy_hang_until, (3, marker, 1, 30.0))]
        supervisor = Supervisor(1, policy)
        assert supervisor.run(tasks) == [3]
        assert supervisor.report.count("timeout") == 1
        assert supervisor.report.count("respawn") == 1

    def test_innocent_chunks_survive_a_timeout(self, tmp_path):
        # Chunks queued behind a hung worker must not take a timeout
        # strike: the budget measures a chunk's own execution, so
        # they are resubmitted silently after the pool respawn --
        # "queued 1", which the pool pre-dispatches, included.
        marker = str(tmp_path / "hang")
        policy = SupervisorPolicy(timeout=0.75, backoff_base=0.0)
        tasks = [SupervisedTask(
            "hanger", toy_hang_until, (3, marker, 1, 30.0))]
        tasks += [
            SupervisedTask(f"queued {x}", toy_sleep, (x, 0.05))
            for x in range(1, 4)
        ]
        supervisor = Supervisor(1, policy)
        assert supervisor.run(tasks) == [3, 1, 2, 3]
        assert not [event.describe() for event in supervisor.report.events
                    if event.label.startswith("queued")]

    def test_budget_excludes_the_wait_behind_a_busy_worker(self):
        # One worker: the second chunk waits 0.6 s (pre-dispatched,
        # so the pool reports it running), then runs 0.6 s -- within
        # its 1 s budget, though 1.2 s after its submission.
        policy = SupervisorPolicy(timeout=1.0, backoff_base=0.0)
        tasks = [SupervisedTask(f"chunk {x}", toy_sleep, (x, 0.6))
                 for x in range(2)]
        supervisor = Supervisor(1, policy)
        assert supervisor.run(tasks) == [0, 1]
        assert not supervisor.report, supervisor.report.summary()

    def test_degrades_to_fallback_arguments(self):
        tasks = [SupervisedTask(
            "needs fallback", toy_require_flag, (4, False),
            fallback_args=(4, True))]
        supervisor = Supervisor(2, FAST)
        assert supervisor.run(tasks) == [4]
        assert supervisor.report.count("degrade-backend") == 1

    def test_degrades_to_in_process_serial(self, tmp_path):
        # Two pool attempts fail; the in-process rung succeeds.
        marker = str(tmp_path / "stubborn")
        policy = SupervisorPolicy(
            backoff_base=0.0, max_retries=1, degrade_serial_after=5)
        tasks = [SupervisedTask(
            "stubborn", toy_fail_until, (6, marker, 2))]
        supervisor = Supervisor(2, policy)
        assert supervisor.run(tasks) == [6]
        assert supervisor.report.count("degrade-serial") == 1

    def test_exhausted_ladder_raises_typed_error(self):
        policy = SupervisorPolicy(
            backoff_base=0.0, max_retries=0, degrade_serial_after=1)
        tasks = [SupervisedTask(
            "doomed chunk", toy_require_flag, (1, False))]
        with pytest.raises(CampaignExecutionError) as excinfo:
            Supervisor(1, policy).run(tasks)
        assert "doomed chunk" in str(excinfo.value)
        assert "RuntimeError" in str(excinfo.value)
        assert excinfo.value.label == "doomed chunk"

    def test_degraded_tasks_still_checkpoint(self, tmp_path):
        marker = str(tmp_path / "late")
        policy = SupervisorPolicy(
            backoff_base=0.0, max_retries=0, degrade_serial_after=1)
        completions = []
        tasks = [SupervisedTask(
            "late bloomer", toy_fail_until, (2, marker, 1))]
        results = Supervisor(1, policy).run(
            tasks,
            on_complete=lambda task, result: completions.append(
                task.label))
        assert results == [2]
        assert completions == ["late bloomer"]

"""Qualification-as-a-service: JobSpec/JobRunner + the HTTP API.

The acceptance surface of the service issue:

* one :class:`JobSpec` constructed by every surface, with singular
  aliases, unknown-field rejection and a :meth:`job_key` that ignores
  execution knobs (backend/workers/timeout/chaos) -- the coalescing
  currency;
* validation errors whose one-line text is byte-equal across the CLI
  (``SystemExit``), the spec (``ValueError``) and HTTP (400 body);
* :class:`JobRunner` results byte-identical to the CLI artifacts
  (``campaign --report-json``, ``dictionary --json``,
  ``fleet --report-json``);
* request coalescing: N identical submissions execute once, distinct
  jobs do not coalesce, and a warm store serves a job with zero
  simulations;
* the bounded priority queue, per-client token-bucket rate limiting,
  and the ``repro-march serve`` subcommand end to end.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.service.server as server_module
from repro.cli import main
from repro.diagnosis import load_fleet_spec
from repro.service import (
    JobRunner,
    JobSpec,
    QualificationService,
    QueueFull,
    RateLimited,
    ServiceClient,
    ServiceError,
    TokenBucket,
    fleet_document_text,
    start_service,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FLEET_DEMO = REPO_ROOT / "examples" / "fleet_demo.json"

#: A small, fast, fully-covered job (24 single-cell LFs) reused
#: across tests.
SMALL_JOB = {"kind": "campaign", "tests": ["March SL"],
             "fault_lists": ["lf1"]}


def small_spec(**overrides) -> JobSpec:
    return JobSpec.from_dict({**SMALL_JOB, **overrides})


@pytest.fixture
def clock(monkeypatch):
    """A settable monotonic clock seen by ``repro.service.server`` only.

    The module's ``time`` binding is replaced, not ``time.monotonic``
    itself, so every other thread in the process keeps the real clock.
    """
    now = [0.0]
    monkeypatch.setattr(server_module, "time", SimpleNamespace(
        monotonic=lambda: now[0], time=time.time, sleep=time.sleep))
    return now


# ----------------------------------------------------------------------
# JobSpec: aliases, validation, content addressing
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_singular_aliases(self):
        spec = JobSpec.from_dict({
            "kind": "dictionary", "test": "March C-",
            "fault_list": "2", "size": 4, "lf3_layout": "all"})
        assert spec.tests == ("March C-",)
        assert spec.fault_lists == ("2",)
        assert spec.memory_sizes == (4,)
        assert spec.lf3_layouts == ("all",)

    def test_scalars_promote_to_lists(self):
        spec = JobSpec.from_dict(
            {"tests": "March SL", "sizes": 4, "fault_lists": "2"})
        assert spec.tests == ("March SL",)
        assert spec.memory_sizes == (4,)

    def test_test_and_notation_merge(self):
        spec = JobSpec.from_dict(
            {"test": "March SL", "notation": "c(w0) c(r0,w1) c(r1)"})
        assert len(spec.tests) == 2

    def test_round_trips_via_to_dict(self):
        spec = small_spec(sizes=[3, 4], workers=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown job spec field 'sise'"):
            JobSpec.from_dict({**SMALL_JOB, "sise": 4})

    def test_huge_unknown_field_is_quoted_short(self):
        with pytest.raises(ValueError) as error:
            JobSpec.from_dict({**SMALL_JOB, "x" * 100_000: 4})
        assert len(str(error.value)) < 1024
        assert "(100000 characters)" in str(error.value)

    def test_huge_unknown_fault_list_is_quoted_short(self):
        with pytest.raises(ValueError) as error:
            JobSpec.from_dict({**SMALL_JOB, "fault_lists": ["z" * 100_000]})
        assert len(str(error.value)) < 1024
        assert str(error.value).startswith("unknown fault list 'zzz")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.from_dict({"kind": "coverage"})

    def test_key_ignores_execution_knobs(self):
        base = small_spec()
        for overrides in ({"backend": "dense"}, {"workers": 4},
                          {"timeout": 30}, {"chaos": "seed=7"}):
            assert small_spec(**overrides).job_key() == base.job_key()

    def test_key_tracks_report_material(self):
        base = small_spec()
        for overrides in ({"sizes": [4]}, {"fault_lists": ["2"]},
                          {"tests": ["March C-"]},
                          {"lf3_layout": "all"}):
            assert small_spec(**overrides).job_key() != base.job_key()

    def test_key_is_stable_across_processes(self):
        # The id is a content address, not a session counter: a
        # fresh interpreter derives the same one.
        script = (
            "import sys, json; sys.path.insert(0, sys.argv[1]); "
            "from repro.service import JobSpec; "
            f"print(JobSpec.from_dict({SMALL_JOB!r}).job_id)")
        out = subprocess.run(
            [sys.executable, "-c", script, str(REPO_ROOT / "src")],
            check=True, capture_output=True, text=True)
        assert out.stdout.strip() == small_spec().job_id

    def test_fleet_rejects_job_level_geometry(self):
        document = json.loads(FLEET_DEMO.read_text())
        with pytest.raises(ValueError,
                           match="instance geometry comes from"):
            JobSpec.from_dict(
                {"kind": "fleet", "fleet": document, "width": 2})

    def test_fleet_inline_document_supplies_defaults(self):
        document = json.loads(FLEET_DEMO.read_text())
        spec = JobSpec.from_dict({"kind": "fleet", "fleet": document})
        assert spec.tests == ("March C-",)
        assert spec.fault_lists == ("2",)
        assert spec.fleet == fleet_document_text(
            load_fleet_spec(str(FLEET_DEMO)))


# ----------------------------------------------------------------------
# Error-text parity: CLI exit == spec ValueError (== HTTP 400 below)
# ----------------------------------------------------------------------

PARITY_CASES = [
    (["campaign", "--tests", "March SL", "--fault-lists", "zz"],
     {"tests": ["March SL"], "fault_lists": ["zz"]}),
    (["campaign", "--tests", "March SL", "--sizes", "1"],
     {"tests": ["March SL"], "sizes": [1]}),
    (["campaign", "--tests", "March SL", "--backend", "bogus"],
     {"tests": ["March SL"], "backend": "bogus"}),
    (["campaign", "--tests", "March SL", "--width", "0"],
     {"tests": ["March SL"], "width": 0}),
    (["campaign", "--tests", "March SL", "--shard", "9/2"],
     {"tests": ["March SL"], "shard": [9, 2]}),
    (["dictionary", "not a march", "--fault-list", "2"],
     {"kind": "dictionary", "test": "not a march",
      "fault_list": "2"}),
]


class TestErrorTextParity:
    @pytest.mark.parametrize(
        "argv,document", PARITY_CASES,
        ids=[" ".join(argv[:2]) + "/" + argv[-1]
             for argv, _ in PARITY_CASES])
    def test_cli_and_spec_texts_are_byte_equal(self, argv, document):
        with pytest.raises(SystemExit) as cli_error:
            main(argv)
        with pytest.raises(ValueError) as spec_error:
            JobSpec.from_dict(document)
        assert str(spec_error.value) == str(cli_error.value)
        assert "\n" not in str(spec_error.value)


# ----------------------------------------------------------------------
# JobRunner: byte-identity with the CLI artifacts
# ----------------------------------------------------------------------

class TestRunnerByteIdentity:
    def test_campaign_report(self, tmp_path):
        path = tmp_path / "campaign.json"
        main(["campaign", "--tests", "March SL", "--fault-lists",
              "lf1", "--report-json", str(path)])
        outcome = JobRunner().run(small_spec())
        assert outcome.report_bytes == path.read_bytes()
        assert outcome.simulations > 0

    def test_dictionary_json(self, tmp_path):
        path = tmp_path / "dictionary.json"
        assert main(["dictionary", "March C-", "--fault-list", "lf1",
                     "--json", str(path)]) == 0
        outcome = JobRunner().run(JobSpec.from_dict(
            {"kind": "dictionary", "test": "March C-",
             "fault_list": "lf1"}))
        assert outcome.report_bytes == path.read_bytes()

    def test_fleet_report(self, tmp_path):
        path = tmp_path / "fleet.json"
        main(["fleet", str(FLEET_DEMO), "--report-json", str(path)])
        outcome = JobRunner().run(JobSpec.from_dict({
            "kind": "fleet",
            "fleet": json.loads(FLEET_DEMO.read_text())}))
        assert outcome.report_bytes == path.read_bytes()


# ----------------------------------------------------------------------
# Coalescing through the content-addressed store
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_identical_submissions_execute_once(self, tmp_path):
        service = QualificationService(
            str(tmp_path / "q.sqlite"), autostart=False)
        records = [service.submit(dict(SMALL_JOB))[0]
                   for _ in range(5)]
        assert len({record.job_id for record in records}) == 1
        service.start()
        assert records[0].done.wait(timeout=120)
        service.stop()
        assert records[0].status == "done", records[0].error
        metrics = service.metrics()
        assert metrics["jobs_submitted"] == 5
        assert metrics["jobs_coalesced"] == 4
        assert metrics["jobs_executed"] == 1
        assert records[0].result.simulations > 0

    def test_concurrent_submissions_share_one_record(self, tmp_path):
        service = QualificationService(
            str(tmp_path / "q.sqlite"), job_workers=2)
        results = []

        def submit():
            results.append(service.submit(dict(SMALL_JOB))[0])

        threads = [threading.Thread(target=submit)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({record.job_id for record in results}) == 1
        assert results[0].done.wait(timeout=120)
        service.stop()
        assert results[0].status == "done", results[0].error
        assert service.metrics()["jobs_executed"] == 1

    def test_distinct_jobs_do_not_coalesce(self, tmp_path):
        service = QualificationService(
            str(tmp_path / "q.sqlite"), autostart=False)
        first, _ = service.submit(dict(SMALL_JOB))
        second, coalesced = service.submit(
            {**SMALL_JOB, "sizes": [4]})
        assert not coalesced
        assert first.job_id != second.job_id
        service.start()
        assert first.done.wait(timeout=120)
        assert second.done.wait(timeout=120)
        service.stop()
        for record in (first, second):
            assert record.status == "done", record.error
        assert service.metrics()["jobs_executed"] == 2

    def test_warm_store_serves_with_zero_simulations(self, tmp_path):
        store = str(tmp_path / "q.sqlite")
        cold = QualificationService(store)
        record, _ = cold.submit(dict(SMALL_JOB))
        assert record.done.wait(timeout=120)
        cold.stop()
        assert record.status == "done", record.error
        assert record.result.store_misses > 0

        warm = QualificationService(store)
        rerun, coalesced = warm.submit(dict(SMALL_JOB))
        assert not coalesced  # fresh service: new record, warm rows
        assert rerun.done.wait(timeout=120)
        warm.stop()
        assert rerun.status == "done", rerun.error
        assert rerun.result.simulations == 0
        assert rerun.result.store_misses == 0
        assert rerun.result.store_hits > 0
        assert rerun.result.report_bytes == record.result.report_bytes

    def test_failed_job_does_not_poison_its_key(self, monkeypatch):
        calls = []

        class FailsOnce(JobRunner):
            def run(self, spec):
                calls.append(spec.job_id)
                if len(calls) == 1:
                    raise RuntimeError("transient failure")
                return super().run(spec)

        monkeypatch.setattr(server_module, "JobRunner", FailsOnce)
        service = QualificationService()
        failed, _ = service.submit(dict(SMALL_JOB))
        assert failed.done.wait(timeout=120)
        assert failed.status == "failed"
        retry, coalesced = service.submit(dict(SMALL_JOB))
        assert not coalesced
        assert retry.job_id == failed.job_id
        assert retry.done.wait(timeout=120)
        service.stop()
        assert retry.status == "done", retry.error
        assert service.job(retry.job_id) is retry
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Queue bound, priority order, rate limiting
# ----------------------------------------------------------------------

class TestQueueAndLimits:
    def test_queue_bound_rejects_new_jobs_only(self):
        service = QualificationService(
            queue_size=2, autostart=False)
        service.submit(dict(SMALL_JOB))
        service.submit({**SMALL_JOB, "sizes": [4]})
        with pytest.raises(QueueFull, match="queue is full"):
            service.submit({**SMALL_JOB, "sizes": [5]})
        # Duplicates coalesce onto queued records -- never rejected.
        _, coalesced = service.submit(dict(SMALL_JOB))
        assert coalesced
        assert service.metrics()["rejected_queue_full"] == 1

    def test_higher_priority_runs_first(self):
        service = QualificationService(autostart=False)
        low, _ = service.submit({**SMALL_JOB, "priority": 0})
        high, _ = service.submit(
            {**SMALL_JOB, "sizes": [4], "priority": 5})
        assert service._next() is high
        assert service._next() is low

    def test_priority_must_be_an_integer(self):
        service = QualificationService(autostart=False)
        with pytest.raises(ValueError, match="'priority' must be"):
            service.submit({**SMALL_JOB, "priority": "urgent"})

    def test_rate_limit_is_per_client(self):
        service = QualificationService(
            rate=0.0, burst=1, autostart=False)
        service.submit(dict(SMALL_JOB), client="a")
        with pytest.raises(RateLimited, match="client 'a'"):
            service.submit(dict(SMALL_JOB), client="a")
        service.submit(dict(SMALL_JOB), client="b")  # unaffected
        assert service.metrics()["rejected_rate_limited"] == 1

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.allow("c")
        assert not bucket.allow("c")
        time.sleep(0.01)
        assert bucket.allow("c")

    def test_token_bucket_forgets_refilled_clients(self, clock):
        bucket = TokenBucket(rate=2.0, burst=3)
        assert all(bucket.allow(f"client{i}") for i in range(1000))
        clock[0] = 3 / 2.0 + 0.01  # past burst / rate
        assert bucket.allow("late")
        assert list(bucket._buckets) == ["late"]

    def test_token_bucket_sweep_keeps_decisions(self, clock):
        rng = random.Random(7)
        swept = TokenBucket(rate=2.0, burst=2)
        reference = TokenBucket(rate=2.0, burst=2)
        reference._swept_at = math.inf  # never due: keeps every bucket
        decisions = []
        shrunk = False
        for _ in range(500):
            clock[0] += rng.choice((0.0, 0.0, 0.05, 0.3, 1.5))
            client = f"c{rng.randrange(6)}"
            decisions.append(swept.allow(client))
            assert decisions[-1] == reference.allow(client)
            shrunk |= len(swept._buckets) < len(reference._buckets)
        assert True in decisions and False in decisions
        assert shrunk

    def test_token_bucket_without_refill_keeps_buckets(self, clock):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert bucket.allow("a")
        clock[0] = 1e6
        assert not bucket.allow("a")
        assert len(bucket._buckets) == 1

    def test_invalid_submission_counts_and_raises(self):
        service = QualificationService(autostart=False)
        with pytest.raises(ValueError, match="unknown fault list"):
            service.submit({**SMALL_JOB, "fault_lists": ["zz"]})
        assert service.metrics()["rejected_invalid"] == 1

    def test_service_clamps_sim_workers(self):
        service = QualificationService(
            sim_workers=2, autostart=False)
        record, _ = service.submit({**SMALL_JOB, "workers": 64})
        assert record.spec.workers == 2

    def test_client_chaos_needs_a_chaos_service(self):
        # chaos is not part of the job key: accepted, it would hang
        # (or crash) the job every identical clean POST coalesces on.
        service = QualificationService(autostart=False)
        with pytest.raises(ValueError, match="started with --chaos"):
            service.submit({**SMALL_JOB, "chaos": "hang=1.0,seed=1"})
        assert service.metrics()["rejected_invalid"] == 1
        assert service.health()["queue"]["depth"] == 0
        chaotic = QualificationService(chaos="seed=1", autostart=False)
        record, _ = chaotic.submit(
            {**SMALL_JOB, "chaos": "poison=0.5,seed=2"})
        assert record.spec.chaos == "poison=0.5,seed=2"

    def test_stop_fails_queued_jobs(self):
        service = QualificationService(autostart=False)
        record, _ = service.submit(dict(SMALL_JOB))
        service.stop()
        assert record.done.is_set()
        assert record.status == "failed"
        assert "stopped" in record.error
        assert "\n" not in record.error
        assert service.metrics()["jobs_failed"] == 1
        assert service.health()["queue"]["depth"] == 0
        # The key is free: a resubmission is a new record.
        again, coalesced = service.submit(dict(SMALL_JOB))
        assert not coalesced and again is not record


# ----------------------------------------------------------------------
# The HTTP surface
# ----------------------------------------------------------------------

@pytest.fixture(scope="class")
def served(request, tmp_path_factory):
    store = tmp_path_factory.mktemp("service") / "q.sqlite"
    handle = start_service(
        port=0, store_path=str(store), job_workers=2,
        rate=1000.0, burst=1000)
    request.cls.handle = handle
    request.cls.client = ServiceClient(handle.url, client_id="tests")
    yield handle
    handle.stop()


@pytest.mark.usefixtures("served")
class TestHTTP:
    def test_healthz(self):
        health = self.client.healthz()
        assert health["status"] == "ok"
        assert health["queue"]["workers"] == 2

    def test_submit_executes_and_serves_exact_bytes(self):
        document = self.client.submit(dict(SMALL_JOB))
        assert document["id"] == small_spec().job_id
        final = self.client.wait(document["id"], timeout=120)
        assert final["status"] == "done"
        assert final["ok"] is True
        local = JobRunner().run(small_spec())
        assert self.client.result_bytes(
            document["id"]) == local.report_bytes

    def test_bist_job_serves_the_cli_netlist(self, tmp_path):
        netlist = tmp_path / "netlist.json"
        assert main(["bist", "March C-", "--json", str(netlist)]) == 0
        document = self.client.submit(
            {"kind": "bist", "test": "March C-", "fault_list": "2"})
        final = self.client.wait(document["id"], timeout=120)
        assert final["status"] == "done", final
        assert self.client.result_bytes(document["id"]) \
            == netlist.read_bytes()

    def test_duplicate_post_coalesces(self):
        first = self.client.submit(dict(SMALL_JOB))
        again = self.client.submit(
            {**SMALL_JOB, "backend": "dense", "workers": 4})
        assert again["id"] == first["id"]
        assert again["coalesced"] >= 1

    def test_invalid_spec_is_the_cli_error_as_400(self):
        with pytest.raises(SystemExit) as cli_error:
            main(["campaign", "--tests", "March SL",
                  "--fault-lists", "zz"])
        with pytest.raises(ServiceError) as http_error:
            self.client.submit(
                {"tests": ["March SL"], "fault_lists": ["zz"]})
        assert http_error.value.status == 400
        assert http_error.value.message == str(cli_error.value)

    def test_huge_invalid_notation_is_a_short_400(self):
        # The error quotes a bounded excerpt of the input, not all of
        # it: the same text on the CLI and as the 400 body.
        notation = " ".join(["c(w0)"] * 10_000) + " x"
        with pytest.raises(SystemExit) as cli_error:
            main(["dictionary", notation, "--fault-list", "2"])
        request = urllib.request.Request(
            self.handle.url + "/jobs", data=json.dumps(
                {"kind": "dictionary", "test": notation,
                 "fault_list": "2"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        assert error.value.code == 400
        body = error.value.read()
        assert len(body) < 1024
        assert json.loads(body)["error"] == str(cli_error.value)

    def test_client_chaos_is_a_400(self):
        with pytest.raises(ServiceError) as error:
            self.client.submit({**SMALL_JOB, "chaos": "seed=1"})
        assert error.value.status == 400
        assert "--chaos" in error.value.message

    def test_malformed_body_is_a_400(self):
        request = urllib.request.Request(
            self.handle.url + "/jobs", data=b"{nope",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=10)
        assert error.value.code == 400
        body = json.loads(error.value.read().decode("utf-8"))
        assert body["error"].startswith("request body must be JSON")

    def test_unknown_job_is_a_404(self):
        with pytest.raises(ServiceError) as error:
            self.client.status("feedfacedeadbeef")
        assert error.value.status == 404

    def test_unknown_endpoint_is_a_404(self):
        with pytest.raises(ServiceError) as error:
            self.client._json("GET", "/nope")
        assert error.value.status == 404

    def test_store_stats(self):
        stats = self.client.store_stats()
        assert "metrics" in stats
        assert stats["store"] is None or "rows" in stats["store"]


class TestHTTPLoad:
    def test_duplicate_load_coalesces_and_submits_stay_fast(
            self, tmp_path):
        # Four clients each submit four distinct jobs: the twelve
        # duplicates coalesce onto four executions, each served byte-
        # identical to the local runner.  A submit is validation plus
        # hashing, never simulation, so even the slowest of the 16
        # (their p99) stays within 500 ms.
        documents = [{**SMALL_JOB, "sizes": [size]}
                     for size in (3, 4, 5, 6)]
        handle = start_service(
            port=0, store_path=str(tmp_path / "q.sqlite"),
            job_workers=2, rate=10_000.0, burst=10_000)
        latencies, errors = [], []

        def drive(worker):
            client = ServiceClient(handle.url, client_id=f"c{worker}")
            for document in documents:
                start = time.perf_counter()
                try:
                    client.submit(dict(document))
                except ServiceError as error:
                    errors.append(error)
                latencies.append(time.perf_counter() - start)

        try:
            threads = [threading.Thread(target=drive, args=(worker,))
                       for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors and len(latencies) == 16
            client = ServiceClient(handle.url, client_id="poll")
            for document in documents:
                spec = JobSpec.from_dict(document)
                final = client.wait(spec.job_id, timeout=120)
                assert final["status"] == "done", final
                assert client.result_bytes(spec.job_id) \
                    == JobRunner().run(spec).report_bytes
            metrics = handle.service.metrics()
        finally:
            handle.stop()
        assert metrics["jobs_executed"] == 4
        assert metrics["jobs_coalesced"] == 12
        assert metrics["jobs_failed"] == 0
        assert max(latencies) <= 0.5, latencies


class TestHTTPRateLimit:
    def test_429_after_burst(self):
        handle = start_service(port=0, rate=0.0, burst=1)
        try:
            client = ServiceClient(handle.url, client_id="hot")
            client.submit(dict(SMALL_JOB))
            with pytest.raises(ServiceError) as error:
                client.submit(dict(SMALL_JOB))
            assert error.value.status == 429
            assert "retry later" in error.value.message
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# The serve subcommand, end to end
# ----------------------------------------------------------------------

class TestServeSubcommand:
    def test_serve_round_trip(self, tmp_path):
        info_path = tmp_path / "info.json"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--json", str(info_path),
             "--store", str(tmp_path / "q.sqlite")],
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while not info_path.exists() \
                    and time.monotonic() < deadline:
                assert process.poll() is None, \
                    process.stderr.read().decode()
                time.sleep(0.05)
            info = json.loads(info_path.read_text())
            assert info["pid"] == process.pid
            client = ServiceClient(info["url"], client_id="smoke")
            document = client.submit(dict(SMALL_JOB))
            final = client.wait(document["id"], timeout=120)
            assert final["status"] == "done"
            assert client.result_bytes(document["id"]) \
                == JobRunner().run(small_spec()).report_bytes
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

"""Self-test of the benchmark at small sizes (under a minute).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs with the same checks as the benchmark, untraced
and traced, and the traced outputs must equal the untraced ones byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _outputs(ops):
    return [(op["kind"], op["id"], op["output"]) for op in ops]


class TestPlans(unittest.TestCase):
    def test_seed_changes_order_not_work(self):
        def multiset(streams):
            return [sorted((cls, workloads.spec_key(spec))
                           for cls, spec in stream) for stream in streams]

        first = workloads.service_streams(1)
        second = workloads.service_streams(2)
        self.assertNotEqual(first, second)
        self.assertEqual(multiset(first), multiset(second))
        plan = workloads.qualify_plan(4, 1)
        other = workloads.qualify_plan(4, 2)
        self.assertNotEqual(plan, other)
        self.assertEqual(sorted(plan), sorted(other))
        self.assertEqual(len(plan), 4 * (len(workloads.CELL_KINDS) + 1))

    def test_streams_split_the_classes(self):
        light, heavy = workloads.service_streams(0)
        self.assertEqual({cls for cls, _ in heavy}, {"heavy", "repeat"})
        self.assertEqual({cls for cls, _ in light},
                         {"light", "overlap", "repeat", "invalid"})

    def test_anchors_precede_overlaps_and_repeats(self):
        for seed in range(5):
            for stream in workloads.service_streams(seed):
                fresh = {workloads.spec_key(spec): index
                         for index, (cls, spec) in enumerate(stream)
                         if cls in ("light", "heavy")}
                for index, (cls, spec) in enumerate(stream):
                    if cls == "repeat":
                        anchors = [spec]
                    elif cls == "overlap":
                        anchors = [{"kind": "campaign", "tests": [march],
                                    "fault_lists": spec["fault_lists"]}
                                   for march in spec["tests"]]
                    else:
                        continue
                    for anchor in anchors:
                        self.assertLess(
                            fresh[workloads.spec_key(anchor)], index)

    def test_service_classes_meet_the_percentile_rule(self):
        pool = workloads.service_pool()
        executed = len(pool["light"]) + len(pool["heavy"]) \
            + len(pool["overlap"])
        submissions = sum(len(jobs) for jobs in pool.values())
        self.assertGreaterEqual(executed, 100)
        self.assertGreaterEqual(len(pool["heavy"]) / submissions, 0.2)
        for jobs in (pool["light"], pool["heavy"]):
            self.assertGreaterEqual(run.percentile(
                [1.0] * len(jobs), 0.5)[2], 10)
        kinds = {}
        for spec in pool["light"] + pool["heavy"] + pool["overlap"]:
            kinds[spec["kind"]] = kinds.get(spec["kind"], 0) + 1
        self.assertTrue(all(count >= 21 for count in kinds.values()),
                        kinds)
        pins = workloads.load_pins()["service_mix"]
        for spec in pool["light"] + pool["heavy"] + pool["overlap"]:
            self.assertIn(workloads.spec_key(spec), pins)

    def test_non_finite_values_stay_valid_json(self):
        metrics = run.result_metrics(
            {"small_op_s": math.inf, "wall_s": 1.5},
            {"small_op_s": "s", "wall_s": "s"})
        self.assertEqual(json.loads(json.dumps(metrics, allow_nan=False)),
                         {"small_op_s": {"value": None, "unit": "s"},
                          "wall_s": {"value": 1.5, "unit": "s"}})

    def test_install_can_be_undone(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        from repro.core import generator, pruner
        from repro.service.jobs import JobSpec

        before = (pruner.prune_march, generator.prune_march,
                  JobSpec.__dict__["from_dict"])
        uninstall = tracing.install(tracing.Recorder())
        self.assertIsNot(generator.prune_march, before[1])
        uninstall()
        self.assertEqual((pruner.prune_march, generator.prune_march,
                          JobSpec.__dict__["from_dict"]), before)

    def test_paper_plan_splits_and_pairs_the_fl2_calls(self):
        def plan(trace):
            return worker._paper_plan(argparse.Namespace(
                trace=trace, leg="all", repeats=8))

        self.assertEqual(plan(None), [("fl2", False)] * 4
                         + [("fl1", False)] + [("fl2", False)] * 4)
        pattern = [True, False, False, True]
        self.assertEqual(plan("t.json"), [("fl2", t) for t in pattern]
                         + [("fl1", True)]
                         + [("fl2", t) for t in pattern])

    def test_percentile_counts_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(100)), 0.9),
                         (89, 100, 10))
        self.assertEqual(run.percentile(list(range(21)), 0.5),
                         (10, 21, 10))
        self.assertEqual(run.percentile([], 0.5), (0.0, 0, 0))


class TestWorkloadsSmall(unittest.TestCase):
    def test_paper_generate_fl2(self):
        outcome = run.compute_traced(
            "paper_generate", 0, run.Deadline(120),
            ["--leg", "fl2", "--repeats", "2"])
        self.assertEqual(outcome["failed"], 0)
        traced = outcome["record"]["ops"]
        untraced = outcome["record"]["reference_ops"]
        self.assertEqual(len(traced), 1)
        self.assertEqual(_outputs(traced), _outputs(untraced))
        metrics = outcome["metrics"]
        self.assertGreater(metrics["core.generator.probe_calls"], 0)
        self.assertGreater(metrics["core.pruner.guard_calls"], 0)
        self.assertGreater(metrics["sim.engine.element_runs"], 0)
        self.assertGreater(metrics["sim.campaign.final_qualify_s"], 0)
        self.assertGreater(metrics["core.generator.self_s"], 0)
        self.assertNotEqual(metrics["trace.overhead_frac"], 0)
        document = json.loads(
            (run.ROOT / outcome["record"]["trace"]).read_text())
        self.assertTrue(all(event["ph"] == "X"
                            for event in document["traceEvents"]))
        # One traced call: the untraced one left no span.
        generate = [event for event in document["traceEvents"]
                    if event["name"] == "core.generator.generate"]
        self.assertEqual(len(generate), 1)

    def test_qualify_sweep_two_marches(self):
        outcome = run.compute_traced(
            "qualify_sweep", 3, run.Deadline(120), ["--marches", "2"])
        self.assertEqual(outcome["failed"], 0)
        traced = _outputs(outcome["record"]["ops"])
        self.assertEqual(traced + traced,
                         _outputs(outcome["record"]["reference_ops"]))
        metrics = outcome["metrics"]
        for name in ("sim.campaign.cell_s.dense",
                     "sim.campaign.cell_s.bitpar",
                     "sim.bitpar.batch_calls",
                     "sim.sparse.element_kernel_calls",
                     "diagnosis.dictionary.signature_s"):
            self.assertGreater(metrics[name], 0, name)
        self.assertEqual(set(metrics), set(run.PER_LAYER))

    def test_service_dozen_jobs(self):
        pins = workloads.load_pins()["service_mix"]
        light, heavy = workloads.service_streams(4)
        streams = (light[:9], heavy[:3])
        jobs = light[:9] + heavy[:3]
        deadline = run.Deadline(120)
        trace = run._trace_path("selftest-service", 0)
        untraced = run._service_run(streams, pins, deadline)
        traced = run._service_run(streams, pins, deadline, trace)
        for outcome in (untraced, traced):
            failures = [r for r in outcome["records"] if not r["ok"]]
            self.assertEqual(failures, [])
        self.assertEqual(
            [(r["job"], r.get("sha256")) for r in untraced["records"]],
            [(r["job"], r.get("sha256")) for r in traced["records"]])
        document = json.loads(trace.read_text())
        metrics, samples = run.layer_metrics(
            document, [], traced["records"], traced["health"])
        valid = sum(1 for cls, _ in jobs if cls != "invalid")
        self.assertEqual(samples["service.client.submit_ms_p50"][0],
                         len(jobs))
        self.assertGreater(metrics["service.jobs.run_ms_p50"], 0)
        self.assertGreater(metrics["store.put_calls"], 0)
        jobs_run = {event["args"].get("job") for event
                    in document["traceEvents"]
                    if event["name"] == "service.jobs.run"}
        self.assertLessEqual(len(jobs_run), valid)
        # Every job_key call is the server's own, made inside submit;
        # labelling a JobRunner.run span with its job id adds none.
        spans = {event["args"]["span"]: event["name"]
                 for event in document["traceEvents"]}
        self.assertEqual(
            {spans.get(event["args"]["parent"])
             for event in document["traceEvents"]
             if event["name"] == "service.jobs.job_key"},
            {"service.server.submit"})


if __name__ == "__main__":
    unittest.main()

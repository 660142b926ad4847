"""Fleet-scale diagnosis (``repro.diagnosis.fleet``) and its plumbing.

The acceptance surface of the fleet issue:

* fleet spec parsing/validation and JSON/TOML loading;
* multi-geometry dictionary batching
  (:func:`repro.diagnosis.dictionary.build_dictionaries`) equal to
  per-geometry :func:`build_dictionary` calls, with the bulk store
  prefetch (:meth:`QualificationStore.get_many`) making warm fleet
  rebuilds zero-simulation;
* :func:`diagnose_fleet` on a >= 20-instance mixed-geometry FL#2
  fleet: every injected fault resolves to an ambiguity class
  containing the true fault, and the deterministic report is
  byte-identical across worker counts, backends, cold/warm stores and
  injected chaos;
* the resume/backend satellite fixes: shell-safe resume commands, the
  supervisor skipping the degrade-backend rung for chunks already on
  the dense reference kernel, crash-then-resume at fleet scale, and
  the deprecation hygiene of the old ``sim.sparse`` dispatch shims
  (:class:`TestShimHygiene`).
"""

import json
import re
import shlex
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

from repro.cli import _resume_command, main
from repro.diagnosis import (
    FleetInstance,
    FleetSpec,
    build_dictionaries,
    build_dictionary,
    diagnose_fleet,
    load_fleet_spec,
    parse_fleet_spec,
)
from repro.faults.lists import fault_list_2
from repro.march.known import known_march
from repro.sim.coverage import fault_name
from repro.sim.supervisor import (
    FailureReport,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
)
from repro.store import QualificationStore

from harness import best_seconds, toy_fail_until

MARCH_C = known_march("March C-").test
FL2 = fault_list_2()
FL2_NAMES = [fault_name(f) for f in FL2]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_SPEC = REPO_ROOT / "examples" / "fleet_demo.json"

#: No backoff sleeps -- supervised retries should be instant in tests.
FAST = SupervisorPolicy(backoff_base=0.0)


def small_fleet(failing=4):
    """A compact mixed-geometry fleet for identity tests."""
    instances = []
    for index in range(6):
        inject = FL2_NAMES[(5 * index) % len(FL2_NAMES)] \
            if index < failing else None
        instances.append(FleetInstance(
            instance_id=f"m{index}",
            memory_size=(4, 5)[index % 2],
            width=2 if index % 3 == 0 else 1,
            backgrounds="solid" if index % 3 == 0 else None,
            inject=inject,
            placement=index % 2 if inject else 0,
        ))
    return FleetSpec(name="small", instances=tuple(instances))


# ----------------------------------------------------------------------
# Spec parsing and loading
# ----------------------------------------------------------------------

class TestFleetSpec:
    def test_parse_minimal(self):
        spec = parse_fleet_spec({
            "name": "unit",
            "instances": [{"id": "a", "size": 4}],
        })
        assert spec.name == "unit"
        assert spec.instances[0].geometry() == (4, 1, None, "straddle")
        assert not spec.instances[0].failing
        assert spec.failing_instances == ()

    def test_parse_full_instance(self):
        spec = parse_fleet_spec({
            "name": "unit",
            "march": "March C-",
            "fault_list": "2",
            "instances": [{
                "id": "a", "size": 8, "width": 2,
                "backgrounds": ["01", "10"], "lf3_layout": "all",
                "inject": FL2_NAMES[0], "placement": 1,
            }],
        })
        instance = spec.instances[0]
        assert instance.geometry() == (8, 2, ("01", "10"), "all")
        assert instance.failing and instance.placement == 1
        assert spec.march == "March C-"
        assert spec.fault_list == "2"

    @pytest.mark.parametrize("data,match", [
        ([], "object"),
        ({"name": "", "instances": [{"id": "a", "size": 4}]}, "name"),
        ({"instances": []}, "non-empty 'instances'"),
        ({"instances": ["x"]}, "must be an object"),
        ({"instances": [{"size": 4}]}, "'id'"),
        ({"instances": [{"id": "a", "size": 4},
                        {"id": "a", "size": 5}]}, "duplicate"),
        ({"instances": [{"id": "a", "size": 0}]}, "'size'"),
        ({"instances": [{"id": "a", "size": True}]}, "'size'"),
        ({"instances": [{"id": "a", "size": 4, "width": 0}]},
         "'width'"),
        ({"instances": [{"id": "a", "size": 4,
                         "lf3_layout": "weird"}]}, "lf3_layout"),
        ({"instances": [{"id": "a", "size": 4, "inject": ""}]},
         "inject"),
        ({"instances": [{"id": "a", "size": 4, "placement": -1}]},
         "placement"),
        ({"instances": [{"id": "a", "size": 4}], "march": 3},
         "march"),
        ({"instances": [{"id": "a", "size": 4}], "fault_list": 3},
         "fault_list"),
    ])
    def test_parse_rejects(self, data, match):
        with pytest.raises(ValueError, match=match):
            parse_fleet_spec(data)

    def test_load_json(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "name": "disk",
            "instances": [{"id": "a", "size": 4}],
        }))
        assert load_fleet_spec(str(path)).name == "disk"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            load_fleet_spec(str(path))

    def test_load_toml(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(
            'name = "toml-fleet"\n'
            "[[instances]]\n"
            'id = "a"\n'
            "size = 4\n")
        if sys.version_info >= (3, 11):
            spec = load_fleet_spec(str(path))
            assert spec.name == "toml-fleet"
            assert spec.instances[0].memory_size == 4
        else:
            with pytest.raises(ValueError, match="tomllib"):
                load_fleet_spec(str(path))

    def test_demo_spec_is_valid_and_fleet_sized(self):
        spec = load_fleet_spec(str(DEMO_SPEC))
        assert len(spec.instances) >= 20
        assert len(spec.failing_instances) >= 10
        # Mixed geometries: the dictionary-sharing argument needs
        # fewer distinct geometries than instances, and more than one.
        distinct = set(spec.geometries())
        assert 1 < len(distinct) < len(spec.instances)


# ----------------------------------------------------------------------
# Multi-geometry dictionary batching
# ----------------------------------------------------------------------

class TestBuildDictionaries:
    def test_matches_single_geometry_builds(self):
        geometries = [(4, 1, None, "straddle"),
                      (5, 1, None, "straddle"),
                      (4, 2, "solid", "straddle")]
        batch = build_dictionaries(MARCH_C, FL2, geometries)
        for geometry, built in zip(geometries, batch):
            size, width, backgrounds, layout = geometry
            single = build_dictionary(
                MARCH_C, FL2, memory_size=size, width=width,
                backgrounds=backgrounds, lf3_layout=layout)
            assert built.to_json() == single.to_json()

    def test_duplicate_geometries_share_one_build(self):
        batch = build_dictionaries(
            MARCH_C, FL2,
            [(4, 1, None, "straddle"), (4, 1, None, "straddle")])
        assert batch[0] is batch[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="geometries"):
            build_dictionaries(MARCH_C, FL2, [])
        with pytest.raises(ValueError, match="backend"):
            build_dictionaries(
                MARCH_C, FL2, [(4, 1, None, "straddle")],
                backend="quantum")
        with pytest.raises(ValueError, match="workers"):
            build_dictionaries(
                MARCH_C, FL2, [(4, 1, None, "straddle")], workers=0)

    def test_warm_batch_is_zero_simulation(self):
        store = QualificationStore()
        geometries = [(4, 1, None, "straddle"),
                      (5, 1, None, "straddle")]
        cold = build_dictionaries(
            MARCH_C, FL2, geometries, store=store)
        warm = build_dictionaries(
            MARCH_C, FL2, geometries, store=store)
        assert all(d.simulated_runs > 0 for d in cold)
        assert all(d.simulated_runs == 0 for d in warm)
        assert all(d.store_hits == len(FL2) for d in warm)
        assert [c.to_json() for c in cold] == \
            [w.to_json() for w in warm]

    def test_parallel_batch_identical(self):
        geometries = [(4, 1, None, "straddle"),
                      (5, 1, None, "straddle")]
        serial = build_dictionaries(MARCH_C, FL2, geometries)
        parallel = build_dictionaries(
            MARCH_C, FL2, geometries, workers=3)
        assert [s.to_json() for s in serial] == \
            [p.to_json() for p in parallel]

    def test_get_many_counts_like_per_key_gets(self):
        store = QualificationStore()
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        found = store.get_many(["k1", "k2", "k3", "k1"])
        assert found == {"k1": {"v": 1}, "k2": {"v": 2}}
        # Duplicates collapse; hit/miss counters match per-key gets.
        assert store.session_hits == 2
        assert store.session_misses == 1


# ----------------------------------------------------------------------
# Fleet diagnosis
# ----------------------------------------------------------------------

class TestFleetDiagnosis:
    def test_acceptance_fleet_resolves_every_true_fault(self):
        # The issue's acceptance gate: >= 20 mixed-geometry instances,
        # FL#2 injections, every failing instance's class contains
        # its injected fault.
        spec = load_fleet_spec(str(DEMO_SPEC))
        report = diagnose_fleet(MARCH_C, FL2, spec)
        assert len(report.diagnoses) >= 20
        assert report.failing
        for diagnosis in report.failing:
            assert diagnosis.status == "diagnosed"
            assert diagnosis.contains_true_fault, \
                diagnosis.instance.instance_id
        assert report.all_diagnosed
        payload = report.report_dict()
        assert payload["all_diagnosed"] is True
        assert payload["true_fault_in_class"] == len(report.failing)
        assert 0.0 < payload["fleet_resolution"] <= 1.0
        assert payload["schedule"]["data_cycles"] > 0
        assert payload["schedule"]["interleaved_cycles"] >= \
            payload["schedule"]["data_cycles"]

    def test_report_identity_across_workers_and_backends(self):
        spec = small_fleet()
        baseline = diagnose_fleet(MARCH_C, FL2, spec)
        for kwargs in ({"workers": 4}, {"backend": "dense"},
                       {"backend": "sparse"}, {"backend": "bitpar"},
                       {"backend": "dense", "workers": 3}):
            other = diagnose_fleet(MARCH_C, FL2, spec, **kwargs)
            assert other.report_json() == baseline.report_json(), \
                kwargs

    def test_report_identity_cold_vs_warm(self):
        spec = small_fleet()
        store = QualificationStore()
        cold = diagnose_fleet(MARCH_C, FL2, spec, store=store)
        warm = diagnose_fleet(MARCH_C, FL2, spec, store=store)
        assert cold.simulated_runs > 0
        assert warm.simulated_runs == 0
        assert warm.report_json() == cold.report_json()
        # The full dict adds exactly the session counters.
        full = warm.to_dict()
        assert full["simulated_runs"] == 0
        assert full["store_hits"] > 0

    def test_warm_rebuild_is_2x_faster(self):
        spec = small_fleet()
        store = QualificationStore()
        cold = best_seconds(
            lambda: diagnose_fleet(MARCH_C, FL2, spec, store=store))
        warm = best_seconds(
            lambda: diagnose_fleet(MARCH_C, FL2, spec, store=store), 3)
        assert cold >= 2 * warm, f"warm {warm:.4f}s, cold {cold:.4f}s"

    def test_dictionary_sharing_across_instances(self):
        spec = small_fleet()
        report = diagnose_fleet(MARCH_C, FL2, spec)
        assert len(report.geometry_reports) < len(report.diagnoses)
        listed = [instance_id
                  for _, _, ids in report.geometry_reports
                  for instance_id in ids]
        assert sorted(listed) == sorted(
            d.instance.instance_id for d in report.diagnoses)

    def test_healthy_instances_are_not_diagnosed(self):
        spec = small_fleet(failing=2)
        report = diagnose_fleet(MARCH_C, FL2, spec)
        healthy = [d for d in report.diagnoses
                   if not d.instance.failing]
        assert healthy
        for diagnosis in healthy:
            assert diagnosis.status == "healthy"
            assert diagnosis.signature is None
            assert diagnosis.ambiguity is None

    def test_unknown_inject_rejected(self):
        spec = FleetSpec("bad", (FleetInstance(
            "a", 4, inject="no-such-fault"),))
        with pytest.raises(ValueError, match="no-such-fault"):
            diagnose_fleet(MARCH_C, FL2, spec)

    def test_out_of_range_placement_rejected(self):
        spec = FleetSpec("bad", (FleetInstance(
            "a", 4, inject=FL2_NAMES[0], placement=99),))
        with pytest.raises(ValueError, match="placement"):
            diagnose_fleet(MARCH_C, FL2, spec)

    def test_render_exposes_the_ci_grep_target(self):
        report = diagnose_fleet(MARCH_C, FL2, small_fleet())
        text = report.render()
        assert re.search(r"simulated runs: \d+$", text)
        assert "true fault in class" in text


# ----------------------------------------------------------------------
# Chaos and crash-resume at fleet scale
# ----------------------------------------------------------------------

class TestFleetRecovery:
    def test_chaos_report_byte_identical(self):
        spec = small_fleet()
        baseline = diagnose_fleet(MARCH_C, FL2, spec)
        disturbed = diagnose_fleet(
            MARCH_C, FL2, spec, workers=2, policy=FAST,
            chaos="crash=0.5,poison=0.5,seed=11")
        assert disturbed.report_json() == baseline.report_json()
        failure_report = disturbed.geometry_reports[0][0] \
            .failure_report
        assert failure_report is not None
        assert failure_report.count("crash") \
            + failure_report.count("error") > 0

    def test_crash_mid_build_then_resume(self, tmp_path):
        # A fleet build interrupted partway leaves completed rows in
        # the store (per-fault checkpoints); resuming with the same
        # store re-simulates only what is missing and reproduces the
        # uninterrupted report byte-for-byte.
        spec = small_fleet()
        path = str(tmp_path / "fleet.sqlite")
        baseline = diagnose_fleet(MARCH_C, FL2, spec)
        # "Interrupted" run: only part of the fleet got built.
        partial = FleetSpec(
            spec.name, spec.instances[:3], spec.march,
            spec.fault_list)
        diagnose_fleet(MARCH_C, FL2, partial, store=path)
        resumed = diagnose_fleet(MARCH_C, FL2, spec, store=path)
        assert resumed.store_hits > 0
        assert 0 < resumed.simulated_runs < baseline.simulated_runs
        assert resumed.report_json() == baseline.report_json()
        # Third pass: fully warm, zero simulations.
        warm = diagnose_fleet(MARCH_C, FL2, spec, store=path)
        assert warm.simulated_runs == 0
        assert warm.report_json() == baseline.report_json()


# ----------------------------------------------------------------------
# Supervisor: the degrade-backend rung on already-dense chunks
# ----------------------------------------------------------------------

class TestDenseRungSkipped:
    def test_error_without_fallback_skips_backend_rung(self, tmp_path):
        # A chunk already on the dense reference kernel has no
        # fallback arguments; an error must go straight to the
        # retry/serial rungs without a degrade-backend event.
        marker = tmp_path / "marker"
        report = FailureReport()
        results = Supervisor(2, FAST, report=report).run([
            SupervisedTask(
                "dense chunk", toy_fail_until, (7, str(marker), 1)),
        ])
        assert results == [7]
        assert report.count("degrade-backend") == 0
        assert report.count("error") == 1
        # The skipped rung burns no extra attempt: one retry, no
        # serial degradation.
        assert report.count("retry") == 1
        assert report.count("degrade-serial") == 0

    def test_same_failure_with_fallback_takes_backend_rung(
            self, tmp_path):
        # Contrast case: the identical failure signature on a chunk
        # *with* fallback arguments does fire the rung (and still
        # only one retry).
        marker = tmp_path / "marker"
        fallback_marker = tmp_path / "fallback"
        report = FailureReport()
        results = Supervisor(2, FAST, report=report).run([
            SupervisedTask(
                "sparse chunk", toy_fail_until, (7, str(marker), 9),
                fallback_args=(7, str(fallback_marker), 0)),
        ])
        assert results == [7]
        assert report.count("degrade-backend") == 1
        assert report.count("retry") == 1

    def test_backend_rung_fires_at_most_once(self, tmp_path):
        # A chunk that fails again after degrading must not record a
        # second degrade-backend event -- it is already on fallback.
        marker = tmp_path / "marker"
        report = FailureReport()
        results = Supervisor(2, FAST, report=report).run([
            SupervisedTask(
                "flaky chunk", toy_fail_until, (7, str(marker), 2),
                fallback_args=(7, str(marker), 2)),
        ])
        assert results == [7]
        assert report.count("degrade-backend") == 1

    def test_dense_dictionary_chaos_never_degrades_backend(self):
        baseline = build_dictionary(
            MARCH_C, FL2, memory_size=4, backend="dense")
        disturbed = build_dictionary(
            MARCH_C, FL2, memory_size=4, backend="dense", workers=2,
            policy=FAST, chaos="poison=1.0,seed=3")
        assert disturbed.to_json() == baseline.to_json()
        failure_report = disturbed.failure_report
        assert failure_report.count("error") > 0
        assert failure_report.count("degrade-backend") == 0

    def test_sparse_dictionary_chaos_does_degrade_backend(self):
        # The rung exists and fires when a fallback is available --
        # proving the dense case above skipped it rather than the
        # ladder being inert.
        baseline = build_dictionary(
            MARCH_C, FL2, memory_size=4, backend="dense")
        disturbed = build_dictionary(
            MARCH_C, FL2, memory_size=4, backend="sparse", workers=2,
            policy=FAST, chaos="poison=1.0,seed=3")
        assert disturbed.to_json() == baseline.to_json()
        assert disturbed.failure_report.count("degrade-backend") > 0


# ----------------------------------------------------------------------
# CLI: the fleet subcommand and the resume-command fix
# ----------------------------------------------------------------------

class TestFleetCli:
    def run_fleet(self, capsys, *extra):
        code = main(["fleet", str(DEMO_SPEC), *extra])
        return code, capsys.readouterr().out

    def test_cold_then_warm_cli_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "fleet.sqlite")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        code, out = self.run_fleet(
            capsys, "--store", store, "--report-json", str(first))
        assert code == 0
        assert "true fault in class" in out
        assert "simulated runs: 0" not in out
        for workers in ("1", "4"):
            code, out = self.run_fleet(
                capsys, "--store", store, "--workers", workers,
                "--report-json", str(second))
            assert code == 0
            assert "simulated runs: 0" in out
            assert first.read_bytes() == second.read_bytes()

    def test_full_json_and_verbose(self, tmp_path, capsys):
        path = tmp_path / "full.json"
        code, out = self.run_fleet(
            capsys, "--json", str(path), "--verbose")
        assert code == 0
        assert "geometry size" in out
        payload = json.loads(path.read_text())
        assert payload["all_diagnosed"] is True
        assert payload["simulated_runs"] > 0

    def test_resume_requires_existing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["fleet", str(DEMO_SPEC), "--resume"])
        with pytest.raises(SystemExit, match="does not exist"):
            main(["fleet", str(DEMO_SPEC), "--resume",
                  "--store", str(tmp_path / "missing.sqlite")])

    def test_bad_spec_and_missing_march_are_one_line_errors(
            self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["fleet", str(tmp_path / "absent.json")])
        no_march = tmp_path / "no_march.json"
        no_march.write_text(json.dumps({
            "instances": [{"id": "a", "size": 4}]}))
        with pytest.raises(SystemExit, match="no march test"):
            main(["fleet", str(no_march)])


class TestResumeCommandQuoting:
    def test_metacharacters_are_quoted(self):
        argv = ["fleet", "my spec.json",
                "--store", "store with spaces.sqlite",
                "--chaos", "crash=0.3,seed=7;echo pwned"]
        command = _resume_command(Namespace(_argv=list(argv)))
        # Round-trips through a POSIX shell into the original argv
        # plus --resume -- nothing is split or interpreted.
        assert shlex.split(command) == \
            ["repro-march"] + argv + ["--resume"]
        assert "'my spec.json'" in command

    def test_resume_flag_not_duplicated(self):
        argv = ["campaign", "--store", "q.sqlite", "--resume"]
        command = _resume_command(Namespace(_argv=list(argv)))
        assert command.count("--resume") == 1

    def test_empty_argv_still_resumable(self):
        command = _resume_command(Namespace(_argv=[]))
        assert command == "repro-march --resume"


# ----------------------------------------------------------------------
# Deleted dispatch shims: names gone + in-repo import hygiene
# ----------------------------------------------------------------------

class TestShimHygiene:
    SHIM_NAMES = ("BACKENDS", "resolve_backend", "make_memory",
                  "sparse_supported")

    def test_shims_are_gone(self):
        # The deprecation horizon named in the PR 6 warnings has
        # arrived: the old repro.sim.sparse dispatch names no longer
        # exist at all -- not even as warning stubs.
        from repro.sim import sparse

        for name in self.SHIM_NAMES:
            with pytest.raises(AttributeError):
                getattr(sparse, name)

    def test_package_namespace_is_clean(self):
        import repro.sim

        assert "BACKENDS" not in repro.sim.__all__
        assert "sparse_supported" not in repro.sim.__all__
        for name in ("BACKENDS", "sparse_supported"):
            with pytest.raises(AttributeError):
                getattr(repro.sim, name)

    def test_package_import_is_warning_free(self):
        # Importing the package tree (including the old shim host
        # module itself) must be silent under escalated
        # DeprecationWarning in a fresh interpreter.
        subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro, repro.sim, repro.sim.sparse, "
             "repro.diagnosis, repro.cli"],
            check=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
        )

    def test_no_in_repo_shim_imports(self):
        # The lint half of the satellite: no first-party module may
        # import the deleted names from repro.sim.sparse (or reach
        # them as attributes).  Zero src/ references, enforced.
        pattern = re.compile(
            r"from\s+repro\.sim\.sparse\s+import\s+([^\n]+)"
            r"|repro\.sim\.sparse\.(\w+)"
            r"|\bsparse\.(BACKENDS|resolve_backend|make_memory|"
            r"sparse_supported)\b")
        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            if path.name == "sparse.py":
                continue  # the shims' own module
            for line_number, line in enumerate(
                    path.read_text().splitlines(), start=1):
                match = pattern.search(line)
                if not match:
                    continue
                imported = match.group(1)
                if imported is not None:
                    names = [name.strip(" ()\\,")
                             for name in imported.split(",")]
                    if not any(name in self.SHIM_NAMES
                               for name in names):
                        continue
                attribute = match.group(2)
                if attribute is not None \
                        and attribute not in self.SHIM_NAMES:
                    continue
                offenders.append(f"{path}:{line_number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

"""Content-addressed qualification store (``repro.store``).

Four guarantee families, mirroring the store's contract:

* **canonical keying** -- equivalent march authorings collide, every
  semantic input (fault-list content and order, geometry, ``⇕``
  limit, word mode, semantics version) separates keys, and labels /
  test names / backends never enter the key;
* **round trips** -- a store hit reconstructs the exact report
  (witness identity included) a live qualification produces, across
  the bit, word and LF3 paths, hot or reopened from disk;
* **sharding + resume** -- ``--shard i/N`` is a disjoint, covering,
  order-preserving partition; per-shard stores merge into one whose
  resumed campaign report is byte-identical to an unsharded serial
  run, and a campaign killed mid-flight resumes to the same bytes;
* **CLI + maintenance** -- ``store stats/merge/gc/export`` smoke, the
  generator's cross-run prefix memoization, and the benchmark's
  store leg / history rotation.
"""

import json
import sqlite3

import pytest
from hypothesis import given, settings

from harness import random_marches, report_key
from repro.core.generator import MarchGenerator
from repro.faults.lists import fault_list_1, fault_list_2, lf1_faults
from repro.march.known import ALL_KNOWN, known_march
from repro.march.test import MarchTest, parse_march
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import qualify_test
from repro.store import (
    SCHEMA_VERSION,
    QualificationStore,
    fault_list_id,
    open_store,
    qualification_key,
)

FL1 = fault_list_1()
FL2 = fault_list_2()
KNOWN_TESTS = [km.test for km in ALL_KNOWN.values()]


def key_of(test, faults=FL2, size=3, limit=6, layout="straddle",
           width=1, backgrounds=None):
    return qualification_key(
        test, faults, size, limit, layout, width, backgrounds)


# ----------------------------------------------------------------------
# Canonical keying
# ----------------------------------------------------------------------
class TestCanonicalKeys:
    def test_equivalent_authorings_collide(self):
        spellings = [
            "c(w0); U(r0,w1); D(r1,w0)",
            "c (w0)  u( r0 , w1 )  d(r1, w0)",
            "⇕(w0); ⇑(r0,w1); ⇓(r1,w0)",
            "{c(w0); U(r0,w1); D(r1,w0)}",
        ]
        keys = {
            key_of(parse_march(text, name=f"spelling {i}"))
            for i, text in enumerate(spellings)
        }
        assert len(keys) == 1

    def test_test_name_never_enters_the_key(self):
        a = parse_march("c(w0); U(r0,w1)", name="Alice")
        b = parse_march("c(w0); U(r0,w1)", name="Bob")
        assert key_of(a) == key_of(b)

    def test_different_marches_separate(self):
        a = parse_march("c(w0); U(r0,w1)")
        b = parse_march("c(w0); D(r0,w1)")
        c = parse_march("c(w0); U(r0,w1); U(r1)")
        assert len({key_of(a), key_of(b), key_of(c)}) == 3

    def test_every_geometry_input_separates_keys(self):
        test = known_march("March C-").test
        base = key_of(test)
        assert key_of(test, size=4) != base
        assert key_of(test, limit=5) != base
        assert key_of(test, layout="all") != base
        assert key_of(test, width=4, backgrounds=((0, 0, 0, 0),)) != base
        assert key_of(test, faults=FL1) != base

    def test_background_sets_key_on_resolved_patterns(self):
        test = known_march("March C-").test
        explicit = key_of(
            test, width=2, backgrounds=((0, 0), (0, 1)))
        reordered = key_of(
            test, width=2, backgrounds=((0, 1), (0, 0)))
        assert explicit != reordered

    def test_semantics_version_bump_orphans_keys(self, monkeypatch):
        test = known_march("March C-").test
        before = key_of(test)
        monkeypatch.setattr(
            "repro.store.keys.SEMANTICS_VERSION", "999-test")
        assert key_of(test) != before

    def test_fault_list_id_is_content_and_order_sensitive(self):
        assert fault_list_id(FL2) == fault_list_id(list(FL2))
        assert fault_list_id(FL2) != fault_list_id(FL1)
        assert fault_list_id(FL2) != fault_list_id(FL2[::-1])
        assert fault_list_id(FL2) != fault_list_id(FL2[:-1])

    def test_fault_descriptor_rejects_unknown_types(self):
        from repro.store import fault_descriptor

        with pytest.raises(TypeError):
            fault_descriptor(object())


# ----------------------------------------------------------------------
# Store round trips
# ----------------------------------------------------------------------
def qualify(test, faults, size=3, store=None, **options):
    """One campaign cell's report: the store-backed qualification."""
    return CoverageCampaign(
        test, faults, memory_sizes=(size,), store=store,
        **options).run().entries[0].report


#: Rows one cold FL#2 cell writes: its job row plus one per fault.
FL2_ROWS = 1 + len(FL2)


class TestStoreRoundTrips:
    def test_miss_then_hit(self):
        store = QualificationStore()
        test = known_march("March C-").test
        fresh = qualify(test, FL2, store=store)
        served = qualify(test, FL2, store=store)
        # The cold run misses the job row and every fault row; the
        # warm run is one job-row hit.
        assert store.session_misses == FL2_ROWS
        assert store.session_hits == 1
        assert len(store) == FL2_ROWS
        assert report_key(fresh) == report_key(served)
        assert report_key(served) == report_key(qualify_test(test, FL2))

    def test_hit_preserves_escape_witness_identity(self):
        store = QualificationStore()
        test = known_march("March C-").test  # 75 % on FL#2
        fresh = qualify(test, FL2, store=store)
        served = qualify(test, FL2, store=store)
        assert fresh.escapes
        for live, cached in zip(fresh.escapes, served.escapes):
            assert cached.instance is live.instance
            assert cached.resolution == live.resolution

    def test_word_mode_round_trip(self):
        store = QualificationStore()
        test = known_march("March C-").test
        fresh = qualify(
            test, FL2, 4, width=4, backgrounds="standard", store=store)
        served = qualify(
            test, FL2, 4, width=4, backgrounds="standard", store=store)
        assert store.session_hits == 1
        assert fresh.escapes and report_key(fresh) == report_key(served)

    def test_lf3_layout_round_trip(self):
        store = QualificationStore()
        test = known_march("March SL").test
        sample = FL1[:60]
        fresh = qualify(
            test, sample, lf3_layouts=("all",), store=store)
        served = qualify(
            test, sample, lf3_layouts=("all",), store=store)
        assert report_key(fresh) == report_key(served)

    @settings(max_examples=15, deadline=None)
    @given(random_marches())
    def test_random_march_round_trip(self, test):
        store = QualificationStore()
        sample = FL2[::3]
        fresh = qualify(test, sample, store=store)
        served = qualify(test, sample, store=store)
        assert store.session_hits == 1
        assert report_key(fresh) == report_key(served)

    def test_backends_share_entries(self):
        store = QualificationStore()
        test = known_march("March SL").test
        qualify(test, FL2, 8, backend="dense", store=store)
        served = qualify(test, FL2, 8, backend="sparse", store=store)
        assert store.session_hits == 1 and len(store) == FL2_ROWS
        assert report_key(served) == report_key(
            qualify_test(test, FL2, 8, backend="sparse"))

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        test = known_march("March C-").test
        with QualificationStore(path) as store:
            qualify(test, FL2, store=store)
        with QualificationStore(path) as store:
            served = qualify(test, FL2, store=store)
            assert store.session_hits == 1
        assert report_key(served) == report_key(qualify_test(test, FL2))

    def test_stale_schema_rows_never_serve(self):
        store = QualificationStore()
        test = known_march("March C-").test
        qualify(test, FL2, store=store)
        store._conn.execute(
            "UPDATE qualifications SET schema_version = ?",
            (SCHEMA_VERSION + 1,))
        store._conn.commit()
        qualify(test, FL2, store=store)
        assert store.session_hits == 0
        assert store.session_misses == 2 * FL2_ROWS

    def test_gc_reclaims_stale_rows_only(self):
        store = QualificationStore()
        qualify(known_march("March C-").test, FL2, store=store)
        qualify(known_march("March SL").test, FL2, store=store)
        store._conn.execute(
            "UPDATE qualifications SET semantics_version = 'old' "
            "WHERE rowid = 1")
        store._conn.commit()
        assert store.gc() == 1
        assert len(store) == 2 * FL2_ROWS - 1
        assert store.gc() == 0

    def test_merge_is_a_set_union(self, tmp_path):
        a = QualificationStore(tmp_path / "a.sqlite")
        b = QualificationStore(tmp_path / "b.sqlite")
        shared = known_march("March C-").test
        qualify(shared, FL2, store=a)
        qualify(shared, FL2, store=b)
        qualify(known_march("March SL").test, FL2, store=b)
        # The shared rows are skipped.
        assert a.merge(b) == FL2_ROWS
        assert len(a) == 2 * FL2_ROWS
        assert a.merge(str(tmp_path / "b.sqlite")) == 0  # idempotent

    def test_stats_and_export_shapes(self):
        store = QualificationStore()
        qualify(known_march("March C-").test, FL2, store=store)
        stats = store.stats()
        assert stats["rows"] == stats["current_rows"] == FL2_ROWS
        assert stats["session_misses"] == FL2_ROWS
        assert stats["payload_bytes"] > 0
        dump = store.export()
        assert dump["schema_version"] == SCHEMA_VERSION
        assert len(dump["rows"]) == FL2_ROWS
        json.dumps(dump)  # JSON-ready end to end

    def test_open_store_seam(self, tmp_path):
        assert open_store(None) is None
        store = QualificationStore()
        assert open_store(store) is store
        opened = open_store(tmp_path / "new.sqlite")
        assert isinstance(opened, QualificationStore)
        assert (tmp_path / "new.sqlite").exists()


# ----------------------------------------------------------------------
# Campaign: caching, sharding, resume
# ----------------------------------------------------------------------
class TestCampaignStore:
    def campaign(self, **kwargs):
        return CoverageCampaign(
            KNOWN_TESTS[:4], {"FL#2": FL2}, memory_sizes=(3, 4),
            **kwargs)

    def test_warm_run_is_pure_replay_and_byte_identical(self):
        store = QualificationStore()
        baseline = self.campaign().run()
        cold = self.campaign(store=store).run()
        warm = self.campaign(store=store).run()
        assert cold.store_hits == 0
        assert cold.store_misses == len(cold.entries)
        assert warm.store_hits == len(warm.entries)
        assert warm.store_misses == 0
        assert baseline.report_json() == cold.report_json()
        assert cold.report_json() == warm.report_json()

    def test_parallel_campaign_populates_and_reads_the_store(self):
        store = QualificationStore()
        cold = self.campaign(store=store, workers=2).run()
        warm = self.campaign(store=store).run()
        assert cold.store_misses == len(cold.entries)
        assert warm.store_hits == len(warm.entries)
        assert cold.report_json() == warm.report_json()
        assert cold.report_json() == self.campaign().run().report_json()

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_shards_partition_the_job_list(self, count):
        campaigns = [
            self.campaign(shard=(index, count))
            for index in range(1, count + 1)
        ]
        full = [job.describe() for job in campaigns[0].jobs()]
        sharded = [
            [job.describe() for job in campaign.shard_jobs()]
            for campaign in campaigns
        ]
        # Disjoint cover: every job lands in exactly one shard.
        flat = [job for shard in sharded for job in shard]
        assert sorted(flat) == sorted(full)
        assert len(set(flat)) == len(full)
        # Order-preserving within each shard.
        for shard in sharded:
            positions = [full.index(job) for job in shard]
            assert positions == sorted(positions)

    def test_shard_validation(self):
        with pytest.raises(ValueError, match="shard index"):
            self.campaign(shard=(0, 3))
        with pytest.raises(ValueError, match="shard index"):
            self.campaign(shard=(4, 3))
        with pytest.raises(ValueError, match="pair"):
            self.campaign(shard=3)

    def test_sharded_stores_merge_to_unsharded_bytes(self, tmp_path):
        for index in (1, 2, 3):
            store = QualificationStore(
                tmp_path / f"shard-{index}.sqlite")
            result = self.campaign(
                store=store, shard=(index, 3)).run()
            assert result.shard == (index, 3)
            assert result.store_misses == len(result.entries)
            store.close()
        merged = QualificationStore(tmp_path / "merged.sqlite")
        for index in (1, 2, 3):
            merged.merge(str(tmp_path / f"shard-{index}.sqlite"))
        resumed = self.campaign(store=merged).run()
        assert resumed.store_misses == 0
        assert resumed.report_json() == self.campaign().run().report_json()

    def test_resume_after_simulated_kill(self, tmp_path):
        """A campaign killed mid-flight resumes to identical bytes.

        The kill is simulated by a store.put that raises after three
        jobs have been recorded -- exactly what a SIGKILL between
        jobs leaves behind: a store holding a prefix of the cells.
        """
        path = tmp_path / "killed.sqlite"
        store = QualificationStore(path)
        real_put = store.put
        puts = []

        def exploding_put(key, payload):
            if len(puts) == 3:
                raise KeyboardInterrupt("simulated kill")
            puts.append(key)
            real_put(key, payload)

        store.put = exploding_put
        with pytest.raises(KeyboardInterrupt):
            self.campaign(store=store).run()
        store.close()

        resumed_store = QualificationStore(path)
        resumed = self.campaign(store=resumed_store).run()
        assert resumed.store_hits == 3
        assert resumed.store_misses == len(resumed.entries) - 3
        assert resumed.report_json() == self.campaign().run().report_json()

    def test_result_dict_carries_store_and_shard_fields(self):
        store = QualificationStore()
        result = self.campaign(store=store, shard=(1, 2)).run()
        payload = result.to_dict()
        assert payload["shard"] == [1, 2]
        assert payload["store_misses"] == len(result.entries)
        assert "store" not in result.report_dict()
        assert set(result.report_dict()) == {"entries"}


# ----------------------------------------------------------------------
# Generator memoization
# ----------------------------------------------------------------------
class TestGeneratorStore:
    def test_repeat_generation_hits_the_store(self):
        store = QualificationStore()
        first = MarchGenerator(
            lf1_faults(), name="gen", store=store).generate()
        hits_before = store.session_hits
        second = MarchGenerator(
            lf1_faults(), name="gen", store=store).generate()
        plain = MarchGenerator(lf1_faults(), name="gen").generate()
        assert store.session_hits > hits_before
        assert first.test.notation() == second.test.notation()
        assert first.test.notation() == plain.test.notation()
        assert report_key(second.report) == report_key(plain.report)

    def test_committed_prefixes_are_served_to_a_campaign(self):
        store = QualificationStore()
        result = MarchGenerator(
            lf1_faults(), name="gen", store=store).generate()
        for cut in range(1, len(result.unpruned.elements) + 1):
            prefix = MarchTest(
                "any name", result.unpruned.elements[:cut])
            misses = store.session_misses
            served = qualify(prefix, lf1_faults(), store=store)
            assert store.session_misses == misses, (
                f"prefix of {cut} element(s) was not memoized")
            assert report_key(served) == report_key(
                qualify_test(prefix, lf1_faults()))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStoreCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_campaign_store_shard_resume_identity(self, tmp_path, capsys):
        for index in (1, 2):
            code = self.run_cli(
                "campaign", "--tests", "March ABL1", "March SL",
                "--fault-lists", "2",
                "--store", str(tmp_path / f"s{index}.sqlite"),
                "--shard", f"{index}/2")
            assert code == 0
        code = self.run_cli(
            "store", "merge", str(tmp_path / "m.sqlite"),
            str(tmp_path / "s1.sqlite"), str(tmp_path / "s2.sqlite"))
        assert code == 0
        # Each shard stored its job row and one row per FL#2 fault.
        assert "50 row(s) (50 added)" in capsys.readouterr().out
        code = self.run_cli(
            "campaign", "--tests", "March ABL1", "March SL",
            "--fault-lists", "2",
            "--store", str(tmp_path / "m.sqlite"), "--resume",
            "--report-json", str(tmp_path / "resumed.json"))
        assert code == 0
        assert "2 hit(s), 0 miss(es)" in capsys.readouterr().out
        code = self.run_cli(
            "campaign", "--tests", "March ABL1", "March SL",
            "--fault-lists", "2",
            "--report-json", str(tmp_path / "oracle.json"))
        assert code == 0
        assert (tmp_path / "resumed.json").read_bytes() == \
            (tmp_path / "oracle.json").read_bytes()

    def test_resume_requires_an_existing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --store"):
            self.run_cli(
                "campaign", "--tests", "March SL",
                "--fault-lists", "2", "--resume")
        with pytest.raises(SystemExit, match="does not exist"):
            self.run_cli(
                "campaign", "--tests", "March SL",
                "--fault-lists", "2", "--resume",
                "--store", str(tmp_path / "missing.sqlite"))

    def test_bad_shard_spec_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="expected i/N"):
            self.run_cli(
                "campaign", "--tests", "March SL",
                "--fault-lists", "2", "--shard", "nope")
        with pytest.raises(SystemExit, match="invalid campaign"):
            self.run_cli(
                "campaign", "--tests", "March SL",
                "--fault-lists", "2", "--shard", "4/3")

    def test_store_stats_gc_export_smoke(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        self.run_cli(
            "campaign", "--tests", "March SL", "--fault-lists", "2",
            "--store", str(path))
        capsys.readouterr()
        # The job row plus one row per FL#2 fault.
        rows = 1 + len(FL2)
        assert self.run_cli("store", "stats", str(path)) == 0
        assert f"rows: {rows} " in capsys.readouterr().out
        assert self.run_cli("store", "stats", str(path), "--json") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["current_rows"] == rows
        assert self.run_cli("store", "gc", str(path)) == 0
        assert "reclaimed 0" in capsys.readouterr().out
        out_file = tmp_path / "dump.json"
        assert self.run_cli(
            "store", "export", str(path),
            "--output", str(out_file)) == 0
        dump = json.loads(out_file.read_text())
        assert len(dump["rows"]) == rows

    def test_store_commands_reject_missing_files(self, tmp_path):
        for command in (["stats"], ["gc"], ["export"]):
            with pytest.raises(SystemExit, match="does not exist"):
                self.run_cli(
                    "store", *command, str(tmp_path / "no.sqlite"))

    def test_generate_store_flag(self, tmp_path, capsys):
        path = tmp_path / "gen.sqlite"
        code = self.run_cli(
            "generate", "--fault-list", "lf1", "--store", str(path))
        assert code == 0
        capsys.readouterr()
        assert self.run_cli("store", "stats", str(path)) == 0
        assert path.exists()


# ----------------------------------------------------------------------
# Speed floor: warm >= 10x cold
# ----------------------------------------------------------------------
class TestWarmSpeedup:
    def test_warm_campaign_is_10x_faster_than_cold(self):
        """The store's speed floor, on any machine: a hit is a key
        lookup plus JSON decode, so the margin is orders of magnitude,
        not percents.  ``TestCampaignStore`` pins the byte identity
        and the hit counts.
        """
        campaign = CoverageCampaign(
            KNOWN_TESTS[:6], {"FL#2": FL2, "FL#1s": FL1[:120]},
            memory_sizes=(3, 5), store=QualificationStore())
        cold = campaign.run()
        warm = campaign.run()
        assert cold.report_json() == warm.report_json()
        assert warm.store_hits == len(warm.entries)
        assert cold.wall_seconds >= 10 * warm.wall_seconds, (
            f"warm {warm.wall_seconds:.3f}s vs "
            f"cold {cold.wall_seconds:.3f}s")


def test_sqlite3_schema_is_single_table():
    """The store stays dependency-free: stdlib sqlite3, one table."""
    store = QualificationStore()
    tables = [
        row[0] for row in store._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")
    ]
    assert tables == ["qualifications"]
    assert isinstance(store._conn, sqlite3.Connection)


class TestStoreResilience:
    """Transient-failure hardening: busy timeout, write retries with
    capped backoff (exercised through the chaos lock seam, which
    raises the exact ``database is locked`` error real contention
    produces), and the one-line merge error for a locked-out source.
    """

    def test_busy_timeout_configured(self, tmp_path):
        store = QualificationStore(tmp_path / "busy.sqlite")
        assert store._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == 5000
        store.close()

    def test_setup_retries_a_locked_wal_switch(
            self, tmp_path, monkeypatch):
        # Two connections opening one new store file at once (the job
        # threads of a fresh `serve`) can see the WAL switch fail with
        # "database is locked": SQLite takes that lock without its busy
        # wait.  The setup is retried like any write.
        connect = sqlite3.connect

        class LockedOnce:
            def __init__(self, path):
                self._conn = connect(path)
                self._locked = True

            def execute(self, sql, *args):
                if self._locked and sql.startswith("PRAGMA journal_mode"):
                    self._locked = False
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(sqlite3, "connect", LockedOnce)
        store = QualificationStore(tmp_path / "new.sqlite")
        assert store.session_write_retries == 1
        assert store._conn.execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        store.put("key", {"p": 1})
        assert store.get("key") == {"p": 1}
        store.close()

    def test_put_retries_transient_locks(self):
        store = QualificationStore()
        fires = iter([True, True, False])
        store.inject_lock_chaos(lambda: next(fires, False))
        store.put("key-1", {"p": 1})
        assert store.session_write_retries == 2
        store.inject_lock_chaos(None)
        assert store.get("key-1") == {"p": 1}

    def test_put_gives_up_on_persistent_lock(self):
        store = QualificationStore()
        store.inject_lock_chaos(lambda: True)
        with pytest.raises(sqlite3.OperationalError,
                           match="database is locked"):
            store.put("key-1", {"p": 1})
        # Initial attempt + 5 retries, all recovered-then-failed.
        assert store.session_write_retries == 5
        store.inject_lock_chaos(None)
        store.put("key-1", {"p": 1})  # seam cleared: write lands
        assert store.get("key-1") == {"p": 1}

    def test_non_transient_errors_are_not_retried(self):
        store = QualificationStore()

        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError,
                           match="no such table"):
            store._with_retry(broken)
        assert store.session_write_retries == 0

    def test_gc_retries_transient_locks(self, tmp_path):
        store = QualificationStore(tmp_path / "gc.sqlite")
        store.put("key-1", {"p": 1})
        fires = iter([True, False])
        store.inject_lock_chaos(lambda: next(fires, False))
        assert store.gc() == 0
        assert store.session_write_retries == 1
        store.close()

    def test_merge_locked_out_is_one_line_value_error(self, tmp_path):
        source_path = tmp_path / "source.sqlite"
        source = QualificationStore(source_path)
        source.put("key-1", {"p": 1})
        source.close()
        target = QualificationStore(tmp_path / "target.sqlite")
        target.inject_lock_chaos(lambda: True)
        with pytest.raises(ValueError, match="cannot merge"):
            target.merge(str(source_path))
        target.inject_lock_chaos(None)
        assert target.merge(str(source_path)) == 1
        target.close()

    def test_merge_retries_then_succeeds(self, tmp_path):
        source = QualificationStore(tmp_path / "source.sqlite")
        source.put("key-1", {"p": 1})
        source.put("key-2", {"p": 2})
        source.close()
        target = QualificationStore()
        fires = iter([True, False])
        target.inject_lock_chaos(lambda: next(fires, False))
        # The retry re-runs the whole union after a rollback, so the
        # added count stays exact.
        assert target.merge(str(tmp_path / "source.sqlite")) == 2
        assert target.session_write_retries == 1

    def test_put_many_is_one_retried_transaction(self):
        store = QualificationStore()
        fires = iter([True, False])
        store.inject_lock_chaos(lambda: next(fires, False))
        store.put_many([("key-1", {"p": 1}), ("key-2", {"p": 2})])
        # One lock error, one retry of the whole batch, both rows in.
        assert store.session_write_retries == 1
        assert store.get_many(["key-1", "key-2"]) == {
            "key-1": {"p": 1}, "key-2": {"p": 2}}
        store.put_many([("key-1", {"p": 9})])  # idempotent
        assert store.get("key-1") == {"p": 1}
        assert len(store) == 2

    def test_stats_count_write_retries(self):
        store = QualificationStore()
        fires = iter([True, False])
        store.inject_lock_chaos(lambda: next(fires, False))
        store.put("key-1", {"p": 1})
        assert store.stats()["session_write_retries"] == 1

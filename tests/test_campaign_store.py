"""Columnar row store, content-addressed run cache, and crash-safe resume.

Three surfaces of ``repro.campaign.store`` and the resume fixes that ship
with it:

* :class:`ColumnStore` round-trips every row shape **byte-identically**
  through typed columns (the exactness overlay keeps off-type values
  verbatim — ``0`` never becomes ``0.0``), and its aggregate queries match
  a row-by-row reference.
* :class:`RunCache` hits are byte-identical to execution, compose with
  ``--jobs``, ``--resume``, ``--engine batched`` and a sharded collector
  campaign, and degrade to misses (never wrong rows) on corrupt or
  identity-mismatched entries.
* The resume path appends instead of rewriting (an interrupt mid-resume
  cannot lose prior completed rows), the final job-order rewrite is atomic
  (a kill mid-rewrite leaves the streamed file intact), and prior
  re-run-appendix rows are reconciled — stale ones re-run, orphans are
  kept and counted.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.campaign import (
    CampaignSpec,
    ColumnStore,
    RunCache,
    expand_jobs,
    run_campaign,
    run_cache_key,
    run_cache_key_for_row,
)
from repro.campaign.sinks import row_line
from repro.cli import main

SPEC = CampaignSpec(
    scenarios=("figure1", "grid-3x3"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2),
    max_steps=120,
)


@pytest.fixture(scope="module")
def campaign_rows():
    """Eight executed rows (two scenarios x two algorithms x two seeds)."""
    return run_campaign(SPEC, jobs=1).rows


class TestColumnStoreRoundTrip:
    def test_campaign_rows_round_trip_byte_identical(self, campaign_rows):
        store = ColumnStore.from_rows(campaign_rows)
        assert store.lines() == [row_line(row) for row in campaign_rows]
        assert store.rows() == campaign_rows

    def test_error_timed_null_and_offtype_rows(self):
        rows = [
            # error row: no metric fields at all
            {"job": 0, "scenario": "figure1", "status": "error",
             "error": "RuntimeError: boom", "ok": False},
            # timed row with a JSON null and an off-type int in a float column
            {"job": 1, "scenario": "figure1", "status": "ok", "ok": True,
             "grace_steps": None, "steps_per_sec": 812.5, "jain": 1,
             "steps": 40},
            # off-type: bool in an int column, float in an int column
            {"job": 2, "scenario": "grid-3x3", "status": "ok", "ok": True,
             "steps": True, "meetings": 2.0, "jain": 0.5},
            # un-schema'd field: kept exact, absent elsewhere
            {"job": 3, "note": "adhoc", "status": "ok"},
        ]
        store = ColumnStore.from_rows(rows)
        assert store.lines() == [row_line(row) for row in rows]
        # The overlay preserved values, not coercions.
        assert store.row(1)["jain"] == 1 and isinstance(store.row(1)["jain"], int)
        assert store.row(2)["steps"] is True
        assert store.row(2)["meetings"] == 2.0 and isinstance(store.row(2)["meetings"], float)
        assert "note" not in store.row(0)

    def test_rowsink_protocol_and_jsonl_loader(self, campaign_rows, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(row_line(row) + "\n" for row in campaign_rows))
        store = ColumnStore.from_jsonl(str(path))
        assert len(store) == len(campaign_rows)
        assert store.lines() == [row_line(row) for row in campaign_rows]
        with pytest.raises(IndexError):
            store.row(len(campaign_rows))


class TestColumnStoreAggregates:
    def test_aggregates_match_row_by_row_reference(self, campaign_rows):
        store = ColumnStore.from_rows(campaign_rows)
        assert store.total_steps() == sum(int(r.get("steps", 0)) for r in campaign_rows)
        expected_counts = {}
        for row in campaign_rows:
            expected_counts[str(row["status"])] = (
                expected_counts.get(str(row["status"]), 0) + 1
            )
        assert store.status_counts() == expected_counts
        assert store.violation_count() == sum(
            1 for r in campaign_rows if r["status"] == "violation"
        )
        assert store.error_count() == 0

    def test_cell_stats_shape_and_jain_spread(self, campaign_rows):
        store = ColumnStore.from_rows(campaign_rows)
        cells = store.cell_stats()
        assert [(c["scenario"], c["algorithm"]) for c in cells] == [
            ("figure1", "cc1"), ("figure1", "cc2"),
            ("grid-3x3", "cc1"), ("grid-3x3", "cc2"),
        ]
        for cell in cells:
            members = [
                r for r in campaign_rows
                if (r["scenario"], r["algorithm"]) == (cell["scenario"], cell["algorithm"])
            ]
            assert cell["runs"] == len(members) == 2
            assert cell["steps"] == sum(int(r["steps"]) for r in members)
            jains = [r["jain"] for r in members if isinstance(r["jain"], float)]
            assert cell["jain_min"] == min(jains)
            assert cell["jain_max"] == max(jains)

    def test_error_rows_excluded_from_jain_and_counted(self):
        rows = [
            {"job": 0, "scenario": "s", "algorithm": "a", "status": "ok",
             "steps": 10, "jain": 0.5},
            {"job": 1, "scenario": "s", "algorithm": "a", "status": "error",
             "error": "boom", "ok": False},
            # exact-overlay steps (bool) must not leak into totals
            {"job": 2, "scenario": "s", "algorithm": "a", "status": "violation",
             "steps": 7, "jain": 0.25},
        ]
        store = ColumnStore.from_rows(rows)
        cell = store.cell_stats()[0]
        assert (cell["runs"], cell["violations"], cell["errors"]) == (3, 1, 1)
        assert cell["steps"] == 17
        assert (cell["jain_min"], cell["jain_max"]) == (0.25, 0.5)
        assert store.total_steps() == 17


class TestRunCache:
    def test_hit_is_byte_identical_and_position_independent(self, tmp_path):
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        baseline = run_campaign(jobs, jobs=1, cache=cache)
        assert cache.stored == len(jobs) and cache.hits == 0
        row = cache.lookup(jobs[0])
        assert row_line(row) == row_line(baseline.rows[0])
        # Same run shape at a different matrix position still hits, with
        # the new index patched in.
        import dataclasses

        moved = dataclasses.replace(jobs[0], index=99)
        hit = cache.lookup(moved)
        assert hit["job"] == 99
        assert {k: v for k, v in hit.items() if k != "job"} == {
            k: v for k, v in row.items() if k != "job"
        }

    def test_key_agrees_between_job_and_row_and_ignores_index(self, campaign_rows):
        jobs = expand_jobs(SPEC)
        assert run_cache_key(jobs[0]) == run_cache_key_for_row(campaign_rows[0])
        assert run_cache_key(jobs[0]) != run_cache_key(jobs[1])

    def test_corrupt_and_mismatched_entries_are_misses(self, tmp_path):
        jobs = expand_jobs(SPEC)[:2]
        cache = RunCache(str(tmp_path / "cache"))
        run_campaign(jobs, jobs=1, cache=cache)
        misses_before = cache.misses  # the cold run's pre-dispatch consults
        # Corrupt entry: unparseable bytes.
        path = cache._path(run_cache_key(jobs[0]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache.lookup(jobs[0]) is None
        # Mismatched entry: jobs[1]'s row filed under jobs[0]'s key.
        with open(cache._path(run_cache_key(jobs[1])), "r", encoding="utf-8") as fh:
            other = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(other)
        assert cache.lookup(jobs[0]) is None
        # Non-dict payload.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        assert cache.lookup(jobs[0]) is None
        assert cache.misses == misses_before + 3 and cache.hits == 0

    def test_error_rows_are_never_stored(self, tmp_path, monkeypatch):
        import repro.campaign.jobs as jobs_module
        import repro.campaign.runner as runner_module

        real_run = jobs_module._run_job

        def boom(job):
            if job.seed == 2:
                raise RuntimeError("induced failure")
            return real_run(job)

        monkeypatch.setattr(jobs_module, "_run_job", boom)
        monkeypatch.setattr(runner_module, "_run_job", boom, raising=False)
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        result = run_campaign(jobs, jobs=1, cache=cache)
        errors = sum(1 for row in result.rows if row["status"] == "error")
        assert errors == 4
        assert cache.stored == len(jobs) - errors
        # The error jobs miss on re-consult and re-execute.
        rerun = run_campaign(jobs, jobs=1, cache=cache)
        assert cache.hits == len(jobs) - errors
        assert sum(1 for row in rerun.rows if row["status"] == "error") == errors

    def test_fully_cached_campaign_executes_nothing(self, tmp_path, monkeypatch):
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        baseline = run_campaign(jobs, jobs=1, cache=cache)
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        cached = run_campaign(jobs, jobs=1, cache=cache)
        assert cached.jsonl_lines() == baseline.jsonl_lines()
        assert cache.hits == len(jobs)

    def test_summary_throughput_counts_executed_rows_only(self, tmp_path):
        """Cache hits carry steps but no time: they must not inflate steps/s."""
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        run_campaign(jobs, jobs=1, cache=cache)
        cached = run_campaign(jobs, jobs=1, cache=cache)
        summary = cached.summary_rows()
        assert all(row["steps/s"] == "-" for row in summary)
        # The step and run counts still cover every row.
        assert summary[-1]["steps"] == cached.total_steps > 0
        assert summary[-1]["runs"] == len(jobs)
        assert cached.steps_per_sec == 0.0

        # Half warm (the first two cells cached): cached cells report no
        # throughput, executed cells exactly their steps over their time.
        half = RunCache(str(tmp_path / "half"))
        run_campaign(jobs[:4], jobs=1, cache=half)
        mixed = run_campaign(jobs, jobs=1, cache=half)
        executed = [result for result in mixed.results if result.executed]
        assert [result.index for result in executed] == [4, 5, 6, 7]
        cells = mixed.summary_rows()
        assert [row["steps/s"] for row in cells[:2]] == ["-", "-"]
        for row in cells[2:4]:
            same = [
                r for r in executed
                if (r.row["scenario"], r.row["algorithm"]) == (row["scenario"], row["algorithm"])
            ]
            assert len(same) == 2
            seconds = sum(r.elapsed_seconds for r in same)
            assert row["steps/s"] == round(sum(r.steps for r in same) / seconds, 1)
        total = sum(r.steps for r in executed) / mixed.elapsed_seconds
        assert cells[-1]["steps/s"] == round(total, 1)


class TestCacheEndToEnd:
    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "120"]

    def _baseline(self, tmp_path, capsys):
        out = tmp_path / "baseline.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) in (0, 1)
        capsys.readouterr()
        return out.read_bytes()

    def test_cache_miss_then_hit_byte_identical(self, capsys, tmp_path):
        expected = self._baseline(tmp_path, capsys)
        cache = tmp_path / "cache"
        cold = tmp_path / "cold.jsonl"
        assert main(self.ARGV + ["--out", str(cold), "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "8 miss(es), 8 row(s) stored" in printed
        assert cold.read_bytes() == expected
        warm = tmp_path / "warm.jsonl"
        assert main(self.ARGV + ["--out", str(warm), "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "8 hit(s), 0 miss(es), 0 row(s) stored" in printed
        assert warm.read_bytes() == expected

    def test_cache_composes_with_workers_and_resume(self, capsys, tmp_path):
        expected = self._baseline(tmp_path, capsys)
        cache = tmp_path / "cache"
        out = tmp_path / "jobs2.jsonl"
        assert main(self.ARGV + ["--out", str(out), "--cache", str(cache),
                                 "--jobs", "2"]) in (0, 1)
        capsys.readouterr()
        assert out.read_bytes() == expected
        # Partial file + cache: the missing rows come from the cache, the
        # result is still byte-identical.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(expected.splitlines(keepends=True)[:3]))
        assert main(self.ARGV + ["--out", str(part), "--resume",
                                 "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "5 hit(s), 0 miss(es)" in printed
        assert part.read_bytes() == expected

    def test_cache_composes_with_batched_engine(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        argv = self.ARGV + ["--engine", "batched"]
        out = tmp_path / "batched.jsonl"
        cache = tmp_path / "cache"
        assert main(argv + ["--out", str(out), "--cache", str(cache)]) in (0, 1)
        capsys.readouterr()
        expected = out.read_bytes()
        import repro.campaign.runner as runner_module

        warm = tmp_path / "warm.jsonl"
        assert main(argv + ["--out", str(warm), "--cache", str(cache)]) in (0, 1)
        assert "8 hit(s)" in capsys.readouterr().out
        assert warm.read_bytes() == expected

    def test_five_shard_collector_merge_with_caches(self, tmp_path):
        from repro.campaign.shard import Collector, run_shard

        jobs = expand_jobs(SPEC)
        baseline = run_campaign(jobs, jobs=1).jsonl_lines()
        # Warm one shared cache first, then a sharded campaign over it.
        cache = RunCache(str(tmp_path / "cache"))
        run_campaign(jobs[:4], jobs=1, cache=cache)
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            # One-job grants: every cell's 2-seed sweep is cut across
            # grant boundaries, and each grant probes its shard's cache.
            threads = [
                threading.Thread(
                    target=run_shard,
                    args=(collector.address, jobs),
                    kwargs=dict(batch=1, cache=RunCache(str(tmp_path / "cache"))),
                )
                for _ in range(5)
            ]
            for thread in threads:
                thread.start()
            # Shards return only after the collector granted them ``done``.
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            rows = collector.run(timeout=60)
        assert [row_line(row) for row in rows] == baseline
        assert len(collector.state.shards) == 5


class TestResumeCrashSafety:
    ARGV = TestCacheEndToEnd.ARGV

    def test_resume_appends_instead_of_rewriting(self, capsys, tmp_path, monkeypatch):
        """Satellite 1 regression: an interrupt mid-resume keeps prior rows.

        The old code reopened ``--out`` in truncate mode at resume time and
        rewrote the prior rows; a kill between the truncate and the final
        rewrite lost completed work.  Append mode means the prior bytes are
        never touched mid-campaign.
        """
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) in (0, 1)
        capsys.readouterr()
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)

        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:3]))
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        code = main(self.ARGV + ["--out", str(part), "--resume"])
        err = capsys.readouterr().err
        assert code == 130
        assert "rerun with --resume" in err
        # Every previously completed row is still on disk, bytes untouched.
        assert part.read_bytes() == b"".join(lines[:3])

    def test_kill_mid_final_rewrite_loses_no_rows(self, capsys, tmp_path, monkeypatch):
        """Satellite 1, second half: the job-order rewrite is atomic."""
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) in (0, 1)
        capsys.readouterr()
        expected = full.read_bytes()

        out = tmp_path / "rows.jsonl"
        import repro.campaign.runner as runner_module

        real_row_line = runner_module.row_line
        emitted = []

        def dying_row_line(row):
            if len(emitted) == 4:
                raise KeyboardInterrupt()
            line = real_row_line(row)
            emitted.append(line)
            return line

        monkeypatch.setattr(runner_module, "row_line", dying_row_line)
        code = main(self.ARGV + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted during the final rewrite" in err
        # The completion-order stream survived the kill whole...
        streamed = out.read_bytes()
        assert sorted(streamed.splitlines()) == sorted(expected.splitlines())
        monkeypatch.setattr(runner_module, "row_line", real_row_line)
        # ...so a resume executes nothing and lands byte-identical.
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        assert main(self.ARGV + ["--out", str(out), "--resume"]) in (0, 1)
        capsys.readouterr()
        assert out.read_bytes() == expected


class TestRerunRowReconciliation:
    ARGV = ["campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "40:0.3", "--seed", "3", "--seeds", "3",
            "--steps", "200", "--rerun-disagreements"]

    def _disagreement_file(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6  # 3 base + 3 fresh-seed re-runs
        return out, rows

    def test_tampered_extra_row_is_re_run_on_resume(self, capsys, tmp_path):
        """Satellite 2 regression: prior re-run rows are identity-validated.

        The old resume path never validated rows at indices beyond the base
        matrix — a stale or corrupted appendix row silently stood in for a
        regenerated re-run job.  Now it is detected, warned about and
        re-executed.
        """
        out, rows = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        tampered = dict(rows[4])
        tampered["seed"] = 999  # no regenerated re-run job has this seed
        out.write_text(
            "".join(row_line(r) + "\n" for r in rows[:4] + [tampered] + rows[5:])
        )
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "stale disagreement set" in captured.err
        assert out.read_bytes() == expected  # the stale row was re-executed

    def test_intact_extra_rows_resume_without_execution(
        self, capsys, tmp_path, monkeypatch
    ):
        out, _ = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "stale disagreement set" not in captured.err
        assert out.read_bytes() == expected

    def test_orphan_rerun_rows_are_kept_and_counted(self, capsys, tmp_path):
        """Satellite 3: plain resume keeps the appendix rows, with a warning."""
        out, rows = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        # Plain --resume (no --rerun-disagreements): the 3 appendix rows
        # cannot be validated, but they are completed work — kept, counted
        # in the summary, and called out on stderr.
        argv = [a for a in self.ARGV if a != "--rerun-disagreements"]
        code = main(argv + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "keeping 3 re-run row(s) beyond the 3-job matrix" in captured.err
        assert "pass --rerun-disagreements to validate them" in captured.err
        assert "6 runs" in captured.out  # summary counts all six rows
        assert out.read_bytes() == expected


class TestStatsSubcommand:
    def test_stats_table_and_exit_codes(self, capsys, tmp_path, campaign_rows):
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(row_line(row) + "\n" for row in campaign_rows))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"Stats: {len(campaign_rows)} rows from {path}" in out
        assert "figure1" in out and "grid-3x3" in out and "TOTAL" in out
        # Missing and empty files exit 2.
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 2
        capsys.readouterr()

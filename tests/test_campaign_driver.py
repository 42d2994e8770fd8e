"""Per-stage tests for the layered campaign driver (`repro.campaign.driver`).

The pipeline is plan → dispatch → collect → finalize; each stage is tested
in isolation here, then the differential sweep asserts the one property the
decomposition must never cost: the aggregate JSONL rows are **byte-identical**
across every frontend combination — worker counts × start methods × resume ×
cache × offline shard slices × collector pull shards × the batched engine.

The service-facing contract is pinned too: `CampaignDriver` round-trips a
campaign programmatically (no argparse anywhere), and `cli._cmd_campaign`
stays a thin adapter (line-count ceiling; the RC010 repo check enforces the
import side of the same invariant).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import threading

import pytest

from repro.campaign import (
    CampaignDriver,
    CampaignPlan,
    CampaignResult,
    BufferedSink,
    CampaignSpec,
    Collector,
    Finalizer,
    PoolExecutor,
    ResumeError,
    RowCollector,
    RunCache,
    SerialExecutor,
    dispatch,
    expand_jobs,
    run_campaign,
    run_shard,
)
from repro.campaign.sinks import row_line
from repro.kernel.batched import numpy_available


def _spec(**overrides) -> CampaignSpec:
    defaults = dict(
        scenarios=("figure1", "path-6"),
        algorithms=("cc1",),
        seeds=(1, 2),
        max_steps=60,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def matrix():
    """4 expanded jobs, the serial baseline result and its JSONL lines."""
    jobs = expand_jobs(_spec())
    baseline = run_campaign(jobs, jobs=1)
    return jobs, baseline, baseline.jsonl_lines()


class TestCampaignPlan:
    def test_expands_spec_and_adopts_prebuilt_jobs(self, matrix):
        jobs, _, _ = matrix
        assert [j.index for j in CampaignPlan(_spec()).jobs] == [j.index for j in jobs]
        plan = CampaignPlan(jobs)
        assert plan.jobs == list(jobs)
        assert plan.todo == list(jobs) and plan.cached_results == []

    def test_resume_reconciliation(self, matrix):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        plan = CampaignPlan(jobs, prior_rows=[rows[0], rows[2]])
        assert [j.index for j in plan.remaining] == [1, 3]
        assert plan.base_prior == [rows[0], rows[2]] and plan.extra_prior == []
        assert plan.todo == plan.remaining

    def test_extra_rows_split_out_of_the_base_matrix(self, matrix):
        jobs, _, lines = matrix
        extra = dict(json.loads(lines[0]), job=len(jobs) + 3)
        plan = CampaignPlan(jobs, prior_rows=[extra])
        assert plan.base_prior == [] and plan.extra_prior == [extra]
        # Extra rows answer no base job: the whole matrix is still pending.
        assert len(plan.remaining) == len(jobs)

    def test_foreign_rows_are_rejected(self, matrix):
        jobs, _, lines = matrix
        foreign = dict(json.loads(lines[0]), seed=999)
        with pytest.raises(ResumeError, match="does not match the campaign matrix"):
            CampaignPlan(jobs, prior_rows=[foreign])

    def test_static_shard_selection(self, matrix):
        jobs, _, lines = matrix
        plan = CampaignPlan(jobs, shard=(0, 2))
        assert plan.selected == list(jobs[:2])
        # Prior rows thin the shard's pending set but not its selection.
        resumed = CampaignPlan(jobs, prior_rows=[json.loads(lines[0])], shard=(0, 2))
        assert resumed.selected == list(jobs[:2])
        assert [j.index for j in resumed.pending] == [1]

    def test_cache_probe_splits_hits_from_todo(self, matrix, tmp_path):
        jobs, baseline, lines = matrix
        cache = RunCache(str(tmp_path / "cache"))
        cache.store(baseline.results[1])
        plan = CampaignPlan(jobs, cache=cache)
        assert [r.index for r in plan.cached_results] == [1]
        assert [j.index for j in plan.todo] == [0, 2, 3]
        # The hit is byte-identical by construction.
        assert row_line(plan.cached_results[0].row) == lines[1]


class TestExecutors:
    def test_serial_executor_feeds_collector_in_job_order(self, matrix):
        jobs, _, lines = matrix
        collector = RowCollector()
        assert SerialExecutor().run(jobs, collector) == 1
        assert [row_line(r.row) for r in collector.finish()] == lines

    def test_pool_executor_matches_serial_byte_for_byte(self, matrix):
        jobs, _, lines = matrix
        collector = RowCollector()
        workers = PoolExecutor(2, mp_context="fork").run(jobs, collector)
        assert workers == 2
        assert [row_line(r.row) for r in collector.finish()] == lines

    def test_pool_executor_guards(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            PoolExecutor(0)
        # An empty todo never builds a pool.
        assert PoolExecutor(8).run([], RowCollector()) == 1


class TestDispatch:
    def test_serial_for_one_worker_or_one_job(self, matrix, monkeypatch):
        jobs, _, lines = matrix

        def no_pool(*_args, **_kwargs):  # pragma: no cover - tripwire
            raise AssertionError("dispatch built a pool")

        monkeypatch.setattr(PoolExecutor, "run", no_pool)
        collector = RowCollector()
        assert dispatch(CampaignPlan(jobs), collector, jobs=1) == 1
        assert [row_line(r.row) for r in collector.finish()] == lines
        # A single pending job never pays for a pool, whatever ``jobs`` says.
        collector = RowCollector()
        assert dispatch(CampaignPlan(jobs[:1]), collector, jobs=4) == 1
        assert [row_line(r.row) for r in collector.finish()] == lines[:1]

    def test_pool_otherwise_and_hits_drain_first(self, matrix, tmp_path):
        jobs, baseline, lines = matrix
        cache = RunCache(str(tmp_path / "cache"))
        cache.store(baseline.results[2])
        sink = BufferedSink()
        collector = RowCollector(sink=sink)
        plan = CampaignPlan(jobs, cache=cache)
        assert dispatch(plan, collector, jobs=2, mp_context="fork") == 2
        assert row_line(sink.rows[0]) == lines[2]  # the hit streams first
        assert [row_line(r.row) for r in collector.finish()] == lines
        assert [r.index for r in collector.results if not r.executed] == [2]


class TestRowCollector:
    def test_fan_out_reaches_every_surface_in_order(self, matrix, tmp_path):
        _, baseline, lines = matrix
        sink = BufferedSink()
        cache = RunCache(str(tmp_path / "cache"))
        seen = []
        collector = RowCollector(
            sink=sink,
            cache=cache,
            progress=lambda result, done, total: seen.append((result.index, done, total)),
            total=4,
        )
        collector.collect(baseline.results[1])
        collector.collect(baseline.results[0])
        assert cache.stored == 2
        assert [row_line(row) for row in sink.rows] == [lines[1], lines[0]]
        assert seen == [(1, 1, 4), (0, 2, 4)]
        assert len(collector.store) == 2
        # finish() restores job order after the completion-order drain.
        assert [r.index for r in collector.finish()] == [0, 1]

    def test_cached_rows_stream_but_are_never_restored(self, matrix, tmp_path):
        _, baseline, _ = matrix
        sink = BufferedSink()
        cache = RunCache(str(tmp_path / "cache"))
        collector = RowCollector(sink=sink, cache=cache)
        collector.add_cached(baseline.results[0])
        assert cache.stored == 0 and len(sink.rows) == 1
        assert [r.index for r in collector.results] == [0]

    def test_absorb_prior_joins_the_aggregate_only(self, matrix):
        _, baseline, _ = matrix
        sink = BufferedSink()
        collector = RowCollector(sink=sink)
        collector.absorb_prior(baseline.results[:2])
        assert len(collector.store) == 2
        assert collector.results == [] and sink.rows == []


class TestFinalizer:
    def _result(self, matrix, status=None):
        jobs, baseline, _ = matrix
        results = list(baseline.results)
        if status is not None:
            results[0] = dataclasses.replace(
                results[0], row=dict(results[0].row, status=status), ok=False
            )
        return CampaignResult(jobs=list(jobs), results=results, workers=1, elapsed_seconds=0.5)

    def test_exit_codes(self, matrix):
        assert Finalizer().finalize(self._result(matrix)).exit_code == 0
        assert Finalizer().finalize(self._result(matrix, "violation")).exit_code == 1
        # Error rows dominate violations.
        assert Finalizer().finalize(self._result(matrix, "error")).exit_code == 3

    def test_out_rewrite_and_messages(self, matrix, tmp_path):
        _, _, lines = matrix
        out = tmp_path / "rows.jsonl"
        said = []
        outcome = Finalizer(out=str(out), info=said.append).finalize(self._result(matrix))
        assert out.read_text().splitlines() == lines
        assert outcome.summary == said[0]
        assert f"wrote {len(lines)} rows to {out}" in said

    def test_verbatim_rows_mode_writes_before_summary(self, matrix, tmp_path):
        """The collect-service path: whatever arrived survives byte-for-byte."""
        _, _, lines = matrix
        rows = [dict(json.loads(line), extra_field=1) for line in lines]
        out = tmp_path / "merged.jsonl"
        said = []
        Finalizer(out=str(out), info=said.append, prefix="collect").finalize(
            self._result(matrix), rows=rows, write_before_summary=True
        )
        assert out.read_text().splitlines() == [row_line(row) for row in rows]
        assert f"wrote {len(rows)} rows to {out}" in said

    def test_cache_stats_line(self, matrix, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        said = []
        Finalizer(info=said.append).finalize(self._result(matrix), cache=cache)
        assert any("cache" in line and "0 hit(s)" in line for line in said)


class TestCampaignDriverService:
    """The future service layer's contract: no argparse anywhere."""

    def test_programmatic_round_trip(self, matrix, tmp_path, monkeypatch):
        _, _, lines = matrix
        out = tmp_path / "rows.jsonl"
        cache = RunCache(str(tmp_path / "cache"))
        said = []
        driver = CampaignDriver(
            _spec(), cache=cache, out=str(out), info=said.append
        )
        outcome = driver.run()
        assert outcome.exit_code == 0
        assert out.read_text().splitlines() == lines
        assert outcome.result.store is not None and outcome.result.summary_rows()
        assert any(line.startswith("campaign: cache") for line in said)
        # Second submission over the same cache executes nothing: every job
        # short-circuits to a stored, byte-identical row.
        import repro.campaign.driver as driver_module

        def explode(job):  # pragma: no cover - tripwire
            raise AssertionError("cache hit expected; execute_job was called")

        monkeypatch.setattr(driver_module, "execute_job", explode)
        rerun = CampaignDriver(
            _spec(), cache=RunCache(str(tmp_path / "cache")), out=str(tmp_path / "rows2.jsonl")
        )
        assert rerun.run().result.jsonl_lines() == lines

    def test_resume_executes_only_missing_jobs(self, matrix, monkeypatch):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        import repro.campaign.driver as driver_module

        real = driver_module.execute_job
        ran = []

        def counting(job):
            ran.append(job.index)
            return real(job)

        monkeypatch.setattr(driver_module, "execute_job", counting)
        driver = CampaignDriver(jobs, prior_rows=[rows[0], rows[3]])
        result = driver.execute()
        assert sorted(ran) == [1, 2]
        assert result.jsonl_lines() == lines

    def test_collector_combinations_are_rejected(self, matrix):
        jobs, _, _ = matrix
        with pytest.raises(ValueError, match="pulls its jobs"):
            CampaignDriver(jobs, shard=(0, 2), collector="tcp:127.0.0.1:1")
        with pytest.raises(ValueError, match="rerun_disagreements"):
            CampaignDriver(jobs, rerun_disagreements=True, collector="tcp:127.0.0.1:1")


def test_cmd_campaign_is_a_thin_adapter():
    """The CLI command maps flags onto the driver — nothing else.

    The ceiling keeps orchestration from creeping back into argparse land;
    the RC010 repo check pins the import side of the same invariant.
    """
    from repro import cli

    assert len(inspect.getsource(cli._cmd_campaign).splitlines()) < 80


class TestDifferentialByteIdentity:
    """One sweep: every dispatch/persistence combination, one set of bytes."""

    def test_workers_and_start_methods(self, matrix):
        jobs, _, lines = matrix
        assert run_campaign(jobs, jobs=2, mp_context="fork").jsonl_lines() == lines
        assert run_campaign(jobs, jobs=2, mp_context="spawn").jsonl_lines() == lines

    def test_resume_and_cache_compose(self, matrix, tmp_path):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        cache = RunCache(str(tmp_path / "cache"))
        first = CampaignDriver(jobs, prior_rows=rows[:2], cache=cache).execute()
        assert first.jsonl_lines() == lines
        # The cache now holds the executed half; a fresh resume of the
        # *other* half must be all hits and still byte-identical.
        second = CampaignDriver(
            jobs, prior_rows=rows[2:], cache=RunCache(str(tmp_path / "cache"))
        ).execute()
        assert second.jsonl_lines() == lines

    def test_static_shards_merge_to_the_baseline(self, matrix):
        jobs, _, lines = matrix
        merged = {}
        for index in range(2):
            result = CampaignDriver(jobs, shard=(index, 2)).execute()
            for job_result in result.results:
                merged[job_result.index] = row_line(job_result.row)
        assert [merged[i] for i in sorted(merged)] == lines

    def test_collector_shards_merge_to_the_baseline(self, matrix):
        jobs, _, lines = matrix
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            threads = [
                threading.Thread(
                    target=run_shard,
                    args=(collector.address, jobs),
                    kwargs=dict(batch=1),
                )
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            # Shards return only after the collector granted them ``done``.
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            rows = collector.run(timeout=60)
        assert [row_line(row) for row in rows] == lines

    @pytest.mark.skipif(
        not numpy_available(), reason="batched engine needs the repro-cc[batched] extra"
    )
    def test_batched_engine_keeps_the_contract(self):
        batched_jobs = expand_jobs(_spec(engines=("batched",), max_steps=50))
        serial = run_campaign(batched_jobs, jobs=1).jsonl_lines()
        pooled = run_campaign(batched_jobs, jobs=2, mp_context="fork").jsonl_lines()
        assert serial == pooled

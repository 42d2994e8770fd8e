"""End-to-end CLI tests: every subcommand driven through ``main()``.

The unit tests in ``test_analysis_and_cli.py`` cover parsing and table
shapes; these tests exercise the full pipelines — including the campaign
subcommand's worker pool, JSONL output files and exit codes on
violation/clean runs — exactly the way a shell invocation would.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.kernel.batched import numpy_available


class TestRunEndToEnd:
    def test_run_exit_zero_and_metrics_table(self, capsys):
        assert main(["run", "--scenario", "grid-3x3", "--algorithm", "cc3",
                     "--steps", "300", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "CC3 on grid-3x3" in out
        assert "meetings" in out

    def test_run_engines_report_identical_metrics(self, capsys):
        argv = ["run", "--scenario", "figure1", "--algorithm", "cc2",
                "--steps", "250", "--seed", "3"]
        assert main(argv + ["--engine", "dense"]) == 0
        dense_out = capsys.readouterr().out
        assert main(argv + ["--engine", "incremental"]) == 0
        incremental_out = capsys.readouterr().out
        assert dense_out == incremental_out

    def test_run_unknown_scenario_raises_key_error(self):
        with pytest.raises(KeyError):
            main(["run", "--scenario", "no-such-scenario"])


class TestCheckEndToEnd:
    def test_clean_check_exits_zero(self, capsys):
        assert main(["check", "--scenario", "figure1", "--algorithm", "cc2",
                     "--sparse", "--steps", "500"]) == 0
        assert "Exclusion" in capsys.readouterr().out

    def test_violation_drives_exit_one(self, capsys):
        # Too short for every star committee to meet + a tiny grace window:
        # Progress fails deterministically (same construction as docs/CLI.md).
        code = main(["check", "--scenario", "star-5", "--algorithm", "cc1",
                     "--steps", "6", "--grace", "2"])
        assert code == 1
        assert "Progress" in capsys.readouterr().out

    def test_discussion_spec_rows_appear(self, capsys):
        assert main(["check", "--scenario", "figure1", "--algorithm", "cc2",
                     "--sparse", "--steps", "400", "--discussion-spec"]) == 0
        out = capsys.readouterr().out
        assert "EssentialDiscussion" in out
        assert "VoluntaryDiscussion" in out


class TestCompareEndToEnd:
    def test_compare_exits_zero_with_all_contenders(self, capsys):
        assert main(["compare", "--scenario", "figure1",
                     "--steps", "200", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        for name in ("cc1", "cc2", "cc3", "centralized-greedy", "kumar-tokens"):
            assert name in out


class TestCampaignEndToEnd:
    def test_clean_campaign_writes_rows_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "150", "--out", str(out_file),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "Campaign: 2 runs" in printed
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(rows) == 2
        assert all(row["ok"] for row in rows)
        assert [row["job"] for row in rows] == [0, 1]

    def test_parallel_rows_byte_identical_through_cli(self, capsys, tmp_path):
        serial_file = tmp_path / "serial.jsonl"
        parallel_file = tmp_path / "parallel.jsonl"
        argv = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
                "--algorithm", "cc1", "--algorithm", "cc2",
                "--seeds", "2", "--steps", "120"]
        assert main(argv + ["--jobs", "1", "--out", str(serial_file)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(parallel_file)]) == 0
        capsys.readouterr()
        assert serial_file.read_bytes() == parallel_file.read_bytes()

    def test_fault_campaign_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "7:0.8", "--seed", "0", "--steps", "200",
            "--out", str(out_file),
        ])
        capsys.readouterr()
        assert code == 1
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert any(not row["ok"] for row in rows)
        assert any(row["violations"] > 0 for row in rows)

    def test_randomized_campaign_runs(self, capsys):
        code = main([
            "campaign", "--random", "3", "--algorithm", "cc2",
            "--steps", "120",
        ])
        printed = capsys.readouterr().out
        assert code in (0, 1)  # drawn fault schedules may legitimately violate
        assert "random-0" in printed

    def test_unknown_scenario_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "no-such-scenario", "--steps", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "campaign:" in err

    def test_bad_environment_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "figure1",
                     "--environment", "warp", "--steps", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "environment spec" in err

    def test_timing_flag_adds_steps_per_sec(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        assert main([
            "campaign", "--scenario", "figure1", "--steps", "100",
            "--out", str(out_file), "--timing",
        ]) == 0
        capsys.readouterr()
        row = json.loads(out_file.read_text().splitlines()[0])
        assert row["steps_per_sec"] > 0

    def test_random_only_campaign_warns_on_ignored_named_axes(self, capsys):
        code = main([
            "campaign", "--random", "2", "--token", "ring",
            "--faults", "50:0.4", "--steps", "60",
        ])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "ignoring --token, --faults" in captured.err
        assert "randomized scenarios draw their own" in captured.err
        # With a named scenario present the axes do apply: no warning.
        assert main([
            "campaign", "--scenario", "figure1", "--random", "1",
            "--token", "ring", "--steps", "60",
        ]) in (0, 1)
        assert "ignoring" not in capsys.readouterr().err


class TestCampaignCrashSafety:
    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "100"]

    def test_resume_finishes_interrupted_campaign_byte_identical(
        self, capsys, tmp_path, monkeypatch
    ):
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) == 0
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)
        assert len(lines) == 8

        # Interrupt after 3 complete rows + one row truncated mid-write.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

        import repro.campaign.driver as driver_module
        executed = []
        real_execute = driver_module.execute_job
        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (executed.append(job.index), real_execute(job))[1],
        )
        code = main(self.ARGV + ["--out", str(part), "--resume"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "resuming" in printed and "5 of 8 job(s) remaining" in printed
        # Only the N-k missing jobs ran...
        assert sorted(executed) == [3, 4, 5, 6, 7]
        # ...and the final job-order rewrite is byte-identical to the
        # uninterrupted run.
        assert part.read_bytes() == expected

    def test_resume_of_complete_file_executes_nothing(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "rows.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) == 0
        expected = out.read_bytes()
        import repro.campaign.driver as driver_module
        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        assert main(self.ARGV + ["--out", str(out), "--resume"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == expected

    def test_resume_requires_out(self, capsys):
        assert main(["campaign", "--scenario", "figure1", "--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_collector_rejects_shard_and_rerun_flags(self, capsys, tmp_path):
        # Collector shards pull their work; a static slice or adaptive
        # re-run jobs cannot take part.  Both are refused before any
        # connection is attempted (nothing listens at this address).
        address = f"unix:{tmp_path / 'absent.sock'}"
        argv = ["campaign", "--scenario", "figure1", "--collector", address]
        out = ["--out", str(tmp_path / "rows.jsonl")]
        assert main(argv + ["--shard", "1/2"] + out) == 2
        assert "pull" in capsys.readouterr().err
        assert main(argv + ["--rerun-disagreements"]) == 2
        assert "--rerun-disagreements cannot be combined" in capsys.readouterr().err

    def test_resume_rejects_a_foreign_file(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", "--scenario", "star-5", "--steps", "50",
                     "--out", str(out)]) in (0, 1)
        capsys.readouterr()
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        assert code == 2
        assert "does not match the campaign matrix" in capsys.readouterr().err

    def test_worker_error_rows_drive_exit_three(self, capsys, tmp_path, monkeypatch):
        import repro.campaign.jobs as jobs_module
        real_run = jobs_module._run_job

        def boom(job):
            if job.seed == 2:
                raise RuntimeError("induced worker failure")
            return real_run(job)

        monkeypatch.setattr(jobs_module, "_run_job", boom)
        out = tmp_path / "rows.jsonl"
        code = main(["campaign", "--scenario", "figure1", "--algorithm", "cc2",
                     "--seeds", "2", "--steps", "100", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 3
        assert "1 errors" in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2  # the completed row was not lost
        by_status = {row["status"]: row for row in rows}
        assert by_status["error"]["error"] == "RuntimeError: induced worker failure"
        assert by_status["ok"]["ok"] is True

    def test_rerun_disagreements_appends_fresh_seed_rows(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "40:0.3", "--seed", "3", "--seeds", "3",
            "--steps", "200", "--rerun-disagreements", "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 1  # the violating seeds still violate
        assert "verdicts disagree across seeds" in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["job"] for row in rows] == list(range(6))
        assert [row["seed"] for row in rows] == [3, 4, 5, 6, 7, 8]
        verdicts = {row["ok"] for row in rows[:3]}
        assert verdicts == {True, False}

    def test_stream_sink_receives_rows_while_running(self, capsys, tmp_path):
        import socket
        import threading

        address = str(tmp_path / "rows.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(address)
        server.listen(1)
        received = bytearray()

        def serve():
            conn, _ = server.accept()
            while chunk := conn.recv(4096):
                received.extend(chunk)
            conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        code = main(["campaign", "--scenario", "figure1", "--seeds", "2",
                     "--steps", "100", "--stream", f"unix:{address}"])
        thread.join(timeout=5)
        server.close()
        capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in bytes(received).decode().splitlines()]
        assert [row["job"] for row in rows] == [0, 1]

    def test_bad_stream_spec_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "figure1",
                     "--stream", "rows.jsonl", "--steps", "10"])
        assert code == 2
        assert "stream spec" in capsys.readouterr().err


class TestBatchedCampaignEndToEnd:
    """`--engine batched` produces the same campaign bytes as solo engines.

    The batched engine changes *how* a cell's seed sweep executes (one numpy
    lockstep run instead of N solo runs), never *what* the rows say: modulo
    the `engine` identity field the JSONL output is byte-identical to
    `--engine incremental --jobs 1`, and resume/shard-collector flows that
    split a batch arbitrarily still converge on the same bytes.
    """

    pytestmark = pytest.mark.skipif(
        not numpy_available(),
        reason="batched engine needs the repro-cc[batched] extra",
    )

    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc2", "--token", "ring", "--seeds", "6",
            "--steps", "150", "--arbitrary", "--faults", "20:0.5"]

    def test_batched_bytes_equal_incremental_solo_modulo_engine_field(
        self, capsys, tmp_path
    ):
        batched = tmp_path / "batched.jsonl"
        solo = tmp_path / "solo.jsonl"
        assert main(self.ARGV + ["--engine", "batched", "--jobs", "1",
                                 "--out", str(batched)]) in (0, 1)
        assert main(self.ARGV + ["--engine", "incremental", "--jobs", "1",
                                 "--out", str(solo)]) in (0, 1)
        capsys.readouterr()
        # The engine field is row *identity* (it names the matrix cell), so
        # it is the one and only byte-level difference.
        rewritten = batched.read_text().replace('"engine": "batched"',
                                                '"engine": "incremental"')
        assert rewritten == solo.read_text()
        assert len(rewritten.splitlines()) == 12

    def test_batched_worker_pool_bytes_equal_serial(self, capsys, tmp_path):
        # --jobs 2 sends each job through the pool solo (one-lane batches);
        # --jobs 1 groups a cell's seeds into one lockstep run.  Lane
        # independence makes the outputs literally byte-identical.
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        argv = self.ARGV + ["--engine", "batched"]
        assert main(argv + ["--jobs", "1", "--out", str(serial)]) in (0, 1)
        assert main(argv + ["--jobs", "2", "--out", str(pooled)]) in (0, 1)
        capsys.readouterr()
        assert serial.read_bytes() == pooled.read_bytes()

    def test_resume_mid_batch_byte_identical(self, capsys, tmp_path):
        argv = self.ARGV + ["--engine", "batched"]
        full = tmp_path / "full.jsonl"
        assert main(argv + ["--out", str(full)]) in (0, 1)
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)
        assert len(lines) == 12

        # Truncate *inside* the first cell's 6-seed batch (after 2 of its 6
        # rows, the 3rd cut mid-write): resume must re-run only the missing
        # seeds — as a narrower batch — and still rewrite identical bytes.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        code = main(argv + ["--out", str(part), "--resume"])
        printed = capsys.readouterr().out
        assert code in (0, 1)
        assert "10 of 12 job(s) remaining" in printed
        assert part.read_bytes() == expected

    def test_collector_shard_mode_byte_identical(self, capsys, tmp_path):
        import threading

        from repro.campaign import expand_jobs, run_campaign
        from repro.campaign.matrix import CampaignSpec, FaultSchedule
        from repro.campaign.shard import Collector, run_shard
        from repro.campaign.sinks import row_line

        spec = CampaignSpec(
            scenarios=("figure1", "grid-3x3"),
            algorithms=("cc2",),
            tokens=("ring",),
            engines=("batched",),
            faults=(FaultSchedule(every=20, fraction=0.5),),
            seeds=tuple(range(6)),
            max_steps=150,
            arbitrary_start=True,
        )
        jobs = expand_jobs(spec)
        baseline = [
            row_line(result.output_row())
            for result in run_campaign(jobs, jobs=1).results
        ]
        # Five pull shards over 12 jobs in grants of 5: the grant
        # boundaries (jobs 5 and 10) split both cells' 6-seed sweeps
        # (jobs 0-5 and 6-11), so the merged rows prove a batch can be cut
        # anywhere without perturbing a lane.
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            threads = [
                threading.Thread(
                    target=run_shard,
                    args=(collector.address, jobs),
                    kwargs=dict(batch=5),
                )
                for _ in range(5)
            ]
            for thread in threads:
                thread.start()
            # Shards return only after the collector granted them ``done``.
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            merged = collector.run(timeout=120)
        assert [row_line(row) for row in merged] == baseline

    def test_batched_without_numpy_exits_two_with_hint(self, capsys, monkeypatch):
        import repro.kernel.batched as batched_module

        monkeypatch.setattr(batched_module, "_np", None)
        code = main(["campaign", "--scenario", "figure1",
                     "--engine", "batched", "--steps", "20"])
        err = capsys.readouterr().err
        assert code == 2
        assert "repro-cc[batched]" in err

"""Self-tests of the benchmark, at a tiny size.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root (tier-1 collects ``tests/`` only).
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from passes import Runner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and compute references live under ``tmp_path``."""
    monkeypatch.setattr(workloads, "KERNEL_LONG_STEPS", 4)
    monkeypatch.setattr(workloads, "KERNEL_LONG_SEEDS", 1)
    monkeypatch.setattr(workloads, "CAMPAIGN_MANY_STEPS", 30)
    monkeypatch.setattr(workloads, "CAMPAIGN_MANY_SEEDS", 1)
    monkeypatch.setattr(workloads, "CAMPAIGN_MANY_RANDOM", 1)
    monkeypatch.setattr(workloads, "BATCHED_SWEEP_STEPS", 4)
    monkeypatch.setattr(workloads, "BATCHED_SWEEP_LANES", 3)
    monkeypatch.setattr(reference, "PINNED_PATH", tmp_path / "no-pins.json")
    return tmp_path


def _bench(name, trace, state_dir, seed=1):
    return run.benchmark(
        name, seed, 0.0, trace, state_dir, setup_repeats=1, measure_host=False
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(tiny, name, trace):
    record = _bench(name, trace, tiny / "state")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (key, metric["unit"]) for key, metric in record["metrics"].items()
    ]
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert record["traced_rows_identical"]
    text = "\n".join(run.report_lines(record))
    for key, metric in record["metrics"].items():
        assert any(
            line.split()[0] == key and line.split()[-1] == metric["unit"]
            for line in text.splitlines()
        )
    assert "failed_run_frac" in text
    result = json.loads(run.result_line([record]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        for key in ("steps_per_s", "runs_per_s", "setup_s", "peak_rss_mb"):
            assert record["metrics"][key]["value"] > 0


def test_altered_reference_row_is_counted_as_failed(tiny):
    state = tiny / "state"
    first = _bench("kernel-long", False, state)
    assert first["failed"] == 0
    (cached,) = (state / "refs").glob("kernel-long-1-*.json")
    ref = json.loads(cached.read_text())
    rows = ref["rows"]
    flipped = "0" if rows[0] != "0" else "1"
    ref["rows"] = flipped + rows[1:]
    cached.write_text(json.dumps(ref))
    second = _bench("kernel-long", False, state)
    assert second["reference"] == "cached"
    assert second["failed"] == second["passes"]  # job 0 of every pass
    assert second["failed_run_frac"] > 0
    assert not second["correct"]
    assert not json.loads(run.result_line([second]))["correct"]


def test_warm_cache_counts_hits_not_executed_steps(tiny):
    workload = workloads.WORKLOADS["campaign-many"]
    jobs = workloads.build_jobs("campaign-many", 1)
    workdir = tiny / "work"
    workdir.mkdir()
    runner = Runner(workload, jobs, workdir, cached_jobs=jobs)
    metrics, _wall_clock, passes = run.timed_metrics(runner, 0.0)
    (result,) = passes
    assert len(result.rows) == len(jobs)
    assert sum(chunk.executed_steps for chunk in result.chunks) == 0
    assert metrics["steps_per_s"] == 0.0
    assert metrics["runs_per_s"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_jobs(name):
    workload = workloads.WORKLOADS[name]
    three = workloads.build_jobs(name, 3)
    four = workloads.build_jobs(name, 4)
    assert three == workloads.build_jobs(name, 3)
    assert three != four and len(three) == len(four)
    for a, b in zip(three, four):
        changed = {
            field.name
            for field in dataclasses.fields(a)
            if getattr(a, field.name) != getattr(b, field.name)
        }
        assert changed == {"seed"}
    assert [len(c) for c in workloads.chunks(workload, three)] == [
        len(c) for c in workloads.chunks(workload, four)
    ]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_pinned_references_match_the_workloads():
    pinned = reference.load_pinned()
    assert set(pinned) == set(workloads.WORKLOADS)
    for name, entries in pinned.items():
        seed, entry = next(iter(entries.items()))
        jobs = workloads.build_jobs(name, int(seed))
        assert entry["jobs"] == reference.jobs_digest(jobs)
        assert len(entry["rows"]) == reference.DIGEST_CHARS * len(jobs)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

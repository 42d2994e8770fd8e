"""Repository benchmark: campaign workloads timed end to end, traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` times passes of the workload for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with layer wrappers installed (serially) and reports the
per-layer metrics.  Every row of every pass is checked against the
workload's reference rows (see ``reference.py``).  Human-readable metric
lines and one ``RECORD`` line (metrics plus host and commit attribution)
come first; the last line of standard output is the JSON result.  Exits
non-zero without a result when the program cannot be imported or run.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Workload, build_jobs  # noqa: E402

#: name -> unit, reported with ``--trace 0``.
END_TO_END = {
    "steps_per_s": "1/s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: name -> unit, reported with ``--trace 1``.  Layer times are self times
#: in seconds over one traced pass, except ``campaign.jobs.run_setup_s``
#: (per executed run); ``*_share`` is a layer's self time over the
#: executor's wall time.
PER_LAYER = {
    "kernel.guard.enabled_action_per_step": "1/step",
    "kernel.guard.evals_per_step": "1/step",
    "kernel.guard.useful_ratio": "ratio",
    "kernel.guard.share": "ratio",
    "kernel.configuration.reads_per_step": "1/step",
    "kernel.configuration.updated_s": "s",
    "kernel.statement.per_step": "1/step",
    "kernel.statement.s": "s",
    "kernel.scheduler.steps": "count",
    "kernel.scheduler.step_self_s": "s",
    "kernel.daemon.select_s": "s",
    "kernel.faults.injections": "count",
    "kernel.faults.share": "ratio",
    "metrics.collector.observe_s": "s",
    "spec.streaming.observe_s": "s",
    "spec.streaming.verdicts_s": "s",
    "campaign.jobs.run_setup_s": "s",
    "campaign.jobs.completed_row_s": "s",
    "kernel.batched.sweep_share": "ratio",
    "kernel.batched.fold_share": "ratio",
    "campaign.batched.lanes_per_group": "count",
    "campaign.batched.fallback_ratio": "ratio",
    "campaign.driver.plan_s": "s",
    "campaign.driver.collect_s": "s",
    "campaign.driver.pool_busy_frac": "ratio",
    "campaign.store.cache_lookups": "count",
    "campaign.store.cache_hit_ratio": "ratio",
    "campaign.store.cache_lookup_share": "ratio",
    "campaign.store.cache_store_share": "ratio",
    "campaign.store.column_write_s": "s",
    "campaign.store.cell_stats_s": "s",
    "campaign.sinks.write_share": "ratio",
    "campaign.sinks.bytes": "bytes",
    "trace_overhead": "ratio",
}
#: Self times of layers some workload leaves idle.  An idle layer reads
#: exactly 0 s on every run, so these are printed and kept in the RECORD
#: but stay out of the result line, which carries their ``*_share``.
IDLE_PRONE = {
    "kernel.guard.s": "s",
    "kernel.faults.s": "s",
    "kernel.batched.sweep_s": "s",
    "kernel.batched.fold_s": "s",
    "campaign.store.cache_lookup_s": "s",
    "campaign.store.cache_store_s": "s",
    "campaign.sinks.write_s": "s",
}
#: Interleaved untimed/traced pass pairs per traced run.
TRACE_REPEATS = 2
#: Probe time (s) the throughput metrics are scaled to: about the probe's
#: median on an undisturbed 2.1 GHz x86-64 core under CPython 3.11.
PROBE_REF_S = 0.006
#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 7

# Runs in a fresh interpreter: import repro, validate the specs, expand the
# jobs; then the speed probe (median of three), for the same scaling as
# the throughput metrics.
_SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import repro\n"
    "from workloads import build_jobs\n"
    "jobs = build_jobs(sys.argv[3], int(sys.argv[4]))\n"
    "elapsed = time.perf_counter() - start\n"
    "from passes import probe\n"
    "print(elapsed, sorted(probe() for _ in range(3))[1], len(jobs))\n"
)


def measure_setup(name: str, seed: int, repeats: int = SETUP_REPEATS) -> Tuple[float, float]:
    """``(probe-scaled, wall-clock)`` median set-up time over fresh interpreters."""
    scaled = []
    walls = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(ROOT / "src"), str(HERE), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, probe_time, _jobs = out.stdout.split()
        walls.append(float(elapsed))
        scaled.append(float(elapsed) / float(probe_time) * PROBE_REF_S)
    return median(scaled), median(walls)


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs every timed job (no workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_rows(ref: Dict[str, object], passes: Sequence) -> Tuple[int, int]:
    """``(attempted, failed)`` runs over ``passes`` against the reference."""
    attempted = failed = 0
    for result in passes:
        attempted += len(result.rows)
        failed += len(reference.mismatches(ref, result.rows))
    return attempted, failed


# --------------------------------------------------------------------------- #
# timed run (--trace 0)
# --------------------------------------------------------------------------- #
def timed_metrics(runner, seconds: float) -> Tuple[Dict[str, float], Dict[str, float], List]:
    """``(metrics, wall-clock figures, passes)`` after ``seconds`` of timed passes.

    A chunk's cost is its wall time over the probe time measured around
    it, at the pass where that ratio is lowest; the throughput
    metrics convert the summed costs back to seconds at ``PROBE_REF_S``.
    Interference from other tenants slows the machine by tens of percent
    over tens of seconds; the probe ratio cancels most of that, and the
    lowest ratio drops the bursts that hit a chunk but not its probe.
    """
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        result = runner.run_pass()
        passes.append(result)
        measured += result.wall
    per_chunk = list(zip(*(result.chunks for result in passes)))
    steps = sum(median(run.executed_steps for run in runs) for runs in per_chunk)
    rows = sum(runs[0].rows for runs in per_chunk)
    cost = sum(min(run.wall / run.probe for run in runs) for runs in per_chunk) * PROBE_REF_S
    wall = sum(median(run.wall for run in runs) for runs in per_chunk)
    metrics = {
        "steps_per_s": steps / cost,
        "runs_per_s": rows / cost,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall_clock = {
        "steps_per_s": steps / wall,
        "runs_per_s": rows / wall,
        "probe_s": median(run.probe for runs in per_chunk for run in runs),
    }
    return metrics, wall_clock, passes


# --------------------------------------------------------------------------- #
# traced run (--trace 1)
# --------------------------------------------------------------------------- #
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, traced, overhead: float, busy_frac: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass."""
    self_s = tracer.self_times()
    steps = sum(chunk.executed_steps for chunk in traced.chunks)
    runs = sum(chunk.executed_runs for chunk in traced.chunks)
    execute = tracer.total("campaign.driver.execute")
    guard_evals = tracer.count("kernel.guard.evals")
    lookups = tracer.calls("campaign.store.cache_lookup")
    batched_jobs = sum(tracer.lanes)
    s = self_s.get
    return {
        "kernel.guard.enabled_action_per_step": _ratio(tracer.calls("kernel.guard"), steps),
        "kernel.guard.evals_per_step": _ratio(guard_evals, steps),
        "kernel.guard.useful_ratio": _ratio(tracer.count("kernel.guard.useful"), guard_evals),
        "kernel.guard.s": s("kernel.guard", 0.0),
        "kernel.guard.share": _ratio(s("kernel.guard", 0.0), execute),
        "kernel.faults.share": _ratio(s("kernel.faults", 0.0), execute),
        "kernel.batched.sweep_share": _ratio(s("kernel.batched.sweep", 0.0), execute),
        "kernel.batched.fold_share": _ratio(s("kernel.batched.fold", 0.0), execute),
        "campaign.store.cache_lookup_share": _ratio(s("campaign.store.cache_lookup", 0.0), execute),
        "campaign.store.cache_store_share": _ratio(s("campaign.store.cache_store", 0.0), execute),
        "campaign.sinks.write_share": _ratio(s("campaign.sinks.write", 0.0), execute),
        "kernel.configuration.reads_per_step": _ratio(tracer.count("kernel.configuration.reads"), steps),
        "kernel.configuration.updated_s": s("kernel.configuration.updated", 0.0),
        "kernel.statement.per_step": _ratio(tracer.calls("kernel.statement"), steps),
        "kernel.statement.s": s("kernel.statement", 0.0),
        "kernel.scheduler.steps": steps,
        "kernel.scheduler.step_self_s": s("kernel.scheduler.step", 0.0),
        "kernel.daemon.select_s": s("kernel.daemon.select", 0.0),
        "kernel.faults.injections": tracer.count("kernel.faults.injections"),
        "kernel.faults.s": s("kernel.faults", 0.0),
        "metrics.collector.observe_s": s("metrics.collector.observe", 0.0),
        "spec.streaming.observe_s": s("spec.streaming.observe", 0.0),
        "spec.streaming.verdicts_s": s("spec.streaming.verdicts", 0.0),
        "campaign.jobs.run_setup_s": _ratio(s("campaign.jobs.run", 0.0), runs),
        "campaign.jobs.completed_row_s": s("campaign.jobs.completed_row", 0.0),
        "kernel.batched.sweep_s": s("kernel.batched.sweep", 0.0),
        "kernel.batched.fold_s": s("kernel.batched.fold", 0.0),
        "campaign.batched.lanes_per_group": _ratio(batched_jobs, len(tracer.lanes)),
        "campaign.batched.fallback_ratio": _ratio(tracer.count("campaign.batched.fallback_runs"), batched_jobs),
        "campaign.driver.plan_s": s("campaign.driver.plan", 0.0),
        "campaign.driver.collect_s": s("campaign.driver.collect", 0.0),
        "campaign.driver.pool_busy_frac": busy_frac,
        "campaign.store.cache_lookups": lookups,
        "campaign.store.cache_hit_ratio": _ratio(tracer.count("campaign.store.cache_hits"), lookups),
        "campaign.store.cache_lookup_s": s("campaign.store.cache_lookup", 0.0),
        "campaign.store.cache_store_s": s("campaign.store.cache_store", 0.0),
        "campaign.store.column_write_s": s("campaign.store.column_write", 0.0),
        "campaign.store.cell_stats_s": s("campaign.store.cell_stats", 0.0),
        "campaign.sinks.write_s": s("campaign.sinks.write", 0.0),
        "campaign.sinks.bytes": sum(chunk.sink_bytes for chunk in traced.chunks),
        "trace_overhead": overhead,
    }


def traced_metrics(runner, trace_path: Optional[Path]) -> Tuple[Dict[str, float], List, bool]:
    """``(per-layer metrics, passes, traced rows == untimed rows)``."""
    from tracing import Tracer

    workload = runner.workload
    # Pool occupancy comes from an untraced run with the workload's own
    # dispatch; only the executor boundary is timed there.
    busy_timer = Tracer()
    with busy_timer.executors():
        busy_pass = runner.run_pass(workload.pool, whole=workload.pool > 1)
    executor_wall = busy_timer.total("campaign.driver.execute")
    workers = max(chunk.workers for chunk in busy_pass.chunks)
    busy_frac = _ratio(sum(chunk.busy for chunk in busy_pass.chunks), workers * executor_wall)
    # Wrappers do not cross processes: the untimed baseline and the traced
    # run both dispatch serially, interleaved, and the overhead compares
    # their medians.  Layer numbers come from the last traced pass.
    untimed: List = []
    traced: List = []
    for repeat in range(TRACE_REPEATS):
        reuse = repeat == 0 and workload.pool == 1
        untimed.append(busy_pass if reuse else runner.run_pass())
        tracer = Tracer()
        with tracer:
            traced.append(runner.run_pass())
    if trace_path is not None:
        tracer.dump(str(trace_path))
    passes = [busy_pass] + [p for p in untimed if p is not busy_pass] + traced
    identical = all(p.lines == busy_pass.lines for p in passes)
    overhead = median(p.wall for p in traced) / median(p.wall for p in untimed) - 1.0
    return layer_metrics(tracer, traced[-1], overhead, busy_frac), passes, identical


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #
def benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    state_dir: Path,
    setup_repeats: int = SETUP_REPEATS,
    measure_host: bool = True,
) -> Dict[str, object]:
    """Run one workload; return the full result record."""
    from passes import Runner

    loadavg = host.start_loadavg()
    workload: Workload = WORKLOADS[name]
    jobs = build_jobs(name, seed)
    state_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=state_dir))
    try:
        runner = Runner(workload, jobs, workdir)
        identical = True
        wall_clock: Dict[str, float] = {}
        if trace:
            trace_path = state_dir / f"trace-{name}-{seed}.json"
            metrics, passes, identical = traced_metrics(runner, trace_path)
        else:
            metrics, wall_clock, passes = timed_metrics(runner, seconds)
            metrics["setup_s"], wall_clock["setup_s"] = measure_setup(name, seed, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref, source = reference.reference_for(
        name, seed, jobs, state_dir / "refs", workers=min(2, os.cpu_count() or 1)
    )
    attempted, failed = check_rows(ref, passes)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "jobs": len(jobs),
        "passes": len(passes),
        "reference": source,
        "reference_statuses": ref["statuses"],
        "reference_violations": ref["violations"],
        "traced_rows_identical": identical,
        "attempted": attempted,
        "failed": failed,
        "failed_run_frac": failed / attempted,
        "correct": failed == 0 and identical,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "wall_clock": wall_clock,
        "details": (
            {key: {"value": metrics[key], "unit": unit} for key, unit in IDLE_PRONE.items()}
            if trace
            else {}
        ),
        "host": host.host_record(ROOT, loadavg) if measure_host else None,
    }


def report_lines(record: Dict[str, object]) -> List[str]:
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"jobs={record['jobs']} passes={record['passes']} reference={record['reference']} "
        f"statuses={record['reference_statuses']} violations={record['reference_violations']}"
    ]
    for key, metric in list(record["metrics"].items()) + list(record["details"].items()):
        lines.append(f"{key:<40} {metric['value']:>16.6g} {metric['unit']}")
    lines.append(f"{'failed_run_frac':<40} {record['failed_run_frac']:>16.6g} ratio")
    return lines


def result_line(records: Sequence[Dict[str, object]]) -> str:
    """The final JSON line; several workloads are merged with prefixed names."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{key}": metric
            for record in records
            for key, metric in record["metrics"].items()
        }
    return json.dumps(
        {
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics,
        }
    )


def stop_resource_tracker() -> None:
    """Stop and join the helper process ``multiprocessing`` starts with a pool.

    The tracker would otherwise outlive this process by a moment; the
    benchmark leaves no process of its own running when it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = benchmark(name, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
        records.append(record)
        print("\n".join(report_lines(record)))
        print("RECORD " + json.dumps(record, sort_keys=True))
    stop_resource_tracker()
    sys.stdout.flush()
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tier-1 guard for the benchmark's hook points.

``perfbench/tracing.py`` attributes time to layers by replacing named
attributes of the ``repro`` modules and classes for the duration of a
traced run.  Tier-1 collects only ``tests/``, so renaming one of those
attributes would otherwise surface only when the benchmark runs.  Here a
two-job campaign runs under the tracer: the layer spans must be recorded,
the rows must not change, and uninstalling must put every original back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.campaign import CampaignSpec, expand_jobs, run_campaign

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # Loaded by path, without leaving a bytecode cache next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    """The (owner, attribute) pairs the campaign-layer spans hang off."""
    import repro.campaign.batched as batched
    import repro.campaign.driver as driver
    import repro.campaign.jobs as jobs
    import repro.core.batched_program as batched_program
    import repro.kernel.batched as batched_kernel
    import repro.kernel.faults as faults
    import repro.kernel.scheduler as scheduler

    return [
        (driver.SerialExecutor, "run"),
        (driver.PoolExecutor, "run"),
        (driver.CampaignPlan, "__init__"),
        (driver.RowCollector, "collect"),
        (driver.RowCollector, "add_cached"),
        (jobs, "execute_job"),
        (driver, "execute_job"),
        (jobs, "completed_row"),
        (batched, "_run_job"),
        (batched, "execute_job_group"),
        (scheduler.Scheduler, "step"),
        (batched_kernel.BatchedScheduler, "run"),
        (batched_program.BatchedProgram, "sweep"),
        (batched_program.BatchedProgram, "fold"),
        (faults.FaultInjector, "corrupt_scheduler"),
    ]


def test_traced_campaign_records_layer_spans_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    jobs = expand_jobs(
        CampaignSpec(scenarios=("figure1",), algorithms=("cc1",), seeds=(1, 2), max_steps=20)
    )
    assert len(jobs) == 2
    untraced = run_campaign(jobs, jobs=1).jsonl_lines()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in _hooked()}

    tracer = tracing.Tracer()
    with tracer:
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, f"{attr} of {owner!r} not wrapped"
        traced = run_campaign(jobs, jobs=1).jsonl_lines()
        saved = list(tracer._saved)

    assert traced == untraced
    for name in (
        "campaign.driver.execute",
        "campaign.driver.plan",
        "campaign.jobs.run",
        "kernel.scheduler.step",
    ):
        assert tracer.calls(name) > 0, f"no {name} span recorded"
    assert tracer.calls("campaign.jobs.run") == len(jobs)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original


def test_traced_incremental_run_counts_guard_layer(monkeypatch):
    # A fast path that bypassed ``enabled_action``, ``Action.enabled`` or
    # ``Configuration.get`` would zero these layer metrics without failing
    # any row check.
    from repro.core.runner import CommitteeCoordinator
    from repro.hypergraph.generators import figure1_hypergraph
    from repro.kernel.daemon import default_daemon
    from repro.kernel.scheduler import Scheduler
    from repro.workloads.request_models import AlwaysRequestingEnvironment

    tracing = _load_tracing(monkeypatch)
    algorithm = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2").algorithm
    tracer = tracing.Tracer()
    with tracer:
        scheduler = Scheduler(
            algorithm,
            environment=AlwaysRequestingEnvironment(),
            daemon=default_daemon(seed=3),
            engine="incremental",
        )
        assert scheduler.run(max_steps=40).steps > 0

    assert tracer.calls("kernel.guard") > 0
    assert tracer.count("kernel.guard.evals") > 0
    assert tracer.count("kernel.configuration.reads") > 0


def test_traced_batched_campaign_keeps_rows_and_lane_spans(monkeypatch):
    # One three-lane group of the batched engine: the lanes must run through
    # the vectorized sweep and the shared step bookkeeping, and every row
    # must come from the batched attempt, not the solo fallback.
    tracing = _load_tracing(monkeypatch)
    jobs = expand_jobs(
        CampaignSpec(
            scenarios=("figure1",),
            algorithms=("cc2",),
            engines=("batched",),
            seeds=(1, 2, 3),
            max_steps=30,
        )
    )
    assert len(jobs) == 3
    untraced = run_campaign(jobs, jobs=1).jsonl_lines()

    tracer = tracing.Tracer()
    with tracer:
        traced = run_campaign(jobs, jobs=1).jsonl_lines()

    assert traced == untraced
    assert tracer.lanes == [3]
    assert tracer.calls("kernel.batched.sweep") > 0
    assert tracer.calls("kernel.scheduler.step") > 0
    assert tracer.calls("campaign.jobs.completed_row") == 3
    assert tracer.count("campaign.batched.fallback_runs") == 0

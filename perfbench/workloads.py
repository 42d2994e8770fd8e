"""The benchmark's workloads: seeded job lists and how each is dispatched.

A workload turns one integer seed into a list of
:class:`~repro.campaign.jobs.RunJob` objects (through the public
``CampaignSpec`` / ``expand_jobs`` API) and fixes how those jobs are handed
to :func:`~repro.campaign.runner.run_campaign`: how the job list is cut
into timed chunks, whether rows stream to a ``JsonlSink``, whether a
half-warm ``RunCache`` sits in front, and how many pool workers the traced
run's occupancy pass uses.  The program under test only
ever receives the generated jobs.

This module imports nothing from ``repro`` at import time, so that the
fresh-interpreter ``setup_s`` measurement (see ``run.py``) times the import
of ``repro`` itself.  See ``perfbench/README.md`` for why each workload was
chosen and which layers it is expected to leave idle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

#: Step budget of one ``kernel-long`` run: on n = 36-100 graphs per-run
#: construction stays a few percent of a job.
KERNEL_LONG_STEPS = 50
#: Run seeds per ``kernel-long`` cell and start.  Per-job step rates differ
#: by up to 2x between seeds, so one run per cell made the workload's
#: throughput depend on the seed by 15%; three average that down.
KERNEL_LONG_SEEDS = 3
#: Step budget of one ``campaign-many`` run.
CAMPAIGN_MANY_STEPS = 60
#: Step budget and lanes (seeds) per lockstep group of ``batched-sweep``.
BATCHED_SWEEP_STEPS = 60
BATCHED_SWEEP_LANES = 64
#: Per-cell run seeds of ``campaign-many`` and its randomized scenarios.
CAMPAIGN_MANY_SEEDS = 4
CAMPAIGN_MANY_RANDOM = 8

ALGORITHMS = ("cc1", "cc2", "cc3")


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    #: Why the workload exists (one line; mirrored in BENCHMARK.json).
    why: str
    #: ``seed -> CampaignSpec`` list; expanded in order and re-indexed.
    specs: Callable[[int], List[object]]
    #: Workers of the untimed pass that measures pool occupancy in a traced
    #: run (1 = serial dispatch).  Timed passes always dispatch serially: on
    #: a two-core machine shared with other tenants, two pool workers swing
    #: with the neighbours' load far more than one process does.
    pool: int
    #: What one ``run_campaign`` call receives: ``"job"`` or ``"cell"`` (the
    #: consecutive jobs of one scenario x algorithm cell).
    chunk: str
    #: Stream rows to a ``JsonlSink``.
    sink: bool = False
    #: Put a ``RunCache`` holding every other job's row in front.
    half_cache: bool = False


def _kernel_long(seed: int) -> List[object]:
    from repro.campaign import CampaignSpec

    first = KERNEL_LONG_SEEDS * seed
    return [
        CampaignSpec(
            scenarios=("grid-6x6", "cycle-100"),
            algorithms=ALGORITHMS,
            tokens=("tree",),
            engines=("incremental",),
            daemons=("weakly_fair",),
            seeds=tuple(range(first, first + KERNEL_LONG_SEEDS)),
            max_steps=KERNEL_LONG_STEPS,
            arbitrary_start=arbitrary,
        )
        for arbitrary in (False, True)
    ]


def _campaign_many(seed: int) -> List[object]:
    from repro.campaign import CampaignSpec, FaultSchedule

    first = CAMPAIGN_MANY_SEEDS * seed + 1
    return [
        CampaignSpec(
            scenarios=("figure1", "grid-3x3", "star-5", "path-8"),
            random_count=CAMPAIGN_MANY_RANDOM,
            random_base_seed=0,
            algorithms=ALGORITHMS,
            engines=("incremental",),
            faults=(FaultSchedule(), FaultSchedule.parse("25:0.3")),
            seeds=tuple(range(first, first + CAMPAIGN_MANY_SEEDS)),
            max_steps=CAMPAIGN_MANY_STEPS,
        )
    ]


def _batched_sweep(seed: int) -> List[object]:
    from repro.campaign import CampaignSpec

    first = BATCHED_SWEEP_LANES * seed
    return [
        CampaignSpec(
            scenarios=("grid-3x3", "figure1"),
            algorithms=ALGORITHMS,
            engines=("batched",),
            seeds=tuple(range(first, first + BATCHED_SWEEP_LANES)),
            max_steps=BATCHED_SWEEP_STEPS,
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="kernel-long",
            why=(
                "runs on n=36-100 graphs: guard and statement costs dominate; "
                "per-run setup, driver, store and sink costs are negligible"
            ),
            specs=_kernel_long,
            pool=1,
            chunk="job",
        ),
        Workload(
            name="campaign-many",
            why=(
                "short faulty runs on small graphs through a sink and a half-warm cache: "
                "per-run construction, faults, listeners, driver, store and sink costs weigh"
            ),
            specs=_campaign_many,
            pool=2,
            chunk="cell",
            sink=True,
            half_cache=True,
        ),
        Workload(
            name="batched-sweep",
            why=(
                "64-lane lockstep groups on the batched engine: the vectorized sweep "
                "replaces per-process guards, statements still run per lane"
            ),
            specs=_batched_sweep,
            pool=1,
            chunk="cell",
        ),
    )
}


def build_jobs(name: str, seed: int) -> List[object]:
    """The workload's job list for ``seed``: expanded, validated, re-indexed."""
    from repro.campaign import expand_jobs

    jobs: List[object] = []
    for spec in WORKLOADS[name].specs(seed):
        jobs.extend(expand_jobs(spec))
    return [replace(job, index=index) for index, job in enumerate(jobs)]


def chunks(workload: Workload, jobs: List[object]) -> List[List[object]]:
    """Cut the job list into the units one ``run_campaign`` call receives."""
    if workload.chunk == "job":
        return [[job] for job in jobs]
    cells: List[List[object]] = []
    for job in jobs:
        if cells and (cells[-1][0].scenario, cells[-1][0].algorithm) == (job.scenario, job.algorithm):
            cells[-1].append(job)
        else:
            cells.append([job])
    return cells


def cached_half(jobs: List[object]) -> List[object]:
    """The jobs whose rows the half-warm cache holds: every other one."""
    return jobs[1::2]

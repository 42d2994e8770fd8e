"""One pass of a workload: every chunk through ``run_campaign``, timed per chunk.

Everything a user's campaign pays is inside a chunk's timed region: the
``run_campaign`` call itself (plan, cache probe, dispatch, pool start-up,
collection, sink and store writes) and the summary table the CLI would
print.  What the harness needs to set the stage — a fresh copy of the
half-warm cache, a fresh sink path, the speed probe — happens outside it.

The speed probe is a fixed piece of interpreter-bound work (method calls
and dict lookups, the mix that dominates the kernel) timed right before
and right after every chunk.  On a machine shared with other tenants the whole machine
slows down and speeds up by tens of percent over tens of seconds; the
probe tracks that, so ``run.py`` can report throughput at a fixed probe
speed (see ``README.md``).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from workloads import Workload, cached_half, chunks


class _Probe:
    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table = {key: key for key in range(64)}

    def get(self, key: int, default: int = 0) -> int:
        return self.table.get(key, default)


def probe() -> float:
    """Wall time of a fixed piece of interpreter-bound work (about 5 ms)."""
    target = _Probe()
    total = 0
    start = time.perf_counter()
    for _ in range(1750):
        for key in range(40):
            total += target.get(key)
    return time.perf_counter() - start


@dataclass
class ChunkRun:
    wall: float
    #: Mean speed-probe time right before and right after the chunk.
    probe: float
    rows: int
    executed_runs: int
    executed_steps: int
    #: Σ ``JobResult.elapsed_seconds`` of the executed runs.
    busy: float
    workers: int
    sink_bytes: int


@dataclass
class PassResult:
    chunks: List[ChunkRun] = field(default_factory=list)
    #: Job-ordered rows of the whole workload.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Job-ordered canonical row lines (byte-identity checks).
    lines: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(chunk.wall for chunk in self.chunks)


class Runner:
    """Runs passes of one workload's job list inside ``workdir``."""

    def __init__(
        self,
        workload: Workload,
        jobs: Sequence[object],
        workdir: Path,
        cached_jobs: Optional[Sequence[object]] = None,
    ) -> None:
        self.workload = workload
        self.jobs = list(jobs)
        self.chunks = chunks(workload, self.jobs)
        self.workdir = workdir
        self.template: Optional[Path] = None
        if workload.half_cache or cached_jobs is not None:
            self._fill_template(cached_half(self.jobs) if cached_jobs is None else cached_jobs)

    def _fill_template(self, cached_jobs: Sequence[object]) -> None:
        """Run the jobs the cache should hold once, serially, into a template dir."""
        from repro.campaign import RunCache, run_campaign

        self.template = self.workdir / "cache-template"
        run_campaign(list(cached_jobs), jobs=1, cache=RunCache(str(self.template)))

    def run_pass(self, workers: int = 1, whole: bool = False) -> PassResult:
        """Every chunk (or, with ``whole``, the whole list at once) in order."""
        from repro.campaign import JsonlSink, RunCache, run_campaign

        result = PassResult()
        # One fresh copy of the half-warm cache per pass: chunks hold
        # disjoint jobs, so no chunk can hit a row an earlier one stored.
        cache_path = self.workdir / "cache"
        if self.template is not None:
            shutil.copytree(self.template, cache_path)
        for number, chunk in enumerate([self.jobs] if whole else self.chunks):
            cache = sink = None
            sink_path = self.workdir / f"rows-{number}.jsonl"
            if self.template is not None:
                cache = RunCache(str(cache_path))
            if self.workload.sink:
                sink = JsonlSink(str(sink_path))
            probe_before = probe()
            start = time.perf_counter()
            try:
                campaign = run_campaign(chunk, jobs=workers, sink=sink, cache=cache)
                campaign.summary_rows()
                wall = time.perf_counter() - start
            finally:
                if sink is not None:
                    sink.close()
            probe_time = (probe_before + probe()) / 2
            # Cache hits come back with no wall time; executed runs carry theirs.
            executed = [r for r in campaign.results if r.elapsed_seconds > 0]
            sink_bytes = sink_path.stat().st_size if sink is not None else 0
            result.chunks.append(
                ChunkRun(
                    wall=wall,
                    probe=probe_time,
                    rows=len(campaign.results),
                    executed_runs=len(executed),
                    executed_steps=sum(r.steps for r in executed),
                    busy=sum(r.elapsed_seconds for r in executed),
                    workers=campaign.workers,
                    sink_bytes=sink_bytes,
                )
            )
            result.rows.extend(campaign.rows)
            result.lines.extend(campaign.jsonl_lines())
            if sink is not None:
                sink_path.unlink()
        if self.template is not None:
            shutil.rmtree(cache_path)
        return result

"""``run_campaign``: the classic one-call frontend, one driver call.

:func:`run_campaign` expands a :class:`~repro.campaign.matrix.CampaignSpec`
(or takes pre-expanded jobs), executes every job — serially for ``jobs=1``,
across a ``multiprocessing`` pool otherwise — and returns a
:class:`CampaignResult` with per-run rows in job-index order, per-cell
summary rows and the campaign wall-clock.  It is one
:meth:`CampaignDriver(...).execute() <repro.campaign.driver.CampaignDriver.execute>`
call with the defaults (no resume, no shard, no collector): the CLI, the
shard client and the service layer drive the same pipeline with more
context, so there is one plan → dispatch → collect path to trust.

Determinism contract: each row is a pure function of its
:class:`~repro.campaign.jobs.RunJob`, results are re-sorted by job index
after the (order-unstable) pool drain, and JSONL serialization sorts keys —
so ``--jobs 4`` output is byte-identical to ``--jobs 1`` output.  Timing is
carried *next to* the rows (:attr:`~repro.campaign.jobs.JobResult.elapsed_seconds`)
and only enters the JSONL when ``include_timing=True`` is requested
explicitly.

Crash safety rides on top of that contract: pass a
:class:`~repro.campaign.sinks.RowSink` and every row is handed over in
*completion* order the moment its job finishes (the job index travels
in-row), worker exceptions become ``status="error"`` rows instead of pool
death, and :mod:`repro.campaign.resume` turns a partial JSONL stream back
into the remaining jobs.

The pool uses the ``spawn`` start method by default: it is the only method
available everywhere and the strictest about what a worker can receive,
which keeps :func:`~repro.campaign.jobs.execute_job` honest (enforced by
``tools/check_repo.py``).  Pass ``mp_context="fork"`` on platforms where the
per-worker interpreter start-up dominates very small campaigns (exposed as
``repro-cc campaign --mp-context``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.driver import CampaignDriver
from repro.campaign.jobs import JobResult, RunJob
from repro.campaign.matrix import CampaignSpec
from repro.campaign.sinks import RowSink, row_line, write_lines_atomic
from repro.campaign.store import ColumnStore, RunCache

__all__ = ["CampaignResult", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    jobs: List[RunJob]
    results: List[JobResult]  # in job-index order
    workers: int
    elapsed_seconds: float  # campaign wall-clock
    #: The live per-row aggregate the collect stage accumulated during the
    #: drain (when the campaign ran through the driver); ``summary_rows``
    #: serves from it instead of rebuilding a store, and the service layer
    #: mounts it as the campaign's queryable view.
    store: Optional[ColumnStore] = field(default=None, repr=False, compare=False)

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Per-run rows, deterministic and in job order."""
        return [result.row for result in self.results]

    @property
    def violations(self) -> int:
        """Number of completed runs in which some checked property failed."""
        return sum(1 for result in self.results if result.status == "violation")

    @property
    def errors(self) -> int:
        """Number of runs whose worker raised (``status="error"`` rows)."""
        return sum(1 for result in self.results if result.status == "error")

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.errors == 0

    @property
    def total_steps(self) -> int:
        return sum(result.steps for result in self.results)

    @property
    def steps_per_sec(self) -> float:
        """Campaign-level throughput: executed steps per wall-clock second.

        Only rows executed in this campaign count: cache hits and resumed
        rows carry steps but no time here, so counting them would inflate
        the figure.  0.0 (not inf) when no wall-clock was recorded —
        ``Infinity`` is not valid JSON and poisons the summary table.
        """
        steps = sum(result.steps for result in self.results if result.executed)
        return steps / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def jsonl_lines(self, include_timing: bool = False) -> List[str]:
        """One sorted-key JSON object per run.

        ``include_timing=True`` adds a per-run ``steps_per_sec`` field —
        useful for perf digging, but machine- and load-dependent, so it
        breaks the byte-identical-across-worker-counts guarantee and is off
        by default.
        """
        return [row_line(result.output_row(include_timing)) for result in self.results]

    def write_jsonl(self, path: str, include_timing: bool = False) -> None:
        """Atomically replace ``path`` with the job-order rows.

        Goes through :func:`~repro.campaign.sinks.write_lines_atomic`, so
        the completion-order stream a crash-safe sink left at ``path`` is
        only ever *replaced whole* — a crash mid-rewrite cannot lose
        completed rows (the resume atomicity guarantee).
        """
        write_lines_atomic(
            path, (row_line(result.output_row(include_timing)) for result in self.results)
        )

    def _cell_stats(self) -> List[Dict[str, object]]:
        """Per-cell aggregates in the rows' first-appearance (job) order.

        Serves from the carried live :attr:`store` when it covers exactly
        these results; otherwise (hand-built result, store/results drift)
        falls back to a fresh columnar pass.  The carried store accumulated
        rows in *completion* order, so cell order is re-derived from the
        job-ordered results either way — the summary is byte-identical to
        the historical rebuild-from-rows path.
        """
        store = self.store
        if store is None or len(store) != len(self.results):
            store = ColumnStore.from_rows(self.rows)
        stats: Dict[Tuple[object, object], Dict[str, object]] = {
            (cell["scenario"], cell["algorithm"]): cell for cell in store.cell_stats()
        }
        ordered: List[Dict[str, object]] = []
        seen = set()
        for result in self.results:
            key = (result.row["scenario"], result.row["algorithm"])
            if key not in seen:
                seen.add(key)
                ordered.append(stats[key])
        return ordered

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per (scenario, algorithm) cell plus a totals row.

        Reports run/violation counts, aggregate throughput and the fairness
        spread (Jain index range across the cell's runs).  Cell
        counts/steps/Jain come from the
        :class:`~repro.campaign.store.ColumnStore` the collect stage
        accumulated during the drain (the same aggregates ``repro-cc
        stats`` serves) and cover every row.  Throughput covers only the
        rows executed in this campaign (see :attr:`JobResult.executed
        <repro.campaign.jobs.JobResult.executed>`): a cell's executed steps
        over their summed per-run wall time (the workers' view, independent
        of how many ran concurrently), and for the totals row
        :attr:`steps_per_sec`; ``-`` where nothing was executed.
        """
        # Cell identity comes from the row itself (identity fields are
        # present on every row, error and resumed rows included), so
        # merged results need not align index-for-index with ``jobs``.
        executed_by_cell: Dict[tuple, List[float]] = {}
        for result in self.results:
            if result.executed:
                key = (result.row["scenario"], result.row["algorithm"])
                cell = executed_by_cell.setdefault(key, [0, 0.0])
                cell[0] += result.steps
                cell[1] += result.elapsed_seconds
        rows: List[Dict[str, object]] = []
        for cell in self._cell_stats():
            steps, elapsed = executed_by_cell.get((cell["scenario"], cell["algorithm"]), (0, 0.0))
            # Error rows carry no metrics; the Jain spread covers the
            # completed runs only (a fully errored cell renders "-").
            rows.append(
                {
                    "scenario": cell["scenario"],
                    "algorithm": cell["algorithm"],
                    "runs": cell["runs"],
                    "violations": cell["violations"],
                    "errors": cell["errors"],
                    "steps": cell["steps"],
                    "steps/s": round(steps / elapsed, 1) if elapsed > 0 else "-",
                    "jain min..max": (
                        f"{cell['jain_min']:.3f}..{cell['jain_max']:.3f}"
                        if cell["jain_min"] is not None
                        else "-"
                    ),
                }
            )
        rows.append(
            {
                "scenario": "TOTAL",
                "algorithm": "-",
                "runs": len(self.results),
                "violations": self.violations,
                "errors": self.errors,
                "steps": self.total_steps,
                "steps/s": (
                    round(self.steps_per_sec, 1)
                    if executed_by_cell and self.elapsed_seconds > 0
                    else "-"
                ),
                "jain min..max": f"wall {self.elapsed_seconds:.2f}s x{self.workers}",
            }
        )
        return rows


def run_campaign(
    spec_or_jobs: Union[CampaignSpec, Sequence[RunJob]],
    jobs: int = 1,
    mp_context: str = "spawn",
    progress: Optional[Callable[[JobResult, int, int], None]] = None,
    sink: Optional[RowSink] = None,
    sink_timing: bool = False,
    cache: Optional[RunCache] = None,
) -> CampaignResult:
    """Execute a campaign across ``jobs`` worker processes.

    ``progress`` (optional) is called in completion order with
    ``(result, completed, total)`` — completion order varies with the worker
    count, but the returned :class:`CampaignResult` is always re-sorted into
    job order, so everything downstream is deterministic.

    ``sink`` (optional) receives every row **in completion order**, the
    moment its job finishes — the crash-safety channel: a
    :class:`~repro.campaign.sinks.JsonlSink` has already flushed every
    completed row when the process dies, so ``--resume`` only re-runs what
    is genuinely missing.  The sink's lifecycle belongs to the caller (it
    is not closed here); ``sink_timing=True`` adds the machine-dependent
    ``steps_per_sec`` field to the streamed rows, mirroring
    ``jsonl_lines(include_timing=True)``.

    Worker exceptions do not abort the drain: :func:`execute_job` converts
    them into ``status="error"`` rows (see
    :attr:`CampaignResult.errors`), so one poisoned job cannot discard the
    other 9,999 completed results.

    ``cache`` (optional, a :class:`~repro.campaign.store.RunCache`) is
    consulted **before dispatch**: jobs whose identity block has a cached
    row short-circuit execution and drain the stored row immediately
    (byte-identical by construction — rows are pure functions of their
    jobs), and every freshly executed non-error result is stored back.
    Hits drain first, in job order, so a sink sees them before any
    executed row.
    """
    return CampaignDriver(
        spec_or_jobs,
        jobs=jobs,
        mp_context=mp_context,
        sink=sink,
        timing=sink_timing,
        cache=cache,
        progress=progress,
    ).execute()

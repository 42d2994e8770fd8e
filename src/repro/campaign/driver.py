"""The layered campaign driver: plan → dispatch → collect → finalize.

Every frontend that runs campaigns — the ``repro-cc campaign`` CLI, the
shard client feeding a ``collect`` service, a notebook, the future
always-on verification service — drives the same four stages:

* :class:`CampaignPlan` — matrix expansion, resume reconciliation (prior
  rows split into in-matrix and re-run-appendix parts), offline shard
  slice selection and the :class:`~repro.campaign.store.RunCache` probe.  Its
  outputs are ``cached_results`` (hits, in job order) and ``todo`` (what
  actually needs executing).
* :func:`dispatch` — drains a plan's cache hits, then runs its ``todo``
  through :class:`SerialExecutor` (owns the batched same-cell grouping)
  for one worker or at most one job, and through :class:`PoolExecutor` (a
  ``multiprocessing`` drain with a chosen start method) otherwise.
  :class:`ShardExecutor` (the acking collector-client protocol) pulls
  grants from a collector service and dispatches each one the same way.
  Executors know nothing about sinks or caches; they push every finished
  :class:`~repro.campaign.jobs.JobResult` into a collector.
* a :class:`RowCollector` — the single fan-out point: each completed row
  goes to the cache, the result list, the live
  :class:`~repro.campaign.store.ColumnStore` aggregate, the crash-safety
  sink and the progress callback, in that order, exactly once.
* a :class:`Finalizer` — summary table, cache statistics, the atomic
  job-order ``--out`` rewrite and the exit-code derivation, returned as a
  :class:`CampaignOutcome`.

:class:`CampaignDriver` composes the stages into the full CLI semantics
(resume + cache + sinks + offline shard slices + collector mode +
``--rerun-disagreements``), with ``info``/``warn`` callbacks instead of
hardwired printing, so ``cli._cmd_campaign`` is a flag-parsing adapter,
:func:`~repro.campaign.runner.run_campaign` is one driver call, and a
service can run the identical pipeline programmatically.

The byte-identity contract is unchanged: rows are pure functions of their
jobs, the collector preserves completion-order streaming for sinks, and
the finalizer's job-order sort + sorted-key serialization make every
frontend's artifact byte-identical for any worker count, resume history,
cache state or shard layout.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.adaptive import rerun_jobs
from repro.campaign.jobs import JobResult, RunJob, execute_job
from repro.campaign.matrix import CampaignSpec, expand_jobs
from repro.campaign.resume import (
    merge_results,
    reconcile_extra_rows,
    remaining_jobs,
    validate_rows_match_jobs,
)
from repro.campaign.sinks import RowSink, row_line, write_lines_atomic
from repro.campaign.store import ColumnStore, RunCache


def shard_slice(jobs: Sequence[RunJob], index: int, count: int) -> List[RunJob]:
    """The ``index``-th of ``count`` contiguous, near-equal job ranges.

    The offline sharding rule (``repro-cc campaign --shard I/N``, no
    collector): every machine expands the same matrix and selects its own
    range locally, so nothing but ``index``/``count`` needs to travel.
    Ranges partition the job list exactly (sizes differ by at most one,
    earlier shards get the longer ranges), so N slices' rows merged later
    by job index reproduce the full campaign.  ``index`` is 0-based.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    base, extra = divmod(len(jobs), count)
    low = index * base + min(index, extra)
    high = low + base + (1 if index < extra else 0)
    return list(jobs[low:high])


class RowCollector:
    """The collect stage: fan each finished row everywhere it must go.

    One object owns every per-row side effect, in a fixed order — store
    into the cache (executed rows only; the cache refuses error rows),
    append to the result list, feed the live :class:`ColumnStore`
    aggregate, stream to the crash-safety ``sink`` and invoke the
    ``progress`` callback — so serial, pool and shard executors cannot
    drift apart on what "a row completed" means.

    ``sink`` lifecycle belongs to the caller (never closed here), matching
    the historical :func:`~repro.campaign.runner.run_campaign` contract.
    """

    def __init__(
        self,
        sink: Optional[RowSink] = None,
        sink_timing: bool = False,
        cache: Optional[RunCache] = None,
        progress: Optional[Callable[[JobResult, int, int], None]] = None,
        total: int = 0,
        store: Optional[ColumnStore] = None,
    ) -> None:
        self.sink = sink
        self.sink_timing = sink_timing
        self.cache = cache
        self.progress = progress
        self.total = total
        self.store = ColumnStore() if store is None else store
        self.results: List[JobResult] = []

    def collect(self, result: JobResult) -> None:
        """A freshly executed result: cached, aggregated, streamed."""
        self._fan(result, executed=True)

    def add_cached(self, result: JobResult) -> None:
        """A cache hit: aggregated and streamed, but never re-stored."""
        self._fan(result, executed=False)

    def _fan(self, result: JobResult, executed: bool) -> None:
        if executed and self.cache is not None:
            self.cache.store(result)  # no-op for error rows
        self.results.append(result)
        self.store.write_row(result.row)
        if self.sink is not None:
            self.sink.write_row(result.output_row(include_timing=self.sink_timing))
        if self.progress is not None:
            self.progress(result, len(self.results), self.total)

    def absorb_prior(self, results: Iterable[JobResult]) -> None:
        """Fold resumed rows into the live aggregate only.

        Prior rows are already on disk and already travelled through a
        sink in their original campaign; here they only need to join the
        :class:`ColumnStore` so the summary covers the merged whole.
        """
        for result in results:
            self.store.write_row(result.row)

    def finish(self) -> List[JobResult]:
        """Restore determinism: the collected results in job-index order."""
        self.results.sort(key=lambda result: result.index)
        return self.results


class CampaignPlan:
    """The plan stage: what must run, what is already answered.

    Expands a :class:`~repro.campaign.matrix.CampaignSpec` (or adopts
    pre-expanded jobs), validates ``prior_rows`` against the matrix
    (raising :class:`~repro.campaign.resume.ResumeError` on mismatch),
    splits them into ``base_prior`` (in-matrix) and ``extra_prior``
    (re-run-appendix rows beyond the matrix, see
    :func:`~repro.campaign.resume.reconcile_extra_rows`), selects the
    static ``shard`` slice if one is given, and probes the ``cache`` over
    the pending jobs — hits land in ``cached_results`` (job order),
    everything else in ``todo``.
    """

    def __init__(
        self,
        spec_or_jobs: Union[CampaignSpec, Sequence[RunJob]],
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        cache: Optional[RunCache] = None,
    ) -> None:
        if isinstance(spec_or_jobs, CampaignSpec):
            self.jobs: List[RunJob] = expand_jobs(spec_or_jobs)
        else:
            self.jobs = list(spec_or_jobs)
        self.prior_rows = list(prior_rows)
        if self.prior_rows:
            validate_rows_match_jobs(self.jobs, self.prior_rows)
        # Rows at indices beyond the matrix come from an earlier
        # --rerun-disagreements pass; the base matrix cannot vouch for
        # them (the orphan/stale contract lives in CampaignDriver).
        self.base_prior = [
            row for row in self.prior_rows if int(row["job"]) < len(self.jobs)
        ]
        self.extra_prior = [
            row for row in self.prior_rows if int(row["job"]) >= len(self.jobs)
        ]
        self.remaining = remaining_jobs(
            self.jobs, self.prior_rows, retry_errors=retry_errors
        )
        self.shard = shard
        if shard is not None:
            index, count = shard
            self.selected = shard_slice(self.jobs, index, count)
            self.pending = remaining_jobs(
                self.selected, self.prior_rows, retry_errors=retry_errors
            )
        else:
            self.selected = self.jobs
            self.pending = self.remaining
        self.cache = cache
        self.cached_results: List[JobResult] = []
        self.todo: List[RunJob] = list(self.pending)
        if cache is not None:
            self.todo = []
            for job in self.pending:
                hit = cache.result_for(job)
                if hit is None:
                    self.todo.append(job)
                else:
                    self.cached_results.append(hit)


class Executor(Protocol):
    """The dispatch stage: run ``todo``, push every result at ``collector``.

    Returns the number of workers actually used (feeds the summary's
    ``xN`` annotation).  Executors never sort, sink, cache or aggregate —
    that is the collector's job — so adding a dispatch backend (asyncio
    service workers, a remote pool) cannot fork the row semantics.
    """

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        ...


class SerialExecutor:
    """In-process dispatch; owns the batched same-cell grouping.

    Consecutive same-scenario seeds with ``engine="batched"`` run as one
    vectorized group, split back into per-seed rows that byte-match the
    solo rows (see :mod:`repro.campaign.batched`).  Groups preserve job
    order, so sinks still see rows in job order here.
    """

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        from repro.campaign.batched import execute_job_group, group_jobs

        for group in group_jobs(todo):
            if len(group) == 1 and group[0].engine != "batched":
                collector.collect(execute_job(group[0]))
            else:
                for result in execute_job_group(group):
                    collector.collect(result)
        return 1


class PoolExecutor:
    """Multiprocessing dispatch with a configurable start method.

    ``spawn`` (the default) is available everywhere and the strictest
    about what a worker can receive, which keeps
    :func:`~repro.campaign.jobs.execute_job` honest; ``fork`` skips the
    per-worker interpreter start-up that dominates very small campaigns
    on POSIX.  The drain is unordered — long jobs do not
    head-of-line-block short ones — and determinism is restored by the
    collector's final sort.
    """

    def __init__(self, jobs: int, mp_context: str = "spawn") -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        if not todo:
            return 1
        workers = min(self.jobs, len(todo))
        context = multiprocessing.get_context(self.mp_context)
        with context.Pool(processes=workers) as pool:
            for result in pool.imap_unordered(execute_job, todo, chunksize=1):
                collector.collect(result)
        return workers


def dispatch(
    plan: CampaignPlan,
    collector: RowCollector,
    jobs: int = 1,
    mp_context: str = "spawn",
) -> int:
    """Drain ``plan`` into ``collector``: cache hits first, then its ``todo``.

    The one serial-or-pool decision: :class:`SerialExecutor` when ``jobs``
    is 1 or at most one job is left (a pool would only add start-up), a
    :class:`PoolExecutor` of ``jobs`` workers otherwise.  Hits drain in job
    order before any execution, so a sink sees them first.  Returns the
    number of workers used.
    """
    for hit in plan.cached_results:
        collector.add_cached(hit)
    if jobs == 1 or len(plan.todo) <= 1:
        return SerialExecutor().run(plan.todo, collector)
    return PoolExecutor(jobs, mp_context=mp_context).run(plan.todo, collector)


class ShardExecutor:
    """Collector-client dispatch: this machine's share of a shared matrix.

    Wraps the acking NDJSON protocol from :mod:`repro.campaign.shard`: the
    shard asks the collector for ``batch`` job indices at a time (default
    ``max(workers,`` :data:`~repro.campaign.shard.DEFAULT_PULL_BATCH` ``)``)
    until it says ``done``.  Every row travels through a reconnecting
    :class:`~repro.campaign.sinks.AckingSocketSink` teed in front of
    whatever sink the collector already carries; each granted batch goes
    through its own :class:`CampaignPlan` (so a
    :class:`~repro.campaign.store.RunCache` short-circuits per grant,
    never emitting rows for jobs this shard was not granted) and then
    :func:`dispatch`.

    ``prior_rows`` (a shard-local ``--resume``) are uploaded before the
    first pull, so the collector adopts them and never grants their jobs;
    with ``retry_errors`` the error rows among them stay behind, so their
    jobs are granted and re-run like any other pending job.

    Raises :class:`ConnectionError` when the collector stays unreachable
    past the reconnect budget and
    :class:`~repro.campaign.sinks.ShardProtocolError` when it rejects the
    shard.  ``jobs_run`` and ``elapsed`` accumulate what this shard
    actually executed, for the frontend's :class:`CampaignResult`.
    """

    def __init__(
        self,
        address: str,
        jobs: Sequence[RunJob],
        name: Optional[str] = None,
        workers: int = 1,
        mp_context: str = "spawn",
        batch: Optional[int] = None,
        retries: int = 3,
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
    ) -> None:
        self.address = address
        self.jobs = list(jobs)
        self.by_index = {job.index: job for job in self.jobs}
        self.prior = [
            row
            for row in prior_rows
            if isinstance(row.get("job"), int)
            and row["job"] in self.by_index
            and not (retry_errors and row.get("status") == "error")
        ]
        self.name = name
        self.workers = workers
        self.mp_context = mp_context
        self.batch = batch
        self.retries = retries
        self.jobs_run: List[RunJob] = []
        self.elapsed = 0.0

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        # ``todo`` is advisory here: the collector service owns dispatch
        # (it grants pull batches), so what this shard runs is decided on
        # the wire, not by the local plan.
        from repro.campaign.shard import (
            DEFAULT_PULL_BATCH,
            control_message,
            hello_message,
        )
        from repro.campaign.sinks import AckingSocketSink, ShardProtocolError, TeeSink

        client = AckingSocketSink(
            self.address,
            hello=hello_message(self.jobs, shard=self.name),
            retries=self.retries,
        )
        # The acking client fronts whatever sink the collector already has
        # (e.g. the shard's local --out file); restored on the way out so
        # the collector outlives this executor unchanged.
        outer = collector.sink
        collector.sink = client if outer is None else TeeSink([client, outer])
        limit = self.batch if self.batch is not None else max(self.workers, DEFAULT_PULL_BATCH)
        workers_used = 1
        try:
            for row in self.prior:
                client.write_row(row)
            while True:
                grant = client.request(control_message("pull", max=limit))
                if grant.get("op") != "grant":
                    raise ShardProtocolError(
                        f"collector at {self.address} answered a pull with {grant!r}"
                    )
                try:
                    granted = [self.by_index[index] for index in grant.get("jobs") or ()]
                except (KeyError, TypeError) as exc:
                    raise ShardProtocolError(
                        f"collector at {self.address} granted unknown jobs: "
                        f"{grant.get('jobs')!r}"
                    ) from exc
                if granted:
                    workers_used = max(workers_used, self._run_grant(granted, collector))
                elif grant.get("done"):
                    break
                # An empty, not-done grant means the collector briefly had
                # nothing unleased; its lease() blocks server-side, so this
                # is rare — just ask again.
        finally:
            collector.sink = outer
            client.close()
        return workers_used

    def _run_grant(self, granted: List[RunJob], collector: RowCollector) -> int:
        """One granted batch through its own plan (cache probe) and :func:`dispatch`."""
        start = time.perf_counter()  # repro-lint: disable=RL102 -- shard wall time is summary-only, never in rows
        plan = CampaignPlan(granted, cache=collector.cache)
        self.jobs_run.extend(granted)
        workers = dispatch(plan, collector, self.workers, self.mp_context)
        self.elapsed += time.perf_counter() - start  # repro-lint: disable=RL102 -- summary-only
        return workers


@dataclass
class CampaignOutcome:
    """What the finalize stage decided: the result, its rendering, the code."""

    result: "CampaignResult"  # noqa: F821 - resolved lazily, see Finalizer
    summary: str
    exit_code: int


class Finalizer:
    """The finalize stage: summary, cache stats, atomic rewrite, exit code.

    ``info`` (default: silent) receives the rendered table and the
    human-facing lines; a CLI passes ``print``, a service can capture
    them.  The ``--out`` rewrite is atomic
    (:func:`~repro.campaign.sinks.write_lines_atomic`), so an interrupt
    mid-rewrite leaves the completion-order stream intact for resume —
    ``KeyboardInterrupt`` deliberately propagates for the frontend to map.

    Exit codes: ``3`` error rows present, ``1`` a checked property was
    violated, ``0`` clean.
    """

    def __init__(
        self,
        out: Optional[str] = None,
        include_timing: bool = False,
        info: Optional[Callable[[str], None]] = None,
        prefix: str = "campaign",
    ) -> None:
        self.out = out
        self.include_timing = include_timing
        self.info = info
        self.prefix = prefix

    def _say(self, message: str) -> None:
        if self.info is not None:
            self.info(message)

    def finalize(
        self,
        result,
        cache: Optional[RunCache] = None,
        title: Optional[str] = None,
        rows: Optional[Sequence[Dict[str, object]]] = None,
        write_before_summary: bool = False,
    ) -> CampaignOutcome:
        """Render and persist a finished campaign.

        ``rows`` (optional) writes those exact dicts verbatim instead of
        re-deriving lines from ``result`` — the collector service's path,
        where whatever the shards sent (including ``--timing`` fields)
        must survive byte-for-byte.  ``write_before_summary`` moves the
        write ahead of the table, matching ``repro-cc collect``'s
        historical ordering (rows first, then the rendering).
        """
        from repro.analysis.report import format_table

        if title is None:
            title = (
                f"Campaign: {len(result.results)} runs x {result.workers} workers "
                f"({result.violations} with violations, {result.errors} errors)"
            )
        if self.out and write_before_summary:
            self._write(result, rows)
        summary = format_table(result.summary_rows(), title=title)
        self._say(summary)
        if cache is not None:
            self._say(
                f"{self.prefix}: cache {cache.root}: {cache.hits} hit(s), "
                f"{cache.misses} miss(es), {cache.stored} row(s) stored"
            )
        if self.out and not write_before_summary:
            self._write(result, rows)
        if self.out:
            count = len(rows) if rows is not None else len(result.results)
            self._say(f"wrote {count} rows to {self.out}")
        exit_code = 3 if result.errors else (0 if result.ok else 1)
        return CampaignOutcome(result=result, summary=summary, exit_code=exit_code)

    def _write(self, result, rows: Optional[Sequence[Dict[str, object]]]) -> None:
        if rows is not None:
            write_lines_atomic(self.out, (row_line(row) for row in rows))
        else:
            result.write_jsonl(self.out, include_timing=self.include_timing)


class CampaignDriver:
    """Plan → dispatch → collect → finalize with the full CLI semantics.

    The one object every frontend builds: ``cli._cmd_campaign`` maps flags
    onto the constructor and exit codes off the outcome,
    :func:`~repro.campaign.runner.run_campaign` is ``execute()`` with the
    defaults, a collector-fed shard is ``collector="tcp:..."``, and the
    future service layer calls :meth:`execute` per submission and serves
    aggregates from ``result.store``.  ``info``/``warn`` (both optional)
    receive the stdout/stderr lines the CLI historically printed, each
    prefixed with ``"campaign: "``.

    Error handling is deliberately transparent:
    :class:`~repro.campaign.resume.ResumeError`, :class:`ConnectionError`,
    :class:`~repro.campaign.sinks.ShardProtocolError` and
    ``KeyboardInterrupt`` propagate for the frontend to map onto its own
    exit codes (2/4/4/130 in the CLI).  The ``sink``'s lifecycle belongs
    to the caller.  ``collector`` combines with neither ``shard`` (the
    collector grants a collector-fed shard its work by pull; ``shard`` is
    for offline slices merged later) nor ``rerun_disagreements`` (re-run
    jobs fall outside the matrix the shards agreed on): both raise
    :class:`ValueError`.
    """

    PREFIX = "campaign"

    def __init__(
        self,
        spec_or_jobs: Union[CampaignSpec, Sequence[RunJob]],
        jobs: int = 1,
        mp_context: str = "spawn",
        sink: Optional[RowSink] = None,
        timing: bool = False,
        cache: Optional[RunCache] = None,
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
        rerun_disagreements: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        collector: Optional[str] = None,
        progress: Optional[Callable[[JobResult, int, int], None]] = None,
        out: Optional[str] = None,
        info: Optional[Callable[[str], None]] = None,
        warn: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if collector is not None and shard is not None:
            raise ValueError(
                "shard cannot be combined with collector: a collector-fed "
                "shard pulls its jobs from the collector"
            )
        if collector is not None and rerun_disagreements:
            raise ValueError(
                "rerun_disagreements cannot be combined with collector: "
                "re-run jobs fall outside the matrix the shards agreed on"
            )
        self.spec_or_jobs = spec_or_jobs
        self.jobs = jobs
        self.mp_context = mp_context
        self.sink = sink
        self.timing = timing
        self.cache = cache
        self.prior_rows = list(prior_rows)
        self.retry_errors = retry_errors
        self.rerun_disagreements = rerun_disagreements
        self.shard = shard
        self.collector = collector
        self.progress = progress
        self.out = out
        self.info = info
        self.warn = warn
        self.result = None

    def _info(self, message: str) -> None:
        if self.info is not None:
            self.info(f"{self.PREFIX}: {message}")

    def _warn(self, message: str) -> None:
        if self.warn is not None:
            self.warn(f"{self.PREFIX}: {message}")

    def execute(self):
        """Run the campaign; returns (and keeps) the ``CampaignResult``."""
        from repro.campaign.runner import CampaignResult

        start = time.perf_counter()  # repro-lint: disable=RL102 -- campaign wall time is --timing-only, never in rows
        # Collector mode leaves cache probing to the service protocol
        # (ShardExecutor plans per granted batch); local mode plans
        # everything up front.
        plan = CampaignPlan(
            self.spec_or_jobs,
            prior_rows=self.prior_rows,
            retry_errors=self.retry_errors,
            shard=self.shard,
            cache=None if self.collector else self.cache,
        )
        jobs_all = list(plan.jobs)
        collector = RowCollector(
            sink=self.sink,
            sink_timing=self.timing,
            cache=self.cache,
            progress=self.progress,
            total=len(plan.jobs),
        )
        if plan.prior_rows and self.out:
            self._info(
                f"resuming {self.out}: {len(plan.prior_rows)} row(s) already "
                f"present, {len(plan.remaining)} of {len(plan.jobs)} job(s) remaining"
            )
        if self.collector is not None:
            executor = ShardExecutor(
                self.collector,
                plan.jobs,
                workers=self.jobs,
                mp_context=self.mp_context,
                prior_rows=plan.prior_rows,
                retry_errors=self.retry_errors,
            )
            workers = executor.run((), collector)
        else:
            if plan.shard is not None and plan.selected:
                index, count = plan.shard
                self._info(
                    f"static shard {index + 1}/{count}: jobs "
                    f"{plan.selected[0].index}..{plan.selected[-1].index} "
                    f"of {len(plan.jobs)}"
                )
            workers = dispatch(plan, collector, self.jobs, self.mp_context)
        executed = list(collector.results)
        merged = merge_results(plan.prior_rows, executed)
        if self.rerun_disagreements:
            base_results = [r for r in merged if r.index < len(plan.jobs)]
            extra_jobs = rerun_jobs(plan.jobs, base_results)
            # Prior extra rows are only trustworthy if they match the
            # regenerated re-run jobs identity-for-identity; a stale row
            # (the disagreement set changed, e.g. retry_errors flipped a
            # base verdict) must re-run, not masquerade as another job.
            valid_extra, stale_extra = reconcile_extra_rows(extra_jobs, plan.extra_prior)
            if stale_extra:
                self._warn(
                    f"{len(stale_extra)} prior re-run row(s) do not match the "
                    "regenerated re-run jobs (stale disagreement set); "
                    "re-running them"
                )
            merged = merge_results(plan.base_prior + valid_extra, executed)
            if extra_jobs:
                jobs_all = plan.jobs + extra_jobs
                extra_todo = remaining_jobs(
                    extra_jobs, valid_extra, retry_errors=self.retry_errors
                )
                self._info(
                    f"verdicts disagree across seeds — appending "
                    f"{len(extra_jobs)} fresh-seed job(s) "
                    f"({len(extra_todo)} still to execute)"
                )
                if extra_todo:
                    extra_plan = CampaignPlan(extra_todo, cache=self.cache)
                    dispatch(extra_plan, collector, self.jobs, self.mp_context)
                    executed = list(collector.results)
                    merged = merge_results(plan.base_prior + valid_extra, executed)
        elif plan.extra_prior:
            # The pinned orphan contract: without rerun_disagreements the
            # re-run jobs are not regenerated, so these rows cannot be
            # validated — but dropping completed rows would break the
            # no-row-loss guarantee.  Kept, counted, called out.
            self._warn(
                f"keeping {len(plan.extra_prior)} re-run row(s) beyond the "
                f"{len(plan.jobs)}-job matrix (from an earlier "
                "--rerun-disagreements); pass --rerun-disagreements to "
                "validate them against regenerated re-run jobs"
            )
        if plan.prior_rows:
            # Resumed rows that were kept (not re-executed) join the live
            # aggregate so the summary covers the merged whole.
            collected = {result.index for result in collector.results}
            collector.absorb_prior(r for r in merged if r.index not in collected)
        self.result = CampaignResult(
            jobs=jobs_all,
            results=merged,
            workers=workers,
            elapsed_seconds=time.perf_counter() - start,  # repro-lint: disable=RL102 -- --timing-only
            store=collector.store,
        )
        return self.result

    def finalize(self) -> CampaignOutcome:
        """Finalize the (already or now) executed campaign."""
        if self.result is None:
            self.execute()
        finalizer = Finalizer(
            out=self.out,
            include_timing=self.timing,
            info=self.info,
            prefix=self.PREFIX,
        )
        return finalizer.finalize(self.result, cache=self.cache)

    def run(self) -> CampaignOutcome:
        """The whole pipeline: :meth:`execute` then :meth:`finalize`."""
        self.execute()
        return self.finalize()

"""The traced run: spans and counters around each layer's public entry points.

Wrappers are installed from this file, in this process only, by replacing
attributes of the ``repro`` modules and classes for the duration of one
run and restoring them afterwards; nothing inside ``src/`` changes.  Each
span records ``(name, start, end, parent)``; spans stay in memory and are
written out once the run ends.  A span's self time is its duration minus
the durations of its direct children (calls are synchronous, so children
nest inside their parent).  The hottest calls — ``Action.enabled`` and
``Configuration.get`` — get counters only.

Layer names follow the module that owns the wrapped function:

===============================  =============================================
span                              wrapped entry points
===============================  =============================================
``campaign.driver.plan``          ``CampaignPlan.__init__``
``campaign.driver.execute``       ``SerialExecutor.run``, ``PoolExecutor.run``
``campaign.driver.collect``       ``RowCollector.collect`` / ``.add_cached``
``campaign.jobs.run``             ``execute_job``, ``execute_job_group``
``campaign.jobs.completed_row``   ``completed_row``
``kernel.scheduler.step``         ``Scheduler.step``, ``BatchedScheduler.run``
``kernel.guard``                  ``DistributedAlgorithm.enabled_action``
``kernel.statement``              ``Action.execute``
``kernel.configuration.updated``  ``Configuration.updated``
``kernel.daemon.select``          every ``Daemon`` subclass's own ``select``
``kernel.faults``                 ``FaultInjector.corrupt_scheduler``,
                                  ``arbitrary_configuration``
``kernel.batched.sweep`` /        ``BatchedProgram.sweep`` / ``.fold``
``kernel.batched.fold``
``metrics.collector.observe``     ``StreamingMetricsCollector.observe_step``
``spec.streaming.observe``        ``StreamingSpecSuite.observe_step``
``spec.streaming.verdicts``       ``StreamingSpecSuite.verdicts``
``campaign.store.cache_lookup``   ``RunCache.result_for``
``campaign.store.cache_store``    ``RunCache.store``
``campaign.store.column_write``   ``ColumnStore.write_row``
``campaign.store.cell_stats``     ``ColumnStore.cell_stats``
``campaign.sinks.write``          ``JsonlSink.write_row``
===============================  =============================================
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    """Spans and counters for one traced run; installs and removes its wrappers."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, List[int]] = {}
        self.lanes: List[int] = []
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories -------------------------------------------------- #
    def _counter(self, name: str) -> List[int]:
        return self.counts.setdefault(name, [0])

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        cell = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_when(self, name: str, test: Callable[[Any, Any], bool]) -> Callable:
        """An ``observe`` hook counting the calls whose ``(args, result)`` pass ``test``."""
        cell = self._counter(name)

        def observe(args: Any, result: Any) -> None:
            if test(args, result):
                cell[0] += 1

        return observe

    # -- installation ------------------------------------------------------- #
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owners: List[Any], attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` once and bind the wrapper wherever the original is bound."""
        original = owners[0].__dict__[attr]
        wrapper = make(original)
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                self._patch(owner, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        algorithm = mod("repro.kernel.algorithm")
        batched_kernel = mod("repro.kernel.batched")
        batched_program = mod("repro.core.batched_program")
        batched_campaign = mod("repro.campaign.batched")
        configuration = mod("repro.kernel.configuration")
        daemon = mod("repro.kernel.daemon")
        driver = mod("repro.campaign.driver")
        faults = mod("repro.kernel.faults")
        jobs = mod("repro.campaign.jobs")
        metrics = mod("repro.metrics.collector")
        scheduler = mod("repro.kernel.scheduler")
        sinks = mod("repro.campaign.sinks")
        spec = mod("repro.spec.streaming")
        store = mod("repro.campaign.store")

        def span(name: str, observe: Optional[Callable] = None) -> Callable:
            return lambda fn: self.span(name, fn, observe)

        def counter(name: str) -> Callable:
            return lambda fn: self.counter(name, fn)

        def lanes(args: Any, _result: Any) -> None:
            self.lanes.append(len(args[0]))

        self._wrap_executors()
        self.wrap([driver.CampaignPlan], "__init__", span("campaign.driver.plan"))
        self.wrap([driver.RowCollector], "collect", span("campaign.driver.collect"))
        self.wrap([driver.RowCollector], "add_cached", span("campaign.driver.collect"))
        self.wrap([jobs, driver], "execute_job", span("campaign.jobs.run"))
        self.wrap([batched_campaign], "execute_job_group", span("campaign.jobs.run", lanes))
        self.wrap([batched_campaign], "_run_job", counter("campaign.batched.fallback_runs"))
        self.wrap([jobs, batched_campaign], "completed_row", span("campaign.jobs.completed_row"))
        self.wrap([scheduler.Scheduler], "step", span("kernel.scheduler.step"))
        self.wrap([batched_kernel.BatchedScheduler], "run", span("kernel.scheduler.step"))
        self.wrap(
            [algorithm.DistributedAlgorithm],
            "enabled_action",
            span("kernel.guard", self.count_when("kernel.guard.useful", lambda _a, r: r is not None)),
        )
        self.wrap([algorithm.Action], "enabled", counter("kernel.guard.evals"))
        self.wrap([algorithm.Action], "execute", span("kernel.statement"))
        self.wrap([configuration.Configuration], "get", counter("kernel.configuration.reads"))
        self.wrap([configuration.Configuration], "updated", span("kernel.configuration.updated"))
        for cls in _subclasses(daemon.Daemon):
            if "select" in cls.__dict__:
                self.wrap([cls], "select", span("kernel.daemon.select"))
        self.wrap(
            [faults.FaultInjector],
            "corrupt_scheduler",
            span("kernel.faults", self.count_when("kernel.faults.injections", lambda _a, _r: True)),
        )
        self.wrap([faults, jobs], "arbitrary_configuration", span("kernel.faults"))
        self.wrap([batched_program.BatchedProgram], "sweep", span("kernel.batched.sweep"))
        self.wrap([batched_program.BatchedProgram], "fold", span("kernel.batched.fold"))
        self.wrap([metrics.StreamingMetricsCollector], "observe_step", span("metrics.collector.observe"))
        self.wrap([spec.StreamingSpecSuite], "observe_step", span("spec.streaming.observe"))
        self.wrap([spec.StreamingSpecSuite], "verdicts", span("spec.streaming.verdicts"))
        self.wrap(
            [store.RunCache],
            "result_for",
            span("campaign.store.cache_lookup", self.count_when("campaign.store.cache_hits", lambda _a, r: r is not None)),
        )
        self.wrap([store.RunCache], "store", span("campaign.store.cache_store"))
        self.wrap([store.ColumnStore], "write_row", span("campaign.store.column_write"))
        self.wrap([store.ColumnStore], "cell_stats", span("campaign.store.cell_stats"))
        self.wrap([sinks.JsonlSink], "write_row", span("campaign.sinks.write"))

    def _wrap_executors(self) -> None:
        driver = importlib.import_module("repro.campaign.driver")
        for cls in (driver.SerialExecutor, driver.PoolExecutor):
            self.wrap([cls], "run", lambda fn: self.span("campaign.driver.execute", fn))

    @contextlib.contextmanager
    def executors(self) -> Iterator["Tracer"]:
        """Time only the dispatch boundary (cheap enough for an untraced run)."""
        self._wrap_executors()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------- #
    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span is not None and span[0] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: Σ duration minus Σ duration of direct children."""
        spans = [span for span in self.spans if span is not None]
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent = span
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals

    def total(self, name: str) -> float:
        """Σ duration of the outermost spans called ``name``."""
        names = {index: span[0] for index, span in enumerate(self.spans) if span is not None}
        total = 0.0
        for span in self.spans:
            if span is None or span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and names[parent] != name:
                parent = self.spans[parent][3]  # type: ignore[index]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def dump(self, path: str) -> None:
        """Write spans (``[name, start, end, parent]``) and counters as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [list(span) for span in self.spans if span is not None],
                    "counts": {name: cell[0] for name, cell in sorted(self.counts.items())},
                },
                fh,
            )


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found

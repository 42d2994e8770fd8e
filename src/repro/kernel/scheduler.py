"""The execution engine: steps, rounds, termination.

The scheduler repeatedly

1. computes ``Enabled(γ)`` and, for each enabled process, its
   highest-priority enabled action,
2. asks the daemon for a non-empty subset of the enabled processes,
3. lets every selected process execute its priority action *against the
   pre-step configuration* (composite atomicity) and merges the buffered
   writes into the next configuration,
4. updates round bookkeeping: a round completes once every process that was
   enabled at the beginning of the round has been activated or neutralized.

A computation is maximal: the run stops when no process is enabled (terminal
configuration) or when a step/round/predicate bound is hit.

Two execution engines are available (``engine=`` parameter):

``"dense"``
    The reference engine: ``Enabled(γ)`` is recomputed from scratch before
    and after every step.  Byte-for-byte reproducible against historical
    seeds, and correct even for environments whose request predicates have
    evaluation side effects.
``"incremental"``
    The post-step enabled map of step ``k`` is cached and reused as the
    pre-step map of step ``k+1``.  The algorithm answers two questions, one
    declaration each:

    * *which writes can flip my guard?* —
      :meth:`~repro.kernel.algorithm.DistributedAlgorithm.read_dependency_variables`
      (per source process, the variables read, or ``None`` for any).  After
      a step only the processes whose declared reads intersect the step's
      writer set are re-evaluated.
    * *which processes can the environment alone flip?* —
      :meth:`~repro.kernel.algorithm.DistributedAlgorithm.environment_sensitive_processes`,
      scanned between every two steps (the environment advances in
      ``observe`` after the map was cached).  The scan is deliberately not
      replaced by an index kept from the writer set: such an index beat it
      in only 3 of 9 measured ``engine_scaling`` samples (n = 10/50/200).

    Produces traces identical to the dense engine for any fixed
    seed, provided guard evaluation is side-effect free.  Environments that
    violate this declare ``deterministic_guards = False`` and are rejected
    by the incremental engine at construction time; every environment in
    this library qualifies (``ProbabilisticRequestEnvironment`` memoises its
    random draws in ``observe``, outside guard evaluation).

The **default** is ``engine=None`` (equivalently ``"auto"``): the scheduler
picks ``incremental`` unless the environment declares
``deterministic_guards = False``, in which case it falls back to ``dense``
instead of raising — so third-party environments with side-effecting guards
keep working without naming an engine.

The delta protocol
------------------

Every committed step's :class:`~repro.kernel.trace.StepRecord` carries a
:class:`~repro.kernel.trace.StepDelta`: the exact ``(process, variable)``
writes the step applied, stamped with the scheduler's *configuration epoch*
(:attr:`Scheduler.epoch`).  The epoch starts at 0 and is bumped by every
external configuration swap — :meth:`Scheduler.set_configuration`, and hence
:meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler`.  Observers that
maintain incremental state over the configuration stream (the streaming spec
monitors, streaming metrics) apply the delta in ``O(|writers|)`` per step
while the epoch is unchanged, and resynchronize from the full configuration
when it changes ("the world was swapped under me").  The incremental engine's
own enabled-map cache is invalidated through the same
:meth:`Scheduler.set_configuration` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.kernel.algorithm import ActionContext, DistributedAlgorithm, Environment
from repro.kernel.configuration import Configuration, ProcessId
from repro.kernel.daemon import Daemon, default_daemon
from repro.kernel.trace import StepDelta, StepRecord, Trace

#: Concrete execution engines (the ``engine`` parameter also accepts ``None``
#: or ``"auto"``, which resolve to ``incremental`` unless the environment
#: declares ``deterministic_guards = False``).
ENGINES = ("dense", "incremental")

#: Signature of a scheduler observer (see ``Scheduler`` ``step_listener``).
StepListener = Callable[[Configuration, Optional[StepRecord]], None]


class StopRun(Exception):
    """Raised by a step listener to halt the run after the current step.

    The scheduler's observer protocol is deliberately dumb: listeners are
    called after every committed step and normally just accumulate state
    (metrics, spec monitors).  A listener that wants to *stop* the run — e.g.
    a streaming property monitor in ``stop_on_violation`` mode — raises
    :class:`StopRun`; :meth:`Scheduler.run` catches it and returns a
    :class:`SchedulerResult` whose ``stop_reason`` is the exception's
    ``reason``.  The step that triggered the stop is fully committed (trace,
    round bookkeeping, environment observation), so the run can be resumed or
    inspected at the exact offending step.
    """

    def __init__(self, reason: str = "listener_stop", message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


@dataclass
class SchedulerResult:
    """Outcome of a run: the trace plus summary counters."""

    trace: Trace
    steps: int
    rounds: int
    terminated: bool
    stop_reason: str

    @property
    def final(self) -> Configuration:
        return self.trace.final


class Scheduler:
    """Executes a :class:`DistributedAlgorithm` under a daemon.

    Parameters
    ----------
    algorithm:
        The distributed algorithm to run.
    environment:
        External inputs (request predicates).  Defaults to the inert
        :class:`~repro.kernel.algorithm.Environment`.
    daemon:
        Scheduling adversary.  Defaults to a distributed randomized daemon
        with enforced weak fairness (the paper's assumption).
    initial_configuration:
        Starting configuration; defaults to the algorithm's legitimate
        initial configuration.  Pass an arbitrary configuration (see
        :mod:`repro.kernel.faults`) for stabilization experiments.
    record_configurations:
        If ``False``, only the initial and current configurations are kept
        (step metadata is always recorded); use for long throughput runs.
        Such *sparse* traces cannot answer per-configuration queries
        (``pairs``, ``variable_series``, ``waiting_spells`` — they raise or
        degenerate); attach a streaming consumer via ``step_listener`` (e.g.
        :class:`~repro.metrics.collector.StreamingMetricsCollector`) to
        compute trace metrics online instead.
    engine:
        ``"dense"``, ``"incremental"``, or ``None``/``"auto"`` (the default):
        pick ``incremental`` unless the environment declares
        ``deterministic_guards = False``, then fall back to ``dense``.  See
        the module docstring.
    step_listener:
        Optional observer — a callable or a sequence of callables — invoked
        as ``listener(configuration, record)``: once at construction with the
        initial configuration and ``record=None``, then after every step with
        the new configuration and its :class:`StepRecord` (whose ``delta``
        carries the step's exact writer set and the configuration epoch).
        This is the observer protocol shared by
        :class:`~repro.metrics.collector.StreamingMetricsCollector` and the
        streaming spec monitors
        (:class:`~repro.spec.streaming.StreamingSpecSuite`); any number of
        observers can ride along one run.  A listener may raise
        :class:`StopRun` to halt the run after the current step.
    """

    def __init__(
        self,
        algorithm: DistributedAlgorithm,
        environment: Optional[Environment] = None,
        daemon: Optional[Daemon] = None,
        initial_configuration: Optional[Configuration] = None,
        record_configurations: bool = True,
        engine: Optional[str] = None,
        step_listener: Optional[Union[StepListener, Sequence[StepListener]]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.environment = environment if environment is not None else Environment()
        if engine is None or engine == "auto":
            engine = (
                "incremental"
                if getattr(self.environment, "deterministic_guards", True)
                else "dense"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES} "
                "(or None/'auto' to pick automatically)"
            )
        if engine == "incremental" and not getattr(
            self.environment, "deterministic_guards", True
        ):
            raise ValueError(
                "the incremental engine requires side-effect-free guard "
                f"evaluation, but {type(self.environment).__name__} declares "
                "deterministic_guards=False (it draws random request decisions "
                "while guards are evaluated, so skipping evaluations would "
                "silently change the run); use engine='dense' with this "
                "environment"
            )
        self.daemon = daemon if daemon is not None else default_daemon()
        self.daemon.reset()
        self.environment.reset()
        self.configuration = (
            initial_configuration
            if initial_configuration is not None
            else algorithm.initial_configuration()
        )
        self.record_configurations = record_configurations
        self.engine = engine
        # Each process's actions, highest priority first, built once per run
        # (``actions(pid)`` builds fresh closures on every call).  The table
        # lives here, not on the algorithm: algorithm -> table -> closure ->
        # algorithm would be a reference cycle that only the cyclic garbage
        # collector frees.
        self._actions: Dict[ProcessId, Tuple[Any, ...]] = {
            pid: algorithm.priority_actions(pid) for pid in algorithm.process_ids()
        }
        #: Configuration epoch: bumped by every external configuration swap
        #: (:meth:`set_configuration`), stamped onto every step's
        #: :class:`~repro.kernel.trace.StepDelta` so observers can tell
        #: "delta applies" from "world swapped under me".
        self.epoch = 0
        self.trace = Trace(self.configuration)
        self.step_index = 0
        # Round bookkeeping: the set of processes enabled at the start of the
        # current round that have not yet been activated or neutralized.
        self.round_index = 0
        self._round_pending: Optional[Set[ProcessId]] = None
        if step_listener is None:
            self._step_listeners: List[StepListener] = []
        elif callable(step_listener):
            self._step_listeners = [step_listener]
        else:
            self._step_listeners = list(step_listener)
        # Incremental engine state: the cached enabled map (valid for the
        # current configuration, modulo environment drift handled in
        # ``_current_enabled``) and the inverse dependency maps
        #   writer              -> processes reading *any* of its variables,
        #   (writer, variable)  -> processes reading exactly that variable,
        # built from ``read_dependency_variables``.
        self._enabled_cache: Optional[Dict[ProcessId, Any]] = None
        self._proc_dependents: Dict[ProcessId, FrozenSet[ProcessId]] = {}
        self._var_dependents: Dict[Tuple[ProcessId, str], FrozenSet[ProcessId]] = {}
        if engine == "incremental":
            proc: Dict[ProcessId, Set[ProcessId]] = {
                pid: {pid} for pid in algorithm.process_ids()
            }
            var: Dict[Tuple[ProcessId, str], Set[ProcessId]] = {}
            for pid in algorithm.process_ids():
                for source, variables in algorithm.read_dependency_variables(pid).items():
                    if variables is None:
                        proc.setdefault(source, set()).add(pid)
                    else:
                        for name in variables:
                            var.setdefault((source, name), set()).add(pid)
            self._proc_dependents = {q: frozenset(ps) for q, ps in proc.items()}
            self._var_dependents = {key: frozenset(ps) for key, ps in var.items()}
        # Let stateful environments see the initial configuration.
        self.environment.observe(self.configuration, -1)
        notify_listeners(self._step_listeners, self.configuration, None)

    def add_step_listener(self, listener: StepListener) -> None:
        """Attach another observer mid-construction (before the run starts).

        The listener is immediately fed the current configuration with
        ``record=None`` (mirroring the construction-time call), so observers
        attached after ``__init__`` see the same stream as those passed in.
        """
        self._step_listeners.append(listener)
        listener(self.configuration, None)

    # ------------------------------------------------------------------ #
    # single step
    # ------------------------------------------------------------------ #
    def set_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration from outside the step loop.

        This is the supported way to model a mid-run transient fault burst
        (see :meth:`repro.kernel.faults.FaultInjector.corrupt_scheduler`): the
        new configuration becomes the source of the next step, the
        incremental engine's cached enabled map is invalidated (guards are
        re-evaluated against the corrupted state instead of the stale cache),
        and the configuration :attr:`epoch` is bumped — so delta-driven
        observers see the epoch change on the next step's
        :class:`~repro.kernel.trace.StepDelta` and resynchronize from the
        full configuration instead of applying the delta to a world they
        never saw.  Round bookkeeping is kept — the pending set is pruned
        against the fresh enabled map on the next step anyway.
        """
        self.configuration = configuration
        self.epoch += 1
        self._enabled_cache = None

    def _current_enabled(self) -> Dict[ProcessId, Any]:
        """The enabled map for the current configuration (cached if incremental)."""
        if self.engine == "dense":
            return self.algorithm.enabled_processes(
                self.configuration, self.environment, self._actions
            )
        if self._enabled_cache is None:
            self._enabled_cache = self.algorithm.enabled_processes(
                self.configuration, self.environment, self._actions
            )
        else:
            # The cache was computed before the environment observed the last
            # configuration; refresh the processes whose guards may have
            # flipped with the environment alone.
            cache = self._enabled_cache
            for pid in self.algorithm.environment_sensitive_processes(self.configuration):
                action = self.algorithm.enabled_action(
                    pid, self.configuration, self.environment, self._actions[pid]
                )
                if action is None:
                    cache.pop(pid, None)
                else:
                    cache[pid] = action
        return self._enabled_cache

    def _enabled_after_step(
        self,
        enabled_map: Dict[ProcessId, Any],
        writers: Dict[ProcessId, Dict[str, Any]],
        new_configuration: Configuration,
    ) -> Dict[ProcessId, Any]:
        """The enabled map of ``new_configuration`` (γ').

        Dense engine: a full sweep.  Incremental engine: start from the
        pre-step map and re-evaluate only the processes whose declared read
        dependencies intersect the step's writes — matched per *variable*
        where the algorithm declares variable-granular dependencies
        (``read_dependency_variables``), per process otherwise.  For everyone
        else neither the variables their guards read nor the environment
        changed, so their enabledness is unchanged by construction.
        """
        if self.engine == "dense":
            return self.algorithm.enabled_processes(
                new_configuration, self.environment, self._actions
            )
        after = dict(enabled_map)
        dirty: Set[ProcessId] = set()
        proc_dependents = self._proc_dependents
        var_dependents = self._var_dependents
        for writer, written in writers.items():
            if not written:  # executed but wrote nothing: γ' is unchanged for its dependents
                continue
            dirty.update(proc_dependents.get(writer, (writer,)))
            for name in written:
                readers = var_dependents.get((writer, name))
                if readers:
                    dirty.update(readers)
        for pid in dirty:
            action = self.algorithm.enabled_action(
                pid, new_configuration, self.environment, self._actions[pid]
            )
            if action is None:
                after.pop(pid, None)
            else:
                after[pid] = action
        return after

    def step(self) -> Optional[StepRecord]:
        """Execute one step; returns ``None`` if the configuration is terminal."""
        enabled_map = self._current_enabled()
        if not enabled_map:
            return None
        enabled_ids = tuple(sorted(enabled_map))
        selected, writes, executed = select_and_execute(
            self, enabled_ids, enabled_map, self.configuration, self.environment
        )
        new_configuration = self.configuration.updated(writes)

        enabled_after_map = self._enabled_after_step(enabled_map, writes, new_configuration)
        record = commit_step(
            self, enabled_ids, selected, executed, writes, enabled_after_map, new_configuration
        )
        if self.engine == "incremental":
            # γ''s enabled map becomes the next step's pre-step map; the
            # environment drift from the ``observe`` below is folded in by
            # ``_current_enabled`` at the start of the next step.
            self._enabled_cache = enabled_after_map
        self.environment.observe(new_configuration, record.index)
        notify_listeners(self._step_listeners, new_configuration, record)
        return record

    # ------------------------------------------------------------------ #
    # run loops
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_steps: int = 10_000,
        max_rounds: Optional[int] = None,
        stop_predicate: Optional[Callable[[Configuration, int], bool]] = None,
        allow_idle_steps: bool = False,
    ) -> SchedulerResult:
        """Run until termination, a bound, or ``stop_predicate`` becomes true.

        ``stop_predicate(configuration, step_index)`` is evaluated after every
        step — including idle ticks, so a predicate that becomes true while
        the system is quiescent (e.g. an external timer expiring) stops the
        run promptly instead of spinning to ``max_steps``; when it returns
        ``True`` the run stops with reason ``"predicate"``.  A step listener
        raising :class:`StopRun` stops the run with the exception's reason.

        With ``allow_idle_steps=True`` a configuration with no enabled process
        does *not* end the run: an "idle tick" is consumed instead (the
        environment observes the unchanged configuration and external time
        advances), so request predicates that depend on elapsed time -- e.g.
        a professor deciding to leave a meeting after a while -- can become
        true and re-enable the system.  This models the asynchronous
        environment of the paper, where professors act at unpredictable real
        times even while the algorithm itself is quiescent.
        """
        stop_reason = "max_steps"
        terminated = False
        while self.step_index < max_steps:
            if max_rounds is not None and self.round_index >= max_rounds:
                stop_reason = "max_rounds"
                break
            try:
                record = self.step()
            except StopRun as stop:
                # A listener (e.g. a spec monitor in stop_on_violation mode)
                # halted the run; the offending step is fully committed.
                stop_reason = stop.reason
                break
            if record is None:
                if not allow_idle_steps:
                    terminated = True
                    stop_reason = "terminal"
                    break
                # Idle tick: no process can move, but external time passes.
                self.environment.observe(self.configuration, self.step_index)
                self.step_index += 1
            if stop_predicate is not None and stop_predicate(self.configuration, self.step_index):
                stop_reason = "predicate"
                break
        else:
            stop_reason = "max_steps"
        return SchedulerResult(
            trace=self.trace,
            steps=self.step_index,
            rounds=round_count(self),
            terminated=terminated,
            stop_reason=stop_reason,
        )

    def run_rounds(self, rounds: int, max_steps: int = 100_000) -> SchedulerResult:
        """Run for (up to) a fixed number of rounds."""
        return self.run(max_steps=max_steps, max_rounds=rounds)


# ---------------------------------------------------------------------- #
# step bookkeeping shared with the batched engine's lanes
# ---------------------------------------------------------------------- #
# ``run`` below is a :class:`Scheduler` or a
# :class:`~repro.kernel.batched.Lane`: both carry the run state under the
# same attribute names (``daemon``, ``configuration``, ``epoch``,
# ``step_index``, ``round_index``, ``_round_pending``, ``trace``,
# ``record_configurations``).


def select_and_execute(
    run: Any,
    enabled_ids: Tuple[ProcessId, ...],
    enabled_map: Mapping[ProcessId, Any],
    configuration: Any,
    environment: Environment,
) -> Tuple[FrozenSet[ProcessId], Dict[ProcessId, Dict[str, Any]], Dict[ProcessId, str]]:
    """The daemon's choice among ``enabled_ids``, executed under composite atomicity.

    ``enabled_map`` maps each enabled process (``enabled_ids``, sorted) to
    its priority action.  Every selected process executes against
    ``configuration`` — the pre-step snapshot, or any object with its
    ``get`` protocol — and its writes are buffered.  Returns the selection
    and the per-process writes and executed action labels.
    """
    daemon = run.daemon
    selected = daemon.select(enabled_ids, run.configuration, run.step_index)
    selected = frozenset(p for p in selected if p in enabled_map)
    if not selected:
        # A daemon must select at least one enabled process; fall back to
        # the smallest id to preserve the distributed property.
        selected = frozenset({enabled_ids[0]})
    # Report the selection that is actually executed (it may differ from
    # the daemon's answer when the fallback above kicked in), so stateful
    # daemons keep their fairness bookkeeping truthful.
    daemon.notify_enabled(enabled_ids, selected)
    writes: Dict[ProcessId, Dict[str, Any]] = {}
    executed: Dict[ProcessId, str] = {}
    for pid in sorted(selected):
        action = enabled_map[pid]
        ctx = ActionContext(pid, configuration, environment)
        action.execute(ctx)
        writes[pid] = ctx.writes
        executed[pid] = action.label
    return selected, writes, executed


def commit_step(
    run: Any,
    enabled_ids: Tuple[ProcessId, ...],
    selected: FrozenSet[ProcessId],
    executed: Dict[ProcessId, str],
    writes: Dict[ProcessId, Dict[str, Any]],
    enabled_after: Collection[ProcessId],
    new_configuration: Configuration,
) -> StepRecord:
    """Record one step of ``run`` and make ``new_configuration`` current.

    ``enabled_after`` holds the processes enabled in ``new_configuration``
    (before the environment observes it).  Stamps the
    :class:`~repro.kernel.trace.StepRecord`, advances the round bookkeeping,
    appends to the trace and bumps ``step_index``; the environment and the
    listeners are the caller's.
    """
    # Neutralization: enabled before, not selected, not enabled after.
    neutralized = frozenset(
        pid
        for pid in enabled_ids
        if pid not in selected and pid not in enabled_after
    )
    record = StepRecord(
        index=run.step_index,
        selected=selected,
        executed=executed,
        enabled_before=frozenset(enabled_ids),
        neutralized=neutralized,
        round_index=run.round_index,
        delta=StepDelta(
            writes={
                pid: tuple(sorted(written))
                for pid, written in writes.items()
                if written
            },
            epoch=run.epoch,
        ),
    )
    # Round bookkeeping, advanced *after* stamping the record (the step is
    # part of the round it completes).  A round that starts with this step
    # must see the activation or neutralization of every process enabled
    # now; a process stops being owed a move once it is selected or no
    # longer enabled (neutralized processes are among the latter).
    pending = run._round_pending
    if pending is None:
        pending = set(enabled_ids)
    pending -= selected
    pending.intersection_update(enabled_after)
    if pending:
        run._round_pending = pending
    else:
        run.round_index += 1
        run._round_pending = None
    run.configuration = new_configuration
    if run.record_configurations:
        run.trace.append(new_configuration, record)
    else:
        run.trace.append_sparse(new_configuration, record)
    run.step_index += 1
    return record


def notify_listeners(
    listeners: Sequence[StepListener],
    configuration: Configuration,
    record: Optional[StepRecord],
) -> None:
    """Feed ``(configuration, record)`` to every listener.

    Every listener sees every committed step, even when one of them stops
    the run: the first :class:`StopRun` is captured, the rest are still
    notified (their state must stay in sync with the trace), then it is
    re-raised.
    """
    stop: Optional[StopRun] = None
    for listener in listeners:
        try:
            listener(configuration, record)
        except StopRun as exc:
            if stop is None:
                stop = exc
    if stop is not None:
        raise stop


def round_count(run: Any) -> int:
    """Rounds completed by ``run`` plus the one in progress, if any."""
    return run.round_index + (0 if run._round_pending is None else 1)

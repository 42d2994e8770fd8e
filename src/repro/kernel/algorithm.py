"""Guarded-action local algorithms and their evaluation context.

A local algorithm (Section 2.2) is a finite **ordered** list of guarded
actions::

    <label> :: <guard>  |->  <statement>

The guard of an action of process ``p`` is a Boolean expression over the
variables of ``p`` and of its neighbours; the statement updates a subset of
``p``'s own variables.  The order of the list encodes priority: *an action A
has higher priority than B iff A appears after B in the code* (this is the
convention the paper uses -- the stabilization actions appear last and are
the "priority actions").  When a selected process has several enabled
actions, it executes its highest-priority enabled one.

Algorithms also receive *inputs* from the environment: the committee
coordination algorithms read the predicates ``RequestIn(p)`` and
``RequestOut(p)`` which model the professor's autonomous decisions.  The
environment is exposed to guards and statements through the
:class:`ActionContext`.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kernel.configuration import Configuration, ProcessId


class Environment:
    """External inputs to an algorithm (professor requests, clocks, ...).

    The default environment answers ``False`` to every request predicate; the
    request models in :mod:`repro.workloads.request_models` override these
    hooks.  ``observe`` is called by the scheduler once per step *after* the
    step has been applied so that stateful environments (e.g. meeting-length
    counters) can advance.
    """

    #: ``True`` iff evaluating the request predicates is free of side effects
    #: (no RNG draws, no state mutation), so that evaluating a guard more or
    #: fewer times cannot change the run.  The incremental scheduler engine
    #: skips guard evaluations and therefore refuses environments that set
    #: this to ``False`` when asked for explicitly; the default
    #: ``engine=None``/``"auto"`` falls back to the dense engine instead, and
    #: :meth:`DistributedAlgorithm.enabled_action` then evaluates every guard
    #: rather than stopping at the highest-priority enabled one.
    #: Every environment in this library keeps it ``True`` — draw randomness
    #: in :meth:`observe` (as ``ProbabilisticRequestEnvironment`` does) or in
    #: ``reset``, never inside ``request_in``/``request_out``.
    deterministic_guards: bool = True

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        """The ``RequestIn(p)`` predicate: does professor ``pid`` want to meet?"""
        return False

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        """The ``RequestOut(p)`` predicate: does professor ``pid`` want to leave?"""
        return False

    def observe(self, configuration: Configuration, step_index: int) -> None:
        """Hook invoked after every step with the new configuration."""

    def on_essential_discussion(self, pid: ProcessId) -> None:
        """Hook invoked when professor ``pid`` performs its essential discussion."""

    def reset(self) -> None:
        """Reset any internal state (called when a scheduler is rebuilt)."""


class ActionContext:
    """Read/write interface handed to guards and statements.

    Reads are served from the *pre-step* snapshot (composite atomicity:
    every process selected in a step evaluates its guard and computes its
    writes against the same configuration ``γ``).  Writes are buffered and
    applied by the scheduler when building ``γ'``.

    The atomic-state model only allows a process to read its neighbours'
    variables; the context does not mechanically enforce this (the token
    circulation substrate legitimately reads its virtual-ring predecessor,
    a documented substitution), but every committee coordination algorithm
    restricts itself to hypergraph neighbours.
    """

    __slots__ = (
        "pid",
        "configuration",
        "environment",
        "memo",
        "_get",
        "_writes",
        "_released_token",
    )

    def __init__(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
    ) -> None:
        self.pid = pid
        self.configuration = configuration
        self.environment = environment
        #: Macro results of this context (``Ready(p)``, ``FreeEdges_p``, ...).
        #: Valid for the context's whole lifetime because a context is one
        #: (snapshot, pid) pair: reads never see its own buffered writes.
        self.memo: Dict[Any, Any] = {}
        self._get = configuration.get
        self._writes: Dict[str, Any] = {}
        self._released_token = False

    # -- reads ---------------------------------------------------------- #
    def read(self, pid: ProcessId, variable: str, default: Any = None) -> Any:
        """Read ``variable`` of process ``pid`` from the pre-step snapshot."""
        return self._get(pid, variable, default)

    def own(self, variable: str, default: Any = None) -> Any:
        """Read one of the executing process's own variables."""
        return self._get(self.pid, variable, default)

    def request_in(self) -> bool:
        return self.environment.request_in(self.pid, self.configuration)

    def request_out(self) -> bool:
        return self.environment.request_out(self.pid, self.configuration)

    # -- writes --------------------------------------------------------- #
    def write(self, variable: str, value: Any) -> None:
        """Buffer a write to one of the executing process's own variables."""
        self._writes[variable] = value

    @property
    def writes(self) -> Dict[str, Any]:
        return dict(self._writes)

    def mark_token_released(self) -> None:
        """Record that the statement invoked ``ReleaseToken_p`` (for tracing)."""
        self._released_token = True

    @property
    def released_token(self) -> bool:
        return self._released_token


def memoized_macro(macro: Callable[[Any, ActionContext, ProcessId], Any]) -> Callable[..., Any]:
    """Memoise a guard macro ``macro(self, ctx, pid)`` in ``ctx.memo``.

    Guards of one process evaluate the same macros (``Ready(p)``,
    ``FreeEdges_p``, ``Token(p)``, ...) several times against one context;
    the first call computes, later calls return the stored value.  Only the
    context's own process is memoised (``pid`` defaults to it): a macro
    asked about another process is computed afresh.  The key is the macro's
    qualified name, so one context must be evaluated by one algorithm.
    Memoised values are shared between callers and must not be mutated.
    """
    key = macro.__qualname__

    @functools.wraps(macro)
    def wrapper(self: Any, ctx: ActionContext, pid: Optional[ProcessId] = None) -> Any:
        if pid is None:
            pid = ctx.pid
        elif pid != ctx.pid:
            return macro(self, ctx, pid)
        memo = ctx.memo
        if key in memo:
            return memo[key]
        value = memo[key] = macro(self, ctx, pid)
        return value

    return wrapper


Guard = Callable[[ActionContext], bool]
Statement = Callable[[ActionContext], None]

#: The value type of :meth:`DistributedAlgorithm.read_dependency_variables`:
#: ``source process -> variables read`` (``None`` = any variable).
ReadDependencyVariables = Mapping[ProcessId, Optional[Tuple[str, ...]]]


def merge_read_dependency_variables(
    *specs: ReadDependencyVariables,
) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
    """Union several variable-granular dependency maps.

    Used by composed algorithms (CC layer + token module, election + token
    circulation) whose guards read different variables of possibly the same
    source processes.  A ``None`` entry ("any variable") absorbs explicit
    variable tuples for that source.
    """
    merged: Dict[ProcessId, Optional[set]] = {}
    for spec in specs:
        for source, variables in spec.items():
            if variables is None:
                merged[source] = None
                continue
            current = merged.get(source, set())
            if current is None:
                continue  # already "any variable"
            merged[source] = set(current) | set(variables)
    return {
        source: (None if variables is None else tuple(sorted(variables)))
        for source, variables in merged.items()
    }


@dataclass(frozen=True)
class Action:
    """One guarded action ``label :: guard |-> statement`` of a local algorithm."""

    label: str
    guard: Guard
    statement: Statement

    def enabled(self, ctx: ActionContext) -> bool:
        return bool(self.guard(ctx))

    def execute(self, ctx: ActionContext) -> None:
        self.statement(ctx)


class DistributedAlgorithm(abc.ABC):
    """A distributed algorithm: one local algorithm per process.

    Subclasses describe

    * the set of processes (:meth:`process_ids`),
    * each process's variables with a legitimate initial value
      (:meth:`initial_state`) and, for stabilization experiments, an
      arbitrary value drawn from the variable domains
      (:meth:`arbitrary_state`),
    * the ordered list of guarded actions of each process
      (:meth:`actions`); the list order encodes priority, **later = higher**.
    """

    @abc.abstractmethod
    def process_ids(self) -> Tuple[ProcessId, ...]:
        """All process identifiers (a total order, as the paper assumes)."""

    @abc.abstractmethod
    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        """A legitimate ("clean start") variable assignment for ``pid``."""

    @abc.abstractmethod
    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        """A uniformly arbitrary variable assignment for ``pid`` (fault model)."""

    @abc.abstractmethod
    def actions(self, pid: ProcessId) -> Sequence[Action]:
        """Ordered guarded actions of ``pid`` (later in the list = higher priority)."""

    # ------------------------------------------------------------------ #
    # conveniences shared by all algorithms
    # ------------------------------------------------------------------ #
    def initial_configuration(self) -> Configuration:
        """The all-legitimate starting configuration."""
        return Configuration({pid: self.initial_state(pid) for pid in self.process_ids()})

    def arbitrary_configuration(self, rng: Any) -> Configuration:
        """A configuration with every variable drawn arbitrarily (transient faults)."""
        return Configuration({pid: self.arbitrary_state(pid, rng) for pid in self.process_ids()})

    def priority_actions(self, pid: ProcessId) -> Tuple[Action, ...]:
        """The actions of ``pid`` highest priority first (:meth:`actions` reversed)."""
        return tuple(self.actions(pid))[::-1]

    def enabled_action(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
        actions: Sequence[Action],
    ) -> Optional[Action]:
        """The highest-priority enabled action of ``pid`` in ``configuration``.

        Returns ``None`` when ``pid`` is disabled.  ``actions`` is the
        process's action list *highest priority first*, as
        :meth:`priority_actions` builds it (the scheduler builds it once per
        run).  Priority follows the paper's convention: the action appearing
        *last* in :meth:`actions` wins.

        Guards are evaluated through :meth:`Action.enabled` against one
        :class:`ActionContext`, whose :attr:`~ActionContext.memo` shares
        macro results between the guards for this one call.  Guards must be
        free of side effects, so the scan stops at the first enabled action
        in priority order.  An environment declaring ``deterministic_guards
        = False`` may have side-effecting request predicates; for it every
        guard is evaluated, in code order (lowest priority first), and the
        last enabled one is kept — so such an environment sees the same
        ``request_in``/``request_out`` calls on the dense engine as with an
        exhaustive scan.
        """
        ctx = ActionContext(pid, configuration, environment)
        if getattr(environment, "deterministic_guards", True):
            for action in actions:
                if action.enabled(ctx):
                    return action
            return None
        chosen: Optional[Action] = None
        for action in reversed(actions):
            if action.enabled(ctx):
                chosen = action
        return chosen

    def enabled_processes(
        self,
        configuration: Configuration,
        environment: Environment,
        table: Mapping[ProcessId, Sequence[Action]],
    ) -> Dict[ProcessId, Action]:
        """``Enabled(γ)`` with, for each enabled process, its priority action.

        ``table`` maps each process to its :meth:`priority_actions` tuple.
        """
        enabled: Dict[ProcessId, Action] = {}
        for pid in self.process_ids():
            action = self.enabled_action(pid, configuration, environment, table[pid])
            if action is not None:
                enabled[pid] = action
        return enabled

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Mapping[ProcessId, Optional[Tuple[str, ...]]]:
        """Read dependencies of the guards of ``pid``: the dirty-set declaration.

        Returns a mapping ``source process -> variable names read`` where
        ``None`` means "any variable of that source".  The incremental
        scheduler engine inverts this map at construction: after a step it
        re-evaluates ``pid`` iff some step writer wrote a variable ``pid``
        declares here (matching against the step's
        :class:`~repro.kernel.trace.StepDelta`).  The default is maximally
        conservative (every process, any variable), which makes the
        incremental engine correct for any algorithm at the cost of
        re-evaluating everything; algorithms with local guards override it
        — e.g. the committee coordination layer reads only ``S``/``P``/``T``
        (/``L``) of its hypergraph neighbours plus the token module's counter
        of its ring predecessor.  ``pid`` itself is always treated as a full
        dependency by the scheduler regardless of what this returns.
        """
        return {source: None for source in self.process_ids()}

    def environment_sensitive_processes(
        self, configuration: Configuration
    ) -> Tuple[ProcessId, ...]:
        """Processes whose enabledness may change with the *environment* alone.

        Between two steps the configuration is frozen but the environment
        advances (``observe`` runs after every step), so guards that read
        ``RequestIn`` / ``RequestOut`` can flip without any process writing.
        The incremental engine re-evaluates exactly these processes when it
        reuses the previous step's post-step enabled map.  The default is
        conservative (every process — the reuse then degenerates to a full
        sweep); algorithms whose guards never consult the environment return
        ``()``, and the committee coordination layer returns the processes
        whose status makes a request predicate relevant (``idle``/``done``).
        The engine scans it between every two steps.
        """
        return self.process_ids()

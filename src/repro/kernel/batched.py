"""Batched lockstep execution: many seeds of one scenario over shared arrays.

The third engine.  Where ``dense`` and ``incremental`` execute one computation
at a time, the batched engine executes ``runs`` independent computations
("lanes") of the *same* scenario in lockstep: per-process variables live in
numpy arrays of shape ``(runs, n)``, guard evaluation is one vectorized sweep
across all lanes (see :mod:`repro.core.batched_program`), and only the
per-lane parts that are inherently sequential — daemon RNG streams, statement
execution of the selected processes, listeners — run as ordinary Python.

The lane contract
-----------------

Lane ``i`` reproduces, step for step, the exact run a solo
:class:`~repro.kernel.scheduler.Scheduler` would produce with lane ``i``'s
seed-derived inputs (initial configuration, daemon, fault injector):

* identical :class:`~repro.kernel.trace.StepRecord` streams — ``selected``,
  ``executed``, ``enabled_before``, ``neutralized``, ``round_index`` and the
  :class:`~repro.kernel.trace.StepDelta` writer sets stamped with the lane's
  own configuration epoch;
* identical final configurations, step/round counts and stop reasons;
* identical listener observations (the streaming metrics / spec monitors
  attached per lane see the same ``(configuration, record)`` stream).

This holds because neither statements nor step bookkeeping are
re-implemented: the *real* :class:`~repro.kernel.algorithm.Action` objects
execute against the real :class:`~repro.kernel.algorithm.ActionContext`,
reading the pre-step arrays through a lane view that decodes them back to
canonical Python values, and each :class:`Lane` goes through the solo
scheduler's own selection, step-record, round and listener functions
(:func:`~repro.kernel.scheduler.select_and_execute`,
:func:`~repro.kernel.scheduler.commit_step`,
:func:`~repro.kernel.scheduler.notify_listeners`).  Only guard evaluation is
transcribed to array form, and the differential harness byte-compares the
resulting enabled sets and action choices against the ``dense`` oracle.

Lockstep + lane independence
----------------------------

All active lanes share the global step index (a lane's ``step_index`` always
equals the number of steps it committed), so per-step campaign schedules
(fault bursts every ``k`` steps) fire at the same step in batched and solo
runs.  Lanes never read each other's rows; a lane that terminates or is
stopped by a listener simply drops out of the lockstep while the rest
continue.  Permuting lanes or splitting a batch therefore never changes any
lane's results — the lane-independence property the property-based tests
assert.

The cached sweep
----------------

The guard sweep computed after step ``k``'s writes is cached and reused as
step ``k+1``'s pre-step sweep — valid because between the two only the
environment advances, and the environment-dependent guard factors
(``RequestIn``/``RequestOut``) are folded in fresh each time.  The only
thing that mutates the arrays *outside* the step loop is mid-run fault
injection re-encoding a corrupted lane; it drops the cached sweep, so the
next step sweeps afresh, mirroring
:meth:`~repro.kernel.scheduler.Scheduler.set_configuration` invalidating the
incremental engine's cache.  Net effect: one full vectorized sweep per step
instead of the dense engine's two.

numpy is an optional extra (``pip install 'repro-cc[batched]'``): this module
imports without it, and :func:`require_numpy` raises
:class:`BatchedUnsupported` with the extra's name when the arrays are
actually needed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.kernel.configuration import Configuration, ProcessId
from repro.kernel.daemon import Daemon
from repro.kernel.scheduler import (
    StopRun,
    commit_step,
    notify_listeners,
    round_count,
    select_and_execute,
)
from repro.kernel.trace import Trace

try:  # pragma: no cover - exercised only in numpy-less environments
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Engine name (accepted by the campaign matrix / CLI, not by the solo
#: :class:`~repro.kernel.scheduler.Scheduler`, whose unit of work is one run).
BATCHED_ENGINE = "batched"

#: Hint shown whenever the batched engine is requested without numpy.
NUMPY_HINT = (
    "the batched engine requires numpy, which is an optional extra: "
    "pip install 'repro-cc[batched]'"
)


class BatchedUnsupported(RuntimeError):
    """The batched engine cannot run this scenario (caller should fall back).

    Raised at compile time for scenarios outside the vectorized guard
    tables' coverage (unknown algorithm subclasses, order-sensitive
    environments, malformed domains) and when numpy is missing.  The
    campaign layer catches it and falls back to per-lane solo runs, which
    produce identical rows by the lane contract.
    """


def numpy_available() -> bool:
    """``True`` iff numpy is importable (the ``repro-cc[batched]`` extra)."""
    return _np is not None


def require_numpy() -> Any:
    """Return the numpy module or raise :class:`BatchedUnsupported` with the hint."""
    if _np is None:
        raise BatchedUnsupported(NUMPY_HINT)
    return _np


class BatchedConfiguration:
    """Array-of-lanes state: the variable arrays plus the vectorized environment.

    ``arrays`` maps each compiled variable slot (e.g. ``"S"``, ``"P"``,
    ``"C"``) to an array of shape ``(runs, n)``; ``env`` is the scenario's
    vectorized environment state (owned by the compiled program).
    Instances are produced by ``BatchedProgram.encode``.
    """

    __slots__ = ("runs", "arrays", "env")

    def __init__(self, runs: int, arrays: Dict[str, Any], env: Any) -> None:
        self.runs = runs
        self.arrays = arrays
        self.env = env


class Lane:
    """One lane: its inputs, its run state and, after a run, its outcome.

    The run state carries the attribute names of a
    :class:`~repro.kernel.scheduler.Scheduler` (``daemon``,
    ``configuration``, ``epoch``, ``step_index``, ``round_index``, ``trace``,
    ...), so the solo scheduler's step bookkeeping
    (:func:`~repro.kernel.scheduler.select_and_execute`,
    :func:`~repro.kernel.scheduler.commit_step`) runs on a lane unchanged,
    and :meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler`
    corrupts a lane as it does a scheduler.  The trace is sparse.
    """

    __slots__ = (
        "lane",
        "daemon",
        "injector",
        "listeners",
        "configuration",
        "epoch",
        "step_index",
        "round_index",
        "_round_pending",
        "trace",
        "terminated",
        "stop_reason",
    )

    record_configurations = False

    def __init__(
        self,
        lane: int,
        configuration: Configuration,
        daemon: Daemon,
        injector: Optional[Any],
        listeners: Sequence[Any],
    ) -> None:
        self.lane = lane
        self.daemon = daemon
        daemon.reset()
        self.injector = injector
        self.listeners = list(listeners)
        self.configuration = configuration
        #: Configuration epoch: bumped by every fault swap, stamped onto
        #: every step's delta (see :attr:`Scheduler.epoch`).
        self.epoch = 0
        self.step_index = 0
        self.round_index = 0
        self._round_pending: Optional[Set[ProcessId]] = None
        self.trace = Trace(configuration)
        self.terminated = False
        self.stop_reason = "max_steps"

    def set_configuration(self, configuration: Configuration) -> None:
        """The fault path: swap the configuration and bump the epoch.

        The caller re-encodes the lane's array row (see
        :meth:`BatchedScheduler.run`).
        """
        self.configuration = configuration
        self.epoch += 1

    @property
    def steps(self) -> int:
        return self.step_index

    @property
    def rounds(self) -> int:
        return round_count(self)


class BatchedScheduler:
    """Runs many lanes of one compiled scenario in lockstep.

    Parameters
    ----------
    program:
        A compiled scenario (see
        :func:`repro.core.batched_program.compile_program`): static topology
        tables, encoders/decoders, and the vectorized guard sweep.
    initial_configurations:
        One starting :class:`~repro.kernel.configuration.Configuration` per
        lane (the solo runs' ``initial_configuration``).
    daemons:
        One :class:`~repro.kernel.daemon.Daemon` per lane (each lane owns its
        seed-derived RNG stream, exactly as the solo run would).
    injectors:
        Optional per-lane fault injectors; with ``fault_every > 0`` each
        lane's injector corrupts it before every ``fault_every``-th step,
        matching the campaign/harness corruption schedule.
    step_listeners:
        Optional per-lane listener sequences (streaming metrics/spec
        monitors).
    """

    def __init__(
        self,
        program: Any,
        initial_configurations: Sequence[Configuration],
        daemons: Sequence[Daemon],
        injectors: Optional[Sequence[Optional[Any]]] = None,
        fault_every: int = 0,
        step_listeners: Optional[Sequence[Optional[Sequence[Any]]]] = None,
    ) -> None:
        require_numpy()
        runs = len(initial_configurations)
        if runs == 0:
            raise ValueError("need at least one lane")
        if len(daemons) != runs:
            raise ValueError("one daemon per lane required")
        if injectors is not None and len(injectors) != runs:
            raise ValueError("one injector entry per lane required")
        if step_listeners is not None and len(step_listeners) != runs:
            raise ValueError("one listener sequence per lane required")
        self.program = program
        self._fault_every = int(fault_every)
        self.lanes = [
            Lane(
                lane,
                initial_configurations[lane],
                daemons[lane],
                injectors[lane] if injectors is not None else None,
                (step_listeners[lane] or ()) if step_listeners is not None else (),
            )
            for lane in range(runs)
        ]
        self.state = program.encode(initial_configurations)
        #: The cached guard sweep of the current arrays (``None``: sweep
        #: before the next step).
        self._bundle: Optional[Any] = None
        # Construction-time protocol of Scheduler.__init__: the environment
        # observes the initial configuration (done counters see initial DONE
        # statuses, bursty phase clocks start), then every listener is fed
        # (initial, None).
        program.env_observe(self.state, -1)
        for lane in self.lanes:
            notify_listeners(lane.listeners, lane.configuration, None)

    # ------------------------------------------------------------------ #
    # the lockstep run loop
    # ------------------------------------------------------------------ #
    def run(self, max_steps: int) -> List[Lane]:
        """Run every lane to termination, a listener stop, or ``max_steps``."""
        np = require_numpy()
        program = self.program
        state = self.state
        pids = program.pids
        actions = [program.actions_for(pid) for pid in pids]
        active = list(self.lanes)
        step_index = 0
        while active and step_index < max_steps:
            # -- per-lane fault injection (campaign schedule) ------------- #
            if (
                self._fault_every
                and step_index
                and step_index % self._fault_every == 0
            ):
                for lane in active:
                    if lane.injector is not None:
                        lane.injector.corrupt_scheduler(lane)
                        # Mirrors Scheduler.set_configuration invalidating
                        # the incremental engine's cache: the re-encoded row
                        # makes the cached sweep stale.
                        program.encode_lane(state, lane.lane, lane.configuration)
                        self._bundle = None
            # -- pre-step enabled sweep (the previous post-step sweep) ---- #
            if self._bundle is None:
                self._bundle = program.sweep(state)
            priority = program.fold(self._bundle, state)
            # -- phase 1: per-lane selection + execution ------------------ #
            # Composite atomicity: every selected process reads the pre-step
            # arrays; a lane's writes are encoded only after the whole lane
            # executed.
            stepped = []
            for lane in active:
                row = priority[lane.lane]
                cols = np.flatnonzero(row >= 0)
                if cols.size == 0:
                    lane.terminated = True
                    lane.stop_reason = "terminal"
                    continue
                enabled_map = {pids[c]: actions[c][row[c]] for c in cols.tolist()}
                enabled_ids = tuple(enabled_map)
                selected, writes, executed = select_and_execute(
                    lane,
                    enabled_ids,
                    enabled_map,
                    program.lane_view(state, lane.lane),
                    program.lane_environment(state, lane.lane),
                )
                program.encode_writes(state, lane.lane, writes)
                stepped.append((lane, enabled_ids, selected, executed, writes))
            if not stepped:
                break
            # -- phase 2: post-step sweep (becomes next step's cache) ----- #
            # The environment has not observed the new configuration yet, so
            # this fold sees the same request predicates the pre-step sweep
            # did — exactly the solo scheduler's neutralization semantics.
            self._bundle = program.sweep(state)
            after = program.fold(self._bundle, state)
            # -- phase 3: per-lane commit (records, rounds, traces) ------- #
            records = [
                commit_step(
                    lane,
                    enabled_ids,
                    selected,
                    executed,
                    writes,
                    {pids[c] for c in np.flatnonzero(after[lane.lane] >= 0).tolist()},
                    lane.configuration.updated(writes),
                )
                for lane, enabled_ids, selected, executed, writes in stepped
            ]
            # -- phase 4: environment observes the new configurations ----- #
            program.env_observe(state, step_index)
            # -- phase 5: per-lane listeners; a StopRun ends its lane ----- #
            active = []
            for (lane, *_), record in zip(stepped, records):
                try:
                    notify_listeners(lane.listeners, lane.configuration, record)
                except StopRun as stop:
                    lane.stop_reason = stop.reason
                    continue
                active.append(lane)
            step_index += 1
        return self.lanes

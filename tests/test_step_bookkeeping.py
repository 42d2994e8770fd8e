"""Unit tests for the step bookkeeping both schedulers share.

``Scheduler.step`` and every lane of the batched engine commit their steps
through the same module-level functions of :mod:`repro.kernel.scheduler`:
``select_and_execute`` (daemon choice, smallest-id fallback, composite
atomicity), ``commit_step`` (step record, neutralization, rounds, trace),
``notify_listeners`` (the ``StopRun``-capturing listener loop) and
``round_count``.  The end-to-end lane identity is proved by the differential
harness; this file pins each function's own contract, and the per-job setup
(:class:`repro.campaign.jobs.JobRun`) the solo and batched campaign paths
share.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

import pytest

from repro.campaign import RunJob
from repro.campaign.jobs import JobRun
from repro.core.runner import CommitteeCoordinator
from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import CentralDaemon, Daemon
from repro.kernel.faults import FaultInjector
from repro.kernel.scheduler import (
    Scheduler,
    StopRun,
    commit_step,
    notify_listeners,
    round_count,
    select_and_execute,
)
from repro.kernel.trace import Trace


class _SetAlgorithm(DistributedAlgorithm):
    """Each process sets ``x`` to its id once; process ``p`` copies ``x`` of ``p - 1``."""

    def __init__(self, n: int = 3) -> None:
        self.n = n

    def process_ids(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"x": 0, "seen": None}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"x": rng.randrange(self.n + 1), "seen": None}

    def actions(self, pid: int) -> Sequence[Action]:
        def stmt(ctx: ActionContext) -> None:
            ctx.write("x", pid)
            if pid > 1:
                ctx.write("seen", ctx.read(pid - 1, "x"))

        return (Action("set", lambda ctx: ctx.own("x") != pid, stmt),)


class _FixedDaemon(Daemon):
    """Always answers ``choice`` and records what the scheduler reports back."""

    def __init__(self, choice: FrozenSet[int]) -> None:
        self.choice = choice
        self.notified: List[Tuple[Tuple[int, ...], FrozenSet[int]]] = []

    def select(self, enabled, configuration, step_index):
        return self.choice

    def notify_enabled(self, enabled, selected):
        self.notified.append((tuple(enabled), selected))


def _run_state(configuration: Configuration, daemon: Daemon = None, **overrides) -> SimpleNamespace:
    """The attributes the shared functions read and advance on a run."""
    state = dict(
        daemon=daemon,
        configuration=configuration,
        epoch=0,
        step_index=0,
        round_index=0,
        _round_pending=None,
        trace=Trace(configuration),
        record_configurations=False,
    )
    state.update(overrides)
    return SimpleNamespace(**state)


def _enabled_map(algorithm: _SetAlgorithm, pids: Sequence[int]) -> Dict[int, Action]:
    return {pid: algorithm.actions(pid)[0] for pid in pids}


class TestSelectAndExecute:
    @pytest.mark.parametrize(
        "choice", [frozenset(), frozenset({99})], ids=["empty", "not-enabled"]
    )
    def test_invalid_choice_falls_back_to_smallest_enabled_id(self, choice):
        algorithm = _SetAlgorithm()
        initial = algorithm.initial_configuration()
        daemon = _FixedDaemon(choice)
        run = _run_state(initial, daemon)
        enabled_ids = (2, 3)
        selected, writes, executed = select_and_execute(
            run, enabled_ids, _enabled_map(algorithm, enabled_ids), initial, None
        )
        assert selected == frozenset({2})
        assert executed == {2: "set"}
        assert writes == {2: {"x": 2, "seen": 0}}
        # The daemon hears the selection actually executed, not its answer.
        assert daemon.notified == [((2, 3), frozenset({2}))]

    def test_selected_processes_read_the_pre_step_snapshot(self):
        algorithm = _SetAlgorithm()
        initial = algorithm.initial_configuration()
        daemon = _FixedDaemon(frozenset({1, 2, 3, 42}))
        run = _run_state(initial, daemon)
        enabled_ids = (1, 2, 3)
        selected, writes, executed = select_and_execute(
            run, enabled_ids, _enabled_map(algorithm, enabled_ids), initial, None
        )
        assert selected == frozenset({1, 2, 3})
        # Process 2 reads process 1's pre-step x (0), not the 1 it writes.
        assert writes == {1: {"x": 1}, 2: {"x": 2, "seen": 0}, 3: {"x": 3, "seen": 0}}
        assert executed == {1: "set", 2: "set", 3: "set"}
        assert run.configuration is initial  # committing is commit_step's job


class TestCommitStep:
    def test_partial_round_neutralization_and_round_count(self):
        algorithm = _SetAlgorithm()
        initial = algorithm.initial_configuration()
        run = _run_state(initial)
        # Step 0: 1 moves, 2 stays enabled, 3 is neutralized.
        first = commit_step(
            run, (1, 2, 3), frozenset({1}), {1: "set"}, {1: {"x": 1}}, {2}, initial
        )
        assert first.index == 0 and first.round_index == 0
        assert first.enabled_before == frozenset({1, 2, 3})
        assert first.neutralized == frozenset({3})
        assert run.round_index == 0 and run._round_pending == {2}
        assert round_count(run) == 1  # the partial round counts
        # Step 1: 2 moves; the round started at step 0 completes.
        second = commit_step(
            run, (2,), frozenset({2}), {2: "set"}, {2: {"x": 2}}, (), initial
        )
        assert second.index == 1 and second.round_index == 0
        assert second.neutralized == frozenset()
        assert run.round_index == 1 and run._round_pending is None
        assert round_count(run) == 1
        assert run.step_index == 2

    def test_a_still_enabled_process_keeps_the_round_open(self):
        algorithm = _SetAlgorithm()
        initial = algorithm.initial_configuration()
        run = _run_state(initial)
        commit_step(run, (1, 2), frozenset({1}), {1: "set"}, {1: {"x": 1}}, {1, 2}, initial)
        # 1 moved and is enabled again, but the round still owes 2 a move.
        assert run._round_pending == {2}
        commit_step(run, (1, 2), frozenset({1}), {1: "set"}, {1: {"x": 1}}, {1, 2}, initial)
        assert run.round_index == 0 and run._round_pending == {2}
        commit_step(run, (1, 2), frozenset({2}), {2: "set"}, {2: {"x": 2}}, {1}, initial)
        assert run.round_index == 1 and run._round_pending is None

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_record_carries_epoch_and_sorted_writes_and_is_traced(self, dense):
        algorithm = _SetAlgorithm()
        initial = algorithm.initial_configuration()
        run = _run_state(initial, epoch=4, record_configurations=dense)
        writes = {2: {"x": 2, "seen": 0}, 3: {}}
        new = initial.updated(writes)
        record = commit_step(
            run, (2, 3), frozenset({2, 3}), {2: "set", 3: "set"}, writes, (), new
        )
        assert record.delta.epoch == 4
        assert record.delta.writes == {2: ("seen", "x")}  # empty writes dropped
        assert run.configuration is new
        assert run.trace.steps == (record,)
        assert run.trace.final == new
        assert run.trace.is_sparse is (not dense)


class TestNotifyListeners:
    def test_every_listener_is_fed_then_the_first_stop_is_raised(self):
        seen = []

        def stopper(reason):
            def listener(configuration, record):
                seen.append(reason)
                raise StopRun(reason)

            return listener

        def recorder(configuration, record):
            seen.append("recorder")

        with pytest.raises(StopRun) as info:
            notify_listeners([stopper("a"), stopper("b"), recorder], "cfg", None)
        assert info.value.reason == "a"
        assert seen == ["a", "b", "recorder"]

    def test_no_stop_returns_after_feeding_each_listener_once(self):
        fed = []
        listeners = [lambda c, r: fed.append((1, c, r)), lambda c, r: fed.append((2, c, r))]
        assert notify_listeners(listeners, "cfg", "rec") is None
        assert fed == [(1, "cfg", "rec"), (2, "cfg", "rec")]


class TestSchedulerUsesTheSharedFunctions:
    def test_driving_the_functions_by_hand_reproduces_scheduler_run(self):
        algorithm = _SetAlgorithm(4)
        solo = Scheduler(algorithm, daemon=CentralDaemon(policy="random", seed=3), engine="dense")
        result = solo.run(max_steps=50)
        assert result.terminated

        daemon = CentralDaemon(policy="random", seed=3)
        configuration = algorithm.initial_configuration()
        run = _run_state(configuration, daemon)

        def enabled_in(cfg):
            return {
                pid: action
                for pid in algorithm.process_ids()
                for action in algorithm.actions(pid)
                if action.enabled(ActionContext(pid, cfg, None))
            }

        enabled_map = enabled_in(configuration)
        while enabled_map:
            enabled_ids = tuple(sorted(enabled_map))
            selected, writes, executed = select_and_execute(
                run, enabled_ids, enabled_map, run.configuration, None
            )
            new = run.configuration.updated(writes)
            after = enabled_in(new)
            commit_step(run, enabled_ids, selected, executed, writes, after, new)
            enabled_map = after
        assert run.trace.steps == result.trace.steps
        assert run.configuration == result.final
        assert round_count(run) == result.rounds


def _job(**overrides) -> RunJob:
    base = dict(
        index=0,
        scenario="figure1",
        random_seed=None,
        algorithm="cc2",
        token="ring",
        engine="incremental",
        daemon="weakly_fair",
        environment="always",
        discussion_steps=1,
        seed=5,
        max_steps=60,
        arbitrary_start=False,
        fault_every=0,
        fault_fraction=0.0,
    )
    base.update(overrides)
    return RunJob(**base)


def _job_run(job: RunJob) -> JobRun:
    hypergraph = job.build_hypergraph()
    algorithm = CommitteeCoordinator(
        hypergraph, algorithm=job.algorithm, token=job.token, seed=job.seed, engine="incremental"
    ).algorithm
    return JobRun(job, algorithm, hypergraph), algorithm


class TestJobRun:
    def test_legitimate_start_without_faults(self):
        run, algorithm = _job_run(_job())
        assert run.initial == algorithm.initial_configuration()
        assert run.injector is None
        assert run.listeners == (run.collector.observe_step, run.suite.observe_step)

    def test_arbitrary_start_with_faults_is_seeded_by_the_job(self):
        job = _job(arbitrary_start=True, fault_every=9, fault_fraction=0.4)
        run, _ = _job_run(job)
        again, _ = _job_run(job)
        other, _ = _job_run(_job(arbitrary_start=True, fault_every=9, fault_fraction=0.4, seed=6))
        assert run.initial == again.initial
        assert run.initial != other.initial
        assert isinstance(run.injector, FaultInjector)

    def test_result_row_matches_the_solo_campaign_row(self):
        from repro.campaign.jobs import _run_job

        job = _job(arbitrary_start=True, fault_every=13, fault_fraction=0.3)
        run, algorithm = _job_run(job)
        scheduler = Scheduler(
            algorithm,
            environment=job.build_environment(),
            daemon=run.daemon,
            initial_configuration=run.initial,
            record_configurations=False,
            engine="incremental",
            step_listener=run.listeners,
        )
        while scheduler.step_index < job.max_steps:
            if scheduler.step_index and scheduler.step_index % job.fault_every == 0:
                run.injector.corrupt_scheduler(scheduler)
            if scheduler.step() is None:
                break
        result = run.result(scheduler.step_index, "max_steps", scheduler.trace, 0.0)
        assert result.output_row() == _run_job(job).output_row()
        assert result.steps == job.max_steps

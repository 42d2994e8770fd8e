"""Cross-engine differential test harness for the spec checkers.

Property-based (seeded) generation of algorithm × topology × daemon ×
fault-injection scenarios.  For every generated scenario the harness runs

1. the **dense engine** with every configuration recorded, then the dense
   post-hoc checkers (`check_exclusion` / `check_synchronization` /
   `check_progress` / `professor_fairness_counts`), and
2. the **incremental engine** with ``record_configurations=False`` and the
   :class:`~repro.spec.streaming.StreamingSpecSuite` riding the scheduler's
   observer hook,

and asserts the two verdict sets are identical — reports, violation
messages, structured details, fairness counts and all.  Scenarios include
arbitrary initial configurations and seeded mid-run `FaultInjector` bursts,
so stabilization-phase violations are exercised, not just clean runs.

The ``slow`` marker guards the long-haul variants: a >=100k-step combined
parity run and the 1M-step sparse acceptance run mirroring
``repro-cc check --engine incremental --sparse``.

The **batched axis** (``TestBatchedDifferential``) extends the same proof to
the lockstep array engine: for every seeded scenario cell, batched lane *i*
must produce a step-record stream, final configuration and spec verdicts
byte-identical to a solo ``dense`` run with lane seed *i*.  The cell's
*shape* (topology, algorithm, token, daemon kind, fault schedule) comes from
the scenario seed; lane seeds vary only the seed-derived run inputs — daemon
RNG, arbitrary initial configuration, fault-injector stream — because the
batched engine's unit of sharing is one compiled scenario.  Skipped without
numpy (the ``repro-cc[batched]`` extra).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import (
    cycle_of_committees,
    figure1_hypergraph,
    figure4_hypergraph,
    grid_of_committees,
    path_of_committees,
    random_k_uniform_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.batched import numpy_available
from repro.kernel.daemon import SynchronousDaemon, default_daemon
from repro.kernel.faults import FaultInjector, arbitrary_configuration
from repro.kernel.scheduler import Scheduler, StopRun
from repro.spec.fairness import professor_fairness_counts
from repro.spec.properties import (
    check_exclusion,
    check_progress,
    check_synchronization,
)
from repro.spec.discussion import check_essential_discussion, check_voluntary_discussion
from repro.spec.streaming import SpecVerdicts, StreamingSpecSuite
from repro.workloads.random_scenarios import RandomScenarioSpec, random_scenario
from repro.workloads.request_models import AlwaysRequestingEnvironment


@dataclass(frozen=True)
class ScenarioSpec:
    """One generated differential scenario (fully determined by its seed)."""

    seed: int
    topology: str
    algorithm: str
    token: str
    daemon: str
    discussion_steps: int
    arbitrary_start: bool
    burst_every: int  # 0 = no mid-run fault injection
    burst_fraction: float
    max_steps: int

    def hypergraph(self) -> Hypergraph:
        rng = random.Random(self.seed)
        if self.topology == "figure1":
            return figure1_hypergraph()
        if self.topology == "figure4":
            return figure4_hypergraph()
        if self.topology == "path":
            return path_of_committees(rng.randint(3, 6))
        if self.topology == "cycle":
            return cycle_of_committees(rng.randint(3, 6))
        if self.topology == "grid":
            return grid_of_committees(2, 3)
        if self.topology == "star":
            return star_hypergraph(4, 2)
        return random_k_uniform_hypergraph(8, 6, committee_size=3, seed=self.seed)


TOPOLOGIES = ("figure1", "figure4", "path", "cycle", "grid", "star", "random")


def generate_scenario(seed: int, max_steps: int = 260) -> ScenarioSpec:
    """Derive a scenario deterministically from one seed."""
    rng = random.Random(seed * 7919 + 17)
    return ScenarioSpec(
        seed=seed,
        topology=rng.choice(TOPOLOGIES),
        algorithm=rng.choice(("cc1", "cc2", "cc3")),
        token=rng.choice(("tree", "ring", "oracle")),
        daemon=rng.choice(("weakly_fair", "weakly_fair", "synchronous")),
        discussion_steps=rng.randint(1, 3),
        arbitrary_start=rng.random() < 0.5,
        burst_every=rng.choice((0, 0, 9, 13)),
        burst_fraction=rng.choice((0.4, 0.8)),
        max_steps=max_steps,
    )


def _drive(spec: ScenarioSpec, engine: str, record: bool,
           suite: Optional[StreamingSpecSuite] = None) -> Scheduler:
    hypergraph = spec.hypergraph()
    coordinator = CommitteeCoordinator(
        hypergraph, algorithm=spec.algorithm, token=spec.token,
        seed=spec.seed, engine=engine,
    )
    algorithm = coordinator.algorithm
    daemon = (
        SynchronousDaemon() if spec.daemon == "synchronous" else default_daemon(seed=spec.seed)
    )
    scheduler = Scheduler(
        algorithm,
        environment=AlwaysRequestingEnvironment(spec.discussion_steps),
        daemon=daemon,
        initial_configuration=(
            arbitrary_configuration(algorithm, seed=spec.seed)
            if spec.arbitrary_start else None
        ),
        record_configurations=record,
        engine=engine,
        step_listener=suite.observe_step if suite is not None else None,
    )
    injector = (
        FaultInjector(algorithm, fraction=spec.burst_fraction, seed=spec.seed + 1)
        if spec.burst_every else None
    )
    while scheduler.step_index < spec.max_steps:
        if (
            injector is not None
            and scheduler.step_index
            and scheduler.step_index % spec.burst_every == 0
        ):
            injector.corrupt_scheduler(scheduler)
        try:
            if scheduler.step() is None:
                break
        except StopRun:
            break
    return scheduler


def _dense_verdicts(scheduler: Scheduler, hypergraph: Hypergraph) -> SpecVerdicts:
    trace = scheduler.trace
    return SpecVerdicts(
        exclusion=check_exclusion(trace, hypergraph),
        synchronization=check_synchronization(trace, hypergraph),
        progress=check_progress(trace, hypergraph),
        fairness=professor_fairness_counts(trace, hypergraph),
    )


def _assert_verdicts_equal(streaming: SpecVerdicts, dense: SpecVerdicts, context: object) -> None:
    assert streaming.exclusion == dense.exclusion, context
    assert streaming.synchronization == dense.synchronization, context
    assert streaming.progress == dense.progress, context
    assert streaming.fairness == dense.fairness, context


class TestDifferentialHarness:
    """Dense post-hoc == streaming == incremental engine, per seeded scenario."""

    @pytest.mark.parametrize("seed", range(14))
    def test_seeded_scenario_parity(self, seed):
        spec = generate_scenario(seed)
        hypergraph = spec.hypergraph()

        dense_sched = _drive(spec, engine="dense", record=True)
        dense = _dense_verdicts(dense_sched, hypergraph)

        # Streaming monitors on the *incremental* engine, sparse run.
        suite = StreamingSpecSuite(hypergraph)
        incremental_sched = _drive(spec, engine="incremental", record=False, suite=suite)
        _assert_verdicts_equal(suite.verdicts(), dense, spec)

        # Same step sequence across engines (the corruption bursts included).
        assert tuple(dense_sched.trace.steps) == tuple(incremental_sched.trace.steps), spec
        assert dense_sched.configuration == incremental_sched.configuration, spec

        # Streaming monitors on the *dense* engine agree as well (isolates
        # the monitor logic from the engine variable).
        suite_dense = StreamingSpecSuite(hypergraph)
        _drive(spec, engine="dense", record=False, suite=suite_dense)
        _assert_verdicts_equal(suite_dense.verdicts(), dense, spec)

    def test_generated_scenarios_are_diverse(self):
        specs = [generate_scenario(seed) for seed in range(14)]
        assert len({s.topology for s in specs}) >= 4
        assert {s.algorithm for s in specs} == {"cc1", "cc2", "cc3"}
        assert any(s.arbitrary_start for s in specs)
        assert any(s.burst_every for s in specs)
        assert any(not s.burst_every for s in specs)

    def test_fault_injected_scenarios_produce_violations_somewhere(self):
        # The harness is only meaningful if the fault-injection scenarios
        # actually exercise the violation paths: at least one generated
        # scenario must yield a safety violation that both sides agree on.
        for seed in range(14):
            spec = generate_scenario(seed)
            if not spec.burst_every:
                continue
            hypergraph = spec.hypergraph()
            dense = _dense_verdicts(_drive(spec, engine="dense", record=True), hypergraph)
            if not (dense.exclusion.holds and dense.synchronization.holds):
                suite = StreamingSpecSuite(hypergraph)
                _drive(spec, engine="incremental", record=False, suite=suite)
                verdicts = suite.verdicts()
                assert verdicts.first_violation is not None
                assert not (verdicts.exclusion.holds and verdicts.synchronization.holds)
                return
        pytest.fail("no fault-injection scenario produced a safety violation")


def _drive_random(
    spec: RandomScenarioSpec,
    algorithm_name: str,
    engine: str,
    record: bool,
    max_steps: int,
    suite: Optional[StreamingSpecSuite] = None,
) -> Scheduler:
    """Drive one randomized scenario exactly as the campaign worker does.

    A fresh environment/daemon is built per call (they are stateful); the
    run seed is the scenario seed, so the same spec replays identically on
    both engines.
    """
    hypergraph = spec.build_hypergraph()
    coordinator = CommitteeCoordinator(
        hypergraph, algorithm=algorithm_name, token=spec.token,
        seed=spec.seed, engine=engine,
    )
    algorithm = coordinator.algorithm
    scheduler = Scheduler(
        algorithm,
        environment=spec.build_environment(),
        daemon=spec.build_daemon(seed=spec.seed),
        initial_configuration=(
            arbitrary_configuration(algorithm, seed=spec.seed)
            if spec.arbitrary_start else None
        ),
        record_configurations=record,
        engine=engine,
        step_listener=suite.observe_step if suite is not None else None,
    )
    injector = (
        FaultInjector(algorithm, fraction=spec.fault_fraction, seed=spec.seed + 1)
        if spec.fault_every else None
    )
    while scheduler.step_index < max_steps:
        if (
            injector is not None
            and scheduler.step_index
            and scheduler.step_index % spec.fault_every == 0
        ):
            injector.corrupt_scheduler(scheduler)
        try:
            if scheduler.step() is None:
                break
        except StopRun:
            break
    return scheduler


class TestRandomScenarioFuzz:
    """Seeded fuzzing over the ``random_scenarios`` workload space.

    Every drawn scenario (random topology × request model × token × daemon ×
    fault schedule × start) is run on both engines; the dense recorded trace
    and the incremental sparse trace must be step-identical, and the
    streaming suite (2-phase discussion included) must match the dense
    post-hoc checkers byte for byte.  This is the differential backstop for
    arbitrary campaign workloads, not just the named scenarios.
    """

    @staticmethod
    def _check_one(seed: int, max_steps: int) -> None:
        spec = random_scenario(seed)
        algorithm_name = ("cc1", "cc2", "cc3")[seed % 3]
        hypergraph = spec.build_hypergraph()

        dense = _drive_random(spec, algorithm_name, "dense", True, max_steps)
        suite = StreamingSpecSuite(hypergraph, check_discussion=True)
        incremental = _drive_random(
            spec, algorithm_name, "incremental", False, max_steps, suite=suite
        )

        # Engines agree on the execution itself.
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps), spec
        assert dense.configuration == incremental.configuration, spec

        # Streaming verdicts match the dense post-hoc checkers.
        trace = dense.trace
        verdicts = suite.verdicts()
        assert verdicts.exclusion == check_exclusion(trace, hypergraph), spec
        assert verdicts.synchronization == check_synchronization(trace, hypergraph), spec
        assert verdicts.progress == check_progress(trace, hypergraph), spec
        assert verdicts.fairness == professor_fairness_counts(trace, hypergraph), spec
        assert verdicts.essential == check_essential_discussion(trace, hypergraph), spec
        assert verdicts.voluntary == check_voluntary_discussion(trace, hypergraph), spec

    @pytest.mark.parametrize("seed", range(20))
    def test_fuzzed_scenario_parity(self, seed):
        self._check_one(seed, max_steps=220)

    def test_fuzz_space_exercises_violations(self):
        # The fuzz harness must actually reach the violation paths: among
        # the tier-1 seeds, at least one fault-injected scenario fails a
        # checked property on both paths identically (asserted per-seed by
        # test_fuzzed_scenario_parity; here we just prove non-vacuity).
        for seed in range(20):
            spec = random_scenario(seed)
            if not spec.fault_every:
                continue
            algorithm_name = ("cc1", "cc2", "cc3")[seed % 3]
            hypergraph = spec.build_hypergraph()
            suite = StreamingSpecSuite(hypergraph, check_discussion=True)
            _drive_random(spec, algorithm_name, "incremental", False, 220, suite=suite)
            if not suite.verdicts().all_hold:
                return
        pytest.fail("no fuzzed fault-injection scenario produced a violation")

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(20, 140))
    def test_fuzzed_scenario_parity_wide(self, seed):
        """The wide sweep: 120 more scenarios at a longer step budget."""
        self._check_one(seed, max_steps=500)


requires_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="batched engine needs the repro-cc[batched] extra",
)


def _shared_algorithm(spec: ScenarioSpec, hypergraph: Hypergraph):
    """The scenario's algorithm object, shared by all lanes and solo refs.

    Seed/engine feed only the daemon/scheduler, so building with the base
    seed on the incremental engine yields the exact object a lane's solo run
    would use.
    """
    return CommitteeCoordinator(
        hypergraph, algorithm=spec.algorithm, token=spec.token,
        seed=spec.seed, engine="incremental",
    ).algorithm


def _lane_daemon(spec: ScenarioSpec, lane_seed: int):
    return (
        SynchronousDaemon() if spec.daemon == "synchronous"
        else default_daemon(seed=lane_seed)
    )


def _drive_batched(spec: ScenarioSpec, hypergraph: Hypergraph, algorithm,
                   lane_seeds):
    """One lockstep run: lane *i* gets the inputs seed ``lane_seeds[i]`` derives."""
    from repro.core.batched_program import compile_program
    from repro.kernel.batched import BatchedScheduler

    program = compile_program(
        algorithm, AlwaysRequestingEnvironment(spec.discussion_steps)
    )
    initials, daemons, injectors, suites, listeners = [], [], [], [], []
    for lane_seed in lane_seeds:
        initials.append(
            arbitrary_configuration(algorithm, seed=lane_seed)
            if spec.arbitrary_start else algorithm.initial_configuration()
        )
        daemons.append(_lane_daemon(spec, lane_seed))
        injectors.append(
            FaultInjector(algorithm, fraction=spec.burst_fraction, seed=lane_seed + 1)
            if spec.burst_every else None
        )
        suite = StreamingSpecSuite(hypergraph)
        suites.append(suite)
        listeners.append((suite.observe_step,))
    scheduler = BatchedScheduler(
        program, initials, daemons,
        injectors=injectors if spec.burst_every else None,
        fault_every=spec.burst_every,
        step_listeners=listeners,
    )
    return scheduler.run(spec.max_steps), suites


def _drive_lane_solo(spec: ScenarioSpec, algorithm, lane_seed: int):
    """The solo ``dense`` oracle run with lane ``lane_seed``'s inputs.

    ``Scheduler.run`` is called once per fault-free stretch, so the returned
    :class:`SchedulerResult` carries the solo run's own round count,
    termination flag and stop reason.
    """
    scheduler = Scheduler(
        algorithm,
        environment=AlwaysRequestingEnvironment(spec.discussion_steps),
        daemon=_lane_daemon(spec, lane_seed),
        initial_configuration=(
            arbitrary_configuration(algorithm, seed=lane_seed)
            if spec.arbitrary_start else None
        ),
        record_configurations=True,
        engine="dense",
    )
    injector = (
        FaultInjector(algorithm, fraction=spec.burst_fraction, seed=lane_seed + 1)
        if spec.burst_every else None
    )
    while True:
        bound = spec.max_steps
        if injector is not None:
            bound = min(bound, (scheduler.step_index // spec.burst_every + 1) * spec.burst_every)
        result = scheduler.run(max_steps=bound)
        if result.stop_reason != "max_steps" or scheduler.step_index >= spec.max_steps:
            return scheduler, result
        injector.corrupt_scheduler(scheduler)


@requires_numpy
class TestBatchedDifferential:
    """Batched lane *i* == solo dense run with lane seed *i*, per scenario cell."""

    @staticmethod
    def _check_cell(spec: ScenarioSpec, lane_seeds) -> None:
        hypergraph = spec.hypergraph()
        algorithm = _shared_algorithm(spec, hypergraph)
        lanes, suites = _drive_batched(spec, hypergraph, algorithm, lane_seeds)
        for lane_seed, lane, suite in zip(lane_seeds, lanes, suites):
            context = (spec, lane_seed)
            solo, result = _drive_lane_solo(spec, algorithm, lane_seed)
            # The execution itself: identical step records (selected sets,
            # executed action labels, enabled/neutralized sets, rounds,
            # writer-set deltas with epochs) and identical end states.
            assert tuple(solo.trace.steps) == tuple(lane.trace.steps), context
            assert solo.configuration == lane.configuration, context
            assert solo.step_index == lane.steps, context
            # The run summary: the partial-round count, why the run ended
            # and how many fault swaps it saw.
            assert result.rounds == lane.rounds, context
            assert result.terminated == lane.terminated, context
            assert result.stop_reason == lane.stop_reason, context
            assert solo.epoch == lane.epoch, context
            # The verdicts: the lane's streaming suite equals the dense
            # post-hoc checkers over the solo trace.
            _assert_verdicts_equal(
                suite.verdicts(), _dense_verdicts(solo, hypergraph), context
            )

    @pytest.mark.parametrize("seed", range(14))
    def test_batched_lanes_match_solo_dense(self, seed):
        self._check_cell(generate_scenario(seed), lane_seeds=range(6))

    def test_terminated_lanes_drop_out_without_disturbing_others(self):
        # A cell with heterogeneous lane lifetimes: arbitrary starts make
        # some lanes terminate (or stabilize) at different steps; the
        # lockstep must keep the survivors exact after each drop-out.
        spec = ScenarioSpec(
            seed=3, topology="path", algorithm="cc2", token="ring",
            daemon="weakly_fair", discussion_steps=1, arbitrary_start=True,
            burst_every=0, burst_fraction=0.4, max_steps=220,
        )
        self._check_cell(spec, lane_seeds=range(10))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", (0, 5, 11))
    def test_batched_120_seed_sweep(self, seed):
        """The wide proof: 120 lanes per cell, every lane checked."""
        self._check_cell(
            generate_scenario(seed, max_steps=300), lane_seeds=range(120)
        )


class TestLongHaulParity:
    """The acceptance-criteria runs: multi-100k/1M-step sparse spec checking."""

    @pytest.mark.slow
    def test_250k_step_parity_with_fault_injection(self):
        spec = ScenarioSpec(
            seed=5, topology="figure1", algorithm="cc2", token="tree",
            daemon="weakly_fair", discussion_steps=1, arbitrary_start=True,
            burst_every=50_000, burst_fraction=0.6, max_steps=250_000,
        )
        hypergraph = spec.hypergraph()
        dense = _dense_verdicts(_drive(spec, engine="dense", record=True), hypergraph)
        suite = StreamingSpecSuite(hypergraph)
        _drive(spec, engine="incremental", record=False, suite=suite)
        _assert_verdicts_equal(suite.verdicts(), dense, spec)

    @pytest.mark.slow
    def test_one_million_step_sparse_acceptance(self):
        """`repro-cc check --engine incremental --sparse` at 1M steps == dense post-hoc.

        Needs a few GB of RSS for the dense reference trace and ~20 minutes;
        this is exactly the acceptance criterion of the streaming spec
        subsystem, so it is kept runnable (``pytest -m slow``) rather than
        aspirational.
        """
        steps = 1_000_000
        hypergraph = figure1_hypergraph()

        sparse = CommitteeCoordinator(
            hypergraph, algorithm="cc2", seed=2026, engine="incremental"
        ).run(max_steps=steps, record_configurations=False, check=True)
        assert sparse.trace.is_sparse
        verdicts = sparse.spec
        assert verdicts is not None

        dense = CommitteeCoordinator(
            hypergraph, algorithm="cc2", seed=2026, engine="dense"
        ).run(max_steps=steps)
        trace = dense.trace
        assert verdicts.exclusion == check_exclusion(trace, hypergraph)
        assert verdicts.synchronization == check_synchronization(trace, hypergraph)
        assert verdicts.progress == check_progress(trace, hypergraph)
        assert verdicts.fairness == professor_fairness_counts(trace, hypergraph)
        assert verdicts.all_hold

    @pytest.mark.slow
    def test_stop_on_violation_against_million_step_budget(self):
        """A seeded fault-injection scenario halts at the first violation,
        long before the 1M-step budget is spent."""
        hypergraph = figure1_hypergraph()
        coordinator = CommitteeCoordinator(
            hypergraph, algorithm="cc2", seed=0, engine="incremental"
        )
        algorithm = coordinator.algorithm
        suite = StreamingSpecSuite(hypergraph, stop_on_violation=True)
        scheduler = Scheduler(
            algorithm,
            environment=AlwaysRequestingEnvironment(1),
            daemon=default_daemon(seed=0),
            record_configurations=False,
            engine="incremental",
            step_listener=suite.observe_step,
        )
        injector = FaultInjector(algorithm, fraction=0.8, seed=99)
        stopped_at = None
        while scheduler.step_index < 1_000_000:
            if scheduler.step_index and scheduler.step_index % 7 == 0:
                injector.corrupt_scheduler(scheduler)
            try:
                if scheduler.step() is None:
                    break
            except StopRun:
                stopped_at = scheduler.step_index
                break
        assert stopped_at is not None and stopped_at < 1_000_000
        assert suite.first_violation is not None
        assert suite.first_violation.step_index == stopped_at

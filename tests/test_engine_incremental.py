"""Tests for the incremental execution engine and the bugfixes shipped with it.

Covers

* dense-vs-incremental equivalence: same seed ⇒ identical step records and
  final configuration for cc1/cc2/cc3 × tree/ring/oracle (clean and
  arbitrary starts), and identical summary metrics on sparse runs;
* the same equivalence for each algorithm's own dirty-set declarations:
  the Dijkstra ring, the leader election, their composition, and an
  algorithm on the kernel defaults, from seeded arbitrary starts;
* copy-on-write ``Configuration.updated``;
* ``Scheduler.run`` evaluating ``stop_predicate`` on idle ticks;
* ``waiting_spells`` rejecting sparse traces and counting the spell that
  opens at the last configuration;
* the scheduler reporting the *executed* selection to
  ``Daemon.notify_enabled`` so ``WeaklyFairDaemon`` bookkeeping stays truthful
  when the empty-selection fallback kicks in;
* ``AdversarialDaemon``'s fallback behaviour after the hot-loop cleanup.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import (
    AdversarialDaemon,
    Daemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    default_daemon,
)
from repro.kernel.faults import arbitrary_configuration
from repro.kernel.scheduler import Scheduler
from repro.kernel.trace import Trace, StepRecord
from repro.metrics.waiting_time import WaitingSpellTracker, waiting_spells
from repro.tokenring.composed import ComposedTokenCirculation
from repro.tokenring.dijkstra_ring import DijkstraRingAlgorithm, DijkstraRingToken
from repro.tokenring.leader_election import SelfStabilizingLeaderElection
from tests.test_kernel_scheduler import CopyNeighbourAlgorithm


# --------------------------------------------------------------------------- #
# dense vs incremental equivalence
# --------------------------------------------------------------------------- #
ALGORITHMS = ("cc1", "cc2", "cc3")
TOKENS = ("tree", "ring", "oracle")


def _run(algorithm: str, token: str, engine: str, **kwargs):
    coordinator = CommitteeCoordinator(
        figure1_hypergraph(), algorithm=algorithm, token=token, seed=13, engine=engine
    )
    return coordinator.run(max_steps=200, **kwargs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_identical_traces_and_final_configuration(self, algorithm, token):
        dense = _run(algorithm, token, "dense")
        incremental = _run(algorithm, token, "incremental")
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_from_arbitrary_start(self, algorithm):
        dense = _run(algorithm, "ring", "dense", from_arbitrary=True)
        incremental = _run(algorithm, "ring", "incremental", from_arbitrary=True)
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final

    def test_sparse_run_metrics_match_dense(self):
        dense = _run("cc2", "tree", "dense")
        sparse = _run("cc2", "tree", "incremental", record_configurations=False)
        assert dense.metrics == sparse.metrics
        assert dense.fairness.per_professor == sparse.fairness.per_professor
        assert dense.fairness.per_committee == sparse.fairness.per_committee
        # The sparse contract: the per-event list is not retained.
        assert sparse.events == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            CommitteeCoordinator(figure1_hypergraph(), engine="bogus")
        with pytest.raises(ValueError):
            Scheduler(_CountUp(2, 2), engine="turbo")

    def test_incremental_rejects_side_effecting_guards(self):
        # An environment that draws RNG during guard evaluation declares
        # deterministic_guards=False; the incremental engine skips guard
        # evaluations, so asking for it explicitly must be refused loudly
        # instead of silently diverging from the dense engine.
        from repro.kernel.algorithm import Environment

        class _SideEffecting(Environment):
            deterministic_guards = False

        env = _SideEffecting()
        with pytest.raises(ValueError, match="deterministic_guards"):
            Scheduler(_CountUp(2, 2), environment=env, engine="incremental")
        # The dense engine keeps accepting it.
        Scheduler(_CountUp(2, 2), environment=env, engine="dense")

    def test_default_engine_is_incremental_with_dense_fallback(self):
        # The default (engine=None / "auto") resolves to incremental for
        # side-effect-free environments and silently falls back to dense for
        # environments that declare deterministic_guards=False.
        from repro.kernel.algorithm import Environment

        assert Scheduler(_CountUp(2, 2)).engine == "incremental"
        assert Scheduler(_CountUp(2, 2), engine="auto").engine == "incremental"

        class _SideEffecting(Environment):
            deterministic_guards = False

        assert Scheduler(_CountUp(2, 2), environment=_SideEffecting()).engine == "dense"

    @pytest.mark.parametrize(
        "daemon_factory",
        (lambda: "weakly_fair", lambda: WeaklyFairDaemon(SynchronousDaemon())),
        ids=("weakly_fair", "weakly_fair_synchronous"),
    )
    def test_probabilistic_environment_memoises_outside_guards(self, daemon_factory):
        # The memoised ProbabilisticRequestEnvironment draws in observe(),
        # outside guard evaluation: it now declares deterministic_guards and
        # produces identical traces on both engines for a fixed seed.
        from repro.workloads.request_models import ProbabilisticRequestEnvironment

        assert ProbabilisticRequestEnvironment.deterministic_guards

        def run(engine: str):
            coordinator = CommitteeCoordinator(
                figure1_hypergraph(), algorithm="cc1", seed=5, engine=engine,
                daemon=daemon_factory(),
            )
            return coordinator.run(
                max_steps=300,
                environment=ProbabilisticRequestEnvironment(
                    request_probability=0.4, discussion_steps=2, seed=17
                ),
            )

        dense = run("dense")
        incremental = run("incremental")
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final
        assert dense.metrics == incremental.metrics


class TestDeclaredDependencyParity:
    """Each algorithm's own dirty-set declarations keep the engines in step.

    ``read_dependency_variables`` and ``environment_sensitive_processes`` are
    the only inputs the incremental engine takes from an algorithm; a
    declaration that misses a read makes it skip a guard the dense engine
    re-evaluates.  ``CopyNeighbourAlgorithm`` declares nothing (the kernel
    defaults).
    """

    @pytest.mark.parametrize(
        "build",
        (
            CopyNeighbourAlgorithm,
            lambda: DijkstraRingAlgorithm(DijkstraRingToken(range(1, 8))),
            lambda: SelfStabilizingLeaderElection(figure1_hypergraph()),
            lambda: ComposedTokenCirculation(figure1_hypergraph()),
        ),
        ids=("kernel-defaults", "dijkstra-ring", "leader-election", "composed-token"),
    )
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_dense_and_incremental_agree_from_arbitrary_start(self, build, seed):
        algorithm = build()
        initial = arbitrary_configuration(algorithm, seed=seed)
        dense, incremental = (
            Scheduler(
                algorithm,
                daemon=default_daemon(seed=seed),
                initial_configuration=initial,
                engine=engine,
            ).run(max_steps=300)
            for engine in ("dense", "incremental")
        )
        assert dense.steps > 0
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final


# --------------------------------------------------------------------------- #
# copy-on-write configurations
# --------------------------------------------------------------------------- #
class TestCopyOnWriteConfiguration:
    def test_unwritten_process_state_is_shared(self):
        base = Configuration({1: {"x": 0}, 2: {"x": 0}, 3: {"x": 0}})
        derived = base.updated({2: {"x": 5}})
        assert derived._states[1] is base._states[1]
        assert derived._states[3] is base._states[3]
        assert derived._states[2] is not base._states[2]

    def test_written_values_and_parent_isolation(self):
        base = Configuration({1: {"x": 0, "y": "a"}, 2: {"x": 0}})
        derived = base.updated({1: {"x": 7}})
        assert derived[(1, "x")] == 7 and derived[(1, "y")] == "a"
        assert base[(1, "x")] == 0

    def test_empty_writes_share_everything(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({1: {}})
        assert derived._states[1] is base._states[1]
        assert derived == base

    def test_new_process_in_writes(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({9: {"x": 1}})
        assert derived[(9, "x")] == 1 and 9 not in base

    def test_accessors_still_return_copies(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({})
        derived.state_of(1)["x"] = 99
        derived.to_dict()[1]["x"] = 99
        assert base[(1, "x")] == 0 and derived[(1, "x")] == 0


# --------------------------------------------------------------------------- #
# scheduler bugfix regressions
# --------------------------------------------------------------------------- #
class _CountUp(DistributedAlgorithm):
    def __init__(self, n: int = 2, limit: int = 3) -> None:
        self.n, self.limit = n, limit

    def process_ids(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"c": 0}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"c": rng.randrange(self.limit + 1)}

    def actions(self, pid: int) -> Sequence[Action]:
        return (
            Action(
                "inc",
                lambda ctx: ctx.own("c") < self.limit,
                lambda ctx: ctx.write("c", ctx.own("c") + 1),
            ),
        )


class TestIdleTickStopPredicate:
    def test_predicate_fires_while_quiescent(self):
        # The system is terminal immediately (limit 0); with idle steps allowed
        # the predicate must still be able to stop the run.
        scheduler = Scheduler(_CountUp(2, 0), daemon=SynchronousDaemon())
        result = scheduler.run(
            max_steps=1000,
            allow_idle_steps=True,
            stop_predicate=lambda cfg, step: step >= 3,
        )
        assert result.stop_reason == "predicate"
        assert result.steps == 3

    def test_terminal_still_wins_without_idle_steps(self):
        scheduler = Scheduler(_CountUp(2, 0), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10, stop_predicate=lambda cfg, step: step >= 3)
        assert result.stop_reason == "terminal"


class TestWaitingSpells:
    def _hypergraph(self) -> Hypergraph:
        return Hypergraph([1, 2], [(1, 2)])

    def _cfg(self, meeting: bool) -> Configuration:
        edge = self._hypergraph().hyperedges[0]
        status = "waiting" if meeting else "looking"
        pointer = edge if meeting else None
        return Configuration(
            {p: {"S": status, "P": pointer} for p in (1, 2)}
        )

    def test_sparse_trace_rejected_with_clear_error(self):
        scheduler = Scheduler(
            _CountUp(2, 3), daemon=SynchronousDaemon(), record_configurations=False
        )
        result = scheduler.run(max_steps=10)
        assert result.trace.is_sparse
        with pytest.raises(ValueError, match="record_configurations"):
            waiting_spells(result.trace, self._hypergraph())

    def test_spell_opening_at_last_configuration_is_counted(self):
        hypergraph = self._hypergraph()
        trace = Trace(self._cfg(meeting=True))
        record = StepRecord(0, frozenset({1}), {1: "a"}, frozenset({1}), frozenset(), 0)
        # Meeting dissolves in the last configuration: both professors open a
        # waiting spell right there, which must be reported (length 0).
        trace.append(self._cfg(meeting=False), record)
        spells = waiting_spells(trace, hypergraph)
        assert spells == {1: [0], 2: [0]}

    def test_tracker_matches_batch_function(self):
        hypergraph = self._hypergraph()
        sequence = [self._cfg(False), self._cfg(True), self._cfg(False), self._cfg(False)]
        trace = Trace(sequence[0])
        tracker = WaitingSpellTracker(hypergraph)
        tracker.observe(sequence[0])
        for index, cfg in enumerate(sequence[1:]):
            trace.append(
                cfg, StepRecord(index, frozenset({1}), {1: "a"}, frozenset({1}), frozenset(), 0)
            )
            tracker.observe(cfg)
        assert tracker.spells() == waiting_spells(trace, hypergraph)


class _PicksDisabled(Daemon):
    """A broken daemon that always selects a process that is never enabled."""

    def select(self, enabled, configuration, step_index):
        return frozenset({999})


class TestNotifyEnabled:
    def test_scheduler_reports_executed_selection_to_wrapper(self):
        daemon = WeaklyFairDaemon(_PicksDisabled(), patience=100)
        scheduler = Scheduler(_CountUp(3, 5), daemon=daemon)
        scheduler.step()
        # The scheduler's fallback executed the lowest enabled id (1); the
        # wrapper's starvation counters must reflect that actual selection:
        # 1 moved (counter reset), 2 and 3 were passed over (aged by one).
        assert daemon._starvation == {1: 0, 2: 1, 3: 1}

    def test_standalone_select_still_enforces_fairness(self):
        # Driven without notify_enabled (no scheduler), the wrapper must keep
        # aging starved processes on its own provisional bookkeeping.
        daemon = WeaklyFairDaemon(_PicksDisabled(), patience=3)
        cfg = Configuration({p: {"x": 0} for p in (1, 2)})
        forced = set()
        for step in range(4):
            forced |= daemon.select((1, 2), cfg, step)
        assert {1, 2} <= forced


class TestAdversarialDaemonFallback:
    def test_fallback_is_lowest_enabled_id(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [999])
        cfg = Configuration({p: {"x": 0} for p in (3, 5, 9)})
        assert daemon.select((9, 3, 5), cfg, 0) == frozenset({3})

    def test_strategy_intersection_preserved(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [5, 999])
        cfg = Configuration({p: {"x": 0} for p in (3, 5, 9)})
        assert daemon.select((9, 3, 5), cfg, 0) == frozenset({5})

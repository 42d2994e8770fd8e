"""Tests for the guard-layer fast path.

``DistributedAlgorithm.enabled_action`` scans a process's actions highest
priority first and stops at the first enabled one, the scheduler builds
each process's priority-ordered action tuple once per run, and the CC
macros are memoised per :class:`ActionContext`.  Covered here:

* the fast path picks the same action as an exhaustive reference scan
  (every guard, each on a fresh context, last enabled wins) for
  cc1/cc2/cc3 × oracle/ring/tree × figure1/grid-3x3 over arbitrary
  configurations, and every memoised macro equals its fresh computation;
* an environment with side-effecting request predicates
  (``deterministic_guards = False``) sees, on the dense engine, exactly the
  ``request_in``/``request_out`` calls of the exhaustive scan;
* a scheduler's action table does not tie the algorithm into a reference
  cycle (the algorithm is freed by reference counting alone).
"""

from __future__ import annotations

import gc
import random
import weakref
from typing import Any, List, Optional, Tuple

import pytest

from repro.core.cc1 import CC1Algorithm
from repro.core.composition import TokenBinding
from repro.core.runner import CommitteeCoordinator
from repro.kernel.algorithm import Action, ActionContext, Environment
from repro.kernel.daemon import default_daemon
from repro.kernel.scheduler import Scheduler
from repro.workloads.request_models import AlwaysRequestingEnvironment
from repro.workloads.scenarios import scenario_by_name

ALGORITHMS = ("cc1", "cc2", "cc3")
TOKENS = ("oracle", "ring", "tree")
SCENARIOS = ("figure1", "grid-3x3")
SEEDS = range(200)


def _algorithm(scenario: str, algorithm: str, token: str) -> Any:
    hypergraph = scenario_by_name(scenario).hypergraph
    return CommitteeCoordinator(hypergraph, algorithm=algorithm, token=token).algorithm


class _MixedRequests(Environment):
    """Side-effect-free requests that differ per process and per seed."""

    def __init__(self, salt: int) -> None:
        self.salt = salt

    def request_in(self, pid: Any, configuration: Any) -> bool:
        return (pid + self.salt) % 2 == 0

    def request_out(self, pid: Any, configuration: Any) -> bool:
        return (pid + self.salt) % 3 != 0


def _reference_action(algorithm: Any, pid: Any, configuration: Any, environment: Any) -> Optional[Action]:
    """Evaluate every guard in code order, each on a fresh context; keep the last enabled."""
    chosen = None
    for action in algorithm.actions(pid):
        if action.guard(ActionContext(pid, configuration, environment)):
            chosen = action
    return chosen


def _macros(algorithm: Any) -> List[Tuple[str, Any]]:
    """``(name, un-memoised function)`` of every memoised macro of ``algorithm``."""
    names = ["ready", "meeting", "free_edges"]
    if hasattr(algorithm, "t_pointing_edges"):
        names.append("t_pointing_edges")
    return [(name, getattr(type(algorithm), name).__wrapped__) for name in names]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_fast_path_matches_full_scan_and_macros_match_fresh(algorithm_name, token, scenario):
    algorithm = _algorithm(scenario, algorithm_name, token)
    pids = algorithm.process_ids()
    table = {pid: algorithm.priority_actions(pid) for pid in pids}
    macros = _macros(algorithm)
    fresh_token = TokenBinding.token.__wrapped__
    enabled_seen = set()
    for seed in SEEDS:
        configuration = algorithm.arbitrary_configuration(random.Random(seed))
        environment = _MixedRequests(seed)
        for pid in pids:
            fast = algorithm.enabled_action(pid, configuration, environment, table[pid])
            reference = _reference_action(algorithm, pid, configuration, environment)
            fast_label = None if fast is None else fast.label
            reference_label = None if reference is None else reference.label
            assert fast_label == reference_label, (seed, pid)
            enabled_seen.add(fast_label)

            ctx = ActionContext(pid, configuration, environment)
            for name, fresh in macros:
                expected = fresh(algorithm, ActionContext(pid, configuration, environment), pid)
                assert getattr(algorithm, name)(ctx, pid) == expected, (name, seed, pid)
                # The second call is served from the memo.
                assert getattr(algorithm, name)(ctx, pid) == expected, (name, seed, pid)
            expected = fresh_token(algorithm.token, ActionContext(pid, configuration, environment), pid)
            assert algorithm.token.token(ctx, pid) == expected
            assert algorithm.token.token(ctx) == expected
    # Arbitrary starts reach both disabled processes and stabilization rules.
    assert None in enabled_seen
    assert len(enabled_seen) >= 4


def test_macros_about_another_process_are_not_memoised():
    algorithm = _algorithm("figure1", "cc2", "oracle")
    configuration = algorithm.arbitrary_configuration(random.Random(3))
    environment = Environment()
    pids = algorithm.process_ids()
    ctx = ActionContext(pids[0], configuration, environment)
    for other in pids[1:]:
        fresh = ActionContext(other, configuration, environment)
        assert algorithm.free_edges(ctx, other) == algorithm.free_edges(fresh, other)
        assert algorithm.token.token(ctx, other) == algorithm.token.token(fresh, other)
    assert ctx.memo == {}


# --------------------------------------------------------------------------- #
# dense engine: side-effecting request predicates
# --------------------------------------------------------------------------- #
class _LoggingCoinEnvironment(Environment):
    """Request predicates that draw from an RNG on every call, and log it."""

    deterministic_guards = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.log: List[Tuple[str, Any, int]] = []
        self._step = -1
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self.log.clear()
        self._step = -1
        self._rng = random.Random(self.seed)

    def observe(self, configuration: Any, step_index: int) -> None:
        self._step = step_index

    def request_in(self, pid: Any, configuration: Any) -> bool:
        self.log.append(("in", pid, self._step))
        return self._rng.random() < 0.6

    def request_out(self, pid: Any, configuration: Any) -> bool:
        self.log.append(("out", pid, self._step))
        return self._rng.random() < 0.5


class _FullScanCC1(CC1Algorithm):
    """cc1 whose ``enabled_action`` is the exhaustive scan (code order, last enabled)."""

    def enabled_action(self, pid, configuration, environment, actions):
        ctx = ActionContext(pid, configuration, environment)
        chosen = None
        for action in self.actions(pid):
            if action.enabled(ctx):
                chosen = action
        return chosen


@pytest.mark.parametrize("arbitrary", [False, True])
def test_dense_engine_evaluates_every_guard_for_side_effecting_environments(arbitrary):
    fast = _algorithm("figure1", "cc1", "oracle")
    runs = []
    for algorithm in (fast, _FullScanCC1(fast.hypergraph, fast.token)):
        environment = _LoggingCoinEnvironment(seed=11)
        start = algorithm.arbitrary_configuration(random.Random(7)) if arbitrary else None
        scheduler = Scheduler(
            algorithm,
            environment=environment,
            daemon=default_daemon(seed=5),
            initial_configuration=start,
            engine="dense",
        )
        result = scheduler.run(max_steps=200)
        runs.append((environment.log, [r.executed for r in result.trace.steps], result.final))
    (fast_log, fast_steps, fast_final), (ref_log, ref_steps, ref_final) = runs
    assert {kind for kind, _pid, _step in ref_log} == {"in", "out"}
    assert fast_log == ref_log
    assert fast_steps == ref_steps
    assert fast_final == ref_final


# --------------------------------------------------------------------------- #
# no reference cycle through the action table
# --------------------------------------------------------------------------- #
def test_scheduler_action_table_leaves_no_reference_cycle():
    algorithm = _algorithm("figure1", "cc2", "tree")
    scheduler = Scheduler(
        algorithm,
        environment=AlwaysRequestingEnvironment(),
        daemon=default_daemon(seed=1),
        initial_configuration=algorithm.arbitrary_configuration(random.Random(2)),
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = scheduler.run(max_steps=60)
        assert result.steps > 0
        ref = weakref.ref(algorithm)
        del algorithm, scheduler, result
        assert ref() is None, "the algorithm is only freed by the cyclic collector"
    finally:
        if was_enabled:
            gc.enable()

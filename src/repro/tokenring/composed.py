"""Leader election ∘ token circulation: the construction the paper suggests.

Section 4.1: *"To obtain such a token circulation, one can compose a
self-stabilizing leader election algorithm with one of the self-stabilizing
token circulation algorithms for arbitrary rooted networks.  The composition
only consists of two algorithms running concurrently with the following
rule: if a process decides that it is the leader, it executes the root code
of the token circulation.  Otherwise, it executes the code of the non-root
process."*

:class:`ComposedTokenCirculation` realizes this construction as a standalone
:class:`~repro.kernel.algorithm.DistributedAlgorithm`:

* the leader-election component is the max-id election of
  :mod:`repro.tokenring.leader_election` (variables ``lid``, ``d``);
* the token component is Dijkstra's K-state algorithm over the id-ordered
  virtual ring (variable ``c``), except that "being the root" is not wired to
  a fixed process -- a process runs the root code exactly when it currently
  believes it is the leader (``lid_p = p``);
* the composition is fair: both the ``Elect`` action and the ``T`` action are
  in every process's action list (``Elect`` has higher priority, appearing
  later, so stabilization of the election is never postponed by token
  passing -- this realizes "TC stabilizes independently of the activations of
  action T").

While the election has not stabilized several processes may act as roots and
several tokens may exist; once the election converges (O(n) rounds) the ring
degenerates to a single-root Dijkstra ring and the usual argument yields a
unique circulating token.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, ProcessId
from repro.kernel.algorithm import (
    Action,
    ActionContext,
    DistributedAlgorithm,
    merge_read_dependency_variables,
)
from repro.kernel.configuration import Configuration
from repro.tokenring.leader_election import DISTANCE, LEADER, SelfStabilizingLeaderElection

COUNTER = "c"


class ComposedTokenCirculation(DistributedAlgorithm):
    """Fair composition of leader election and K-state token circulation."""

    def __init__(self, hypergraph: Hypergraph, k: int | None = None) -> None:
        self.hypergraph = hypergraph
        self.election = SelfStabilizingLeaderElection(hypergraph)
        self._pids = hypergraph.vertices
        self._ring = tuple(sorted(self._pids, reverse=True))
        index = {pid: i for i, pid in enumerate(self._ring)}
        self._pred = {pid: self._ring[(index[pid] - 1) % len(self._ring)] for pid in self._ring}
        self._k = k if k is not None else len(self._ring) + 1
        if self._k <= len(self._ring):
            raise ValueError("K must exceed the ring length")

    # ------------------------------------------------------------------ #
    # DistributedAlgorithm interface
    # ------------------------------------------------------------------ #
    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        state = dict(self.election.initial_state(pid))
        state[COUNTER] = 0
        return state

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        state = dict(self.election.arbitrary_state(pid, rng))
        state[COUNTER] = rng.randrange(self._k)
        return state

    # -- token predicate ------------------------------------------------ #
    def _acts_as_root(self, read, pid: ProcessId) -> bool:
        return read(pid, LEADER) == pid

    def holds_token(self, read, pid: ProcessId) -> bool:
        own = read(pid, COUNTER) or 0
        pred = read(self._pred[pid], COUNTER) or 0
        if self._acts_as_root(read, pid):
            return own == pred
        return own != pred

    def token_holders(self, configuration: Configuration) -> Tuple[ProcessId, ...]:
        read = lambda q, var: configuration.get(q, var)
        return tuple(p for p in self._pids if self.holds_token(read, p))

    def actions(self, pid: ProcessId) -> Sequence[Action]:
        election_actions = list(self.election.actions(pid))

        def token_guard(ctx: ActionContext) -> bool:
            return self.holds_token(lambda q, var: ctx.read(q, var), ctx.pid)

        def token_statement(ctx: ActionContext) -> None:
            read = lambda q, var: ctx.read(q, var)
            own = read(ctx.pid, COUNTER) or 0
            if self._acts_as_root(read, ctx.pid):
                ctx.write(COUNTER, (own + 1) % self._k)
            else:
                ctx.write(COUNTER, read(self._pred[ctx.pid], COUNTER) or 0)
            ctx.mark_token_released()

        token_action = Action(label="T", guard=token_guard, statement=token_statement)
        # Election actions appear last: higher priority, so election
        # stabilization is independent of token passing.
        return tuple([token_action] + election_actions)

    # -- dirty-set protocol (incremental scheduler engine) ---------------- #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """``T`` reads ``c`` of the ring predecessor (plus its own
        leader belief to decide root-vs-non-root); ``Elect`` reads the claims
        ``(lid, d)`` of the ``G_H`` neighbours.  A neighbour passing the token
        therefore no longer re-evaluates ``pid``'s election guard unless it is
        also the ring predecessor."""
        return merge_read_dependency_variables(
            {pid: None, self._pred[pid]: (COUNTER,)},
            {q: (LEADER, DISTANCE) for q in self.hypergraph.neighbors(pid)},
        )

    def environment_sensitive_processes(self, configuration) -> Tuple[ProcessId, ...]:
        return ()  # neither guard consults the environment

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def is_stabilized(self, configuration: Configuration) -> bool:
        """``True`` iff the election is legitimate and a single token exists."""
        if not self.election.is_legitimate(configuration):
            return False
        return len(self.token_holders(configuration)) == 1

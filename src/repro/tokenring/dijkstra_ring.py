"""Dijkstra's K-state self-stabilizing token circulation.

The classic algorithm (Dijkstra 1974) on a unidirectional ring of ``n``
processes with a distinguished root:

* every process ``p`` holds a counter ``c_p ∈ {0, ..., K-1}`` with ``K > n``;
* the root holds a token iff its counter equals its predecessor's
  (``c_root = c_pred``); it passes the token by incrementing its counter
  modulo ``K``;
* a non-root holds a token iff its counter differs from its predecessor's
  (``c_p ≠ c_pred``); it passes the token by copying the predecessor.

From any initial assignment at least one process holds a token, and after at
most ``O(n²)`` token passes exactly one token remains and circulates the ring
forever -- the classical self-stabilization result, which gives Property 1.

Two classes are provided:

* :class:`DijkstraRingToken` -- the :class:`~repro.tokenring.interfaces.TokenModule`
  used by the CC ∘ TC compositions (the pass action ``T`` is emulated by the
  CC layer).
* :class:`DijkstraRingAlgorithm` -- a standalone
  :class:`~repro.kernel.algorithm.DistributedAlgorithm` whose only action is
  ``T``; used to unit-test the stabilization and fairness properties of the
  ring in isolation.

The ring order is *virtual*: by default processes are arranged in increasing
id order, regardless of the communication topology.  This is the substitution
documented in DESIGN.md §3 -- the paper's ``TC`` passes the token between
``G_H``-neighbours, ours between ring-neighbours; the CC layer only ever uses
the predicate ``Token(p)`` and the statement ``ReleaseToken_p``, so Property 1
(the only interface the proofs rely on) is preserved.  Use
:class:`~repro.tokenring.tree_circulation.TreeTokenCirculation` for a ring
that follows the communication graph.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm
from repro.kernel.configuration import ProcessId
from repro.tokenring.interfaces import Reader, TokenModule

COUNTER = "c"


class DijkstraRingToken(TokenModule):
    """K-state token circulation over a virtual ring of process ids.

    Parameters
    ----------
    process_ids:
        The processes among which the token circulates.
    ring_order:
        Optional explicit ring order (a permutation of ``process_ids``).  The
        first element is the root.  Defaults to decreasing id order with the
        largest id as root (so the root is the natural "leader" by id).
    k:
        Number of counter states; must exceed the ring length.  Defaults to
        ``n + 1``.
    """

    def __init__(
        self,
        process_ids: Sequence[ProcessId],
        ring_order: Optional[Sequence[ProcessId]] = None,
        k: Optional[int] = None,
    ) -> None:
        pids = tuple(sorted(set(process_ids)))
        if not pids:
            raise ValueError("need at least one process")
        if ring_order is None:
            ring = tuple(sorted(pids, reverse=True))
        else:
            ring = tuple(ring_order)
            if tuple(sorted(ring)) != pids:
                raise ValueError("ring_order must be a permutation of process_ids")
        self._pids = pids
        self._ring = ring
        self._root = ring[0]
        self._k = k if k is not None else len(ring) + 1
        if self._k <= len(ring):
            raise ValueError("K must exceed the ring length for self-stabilization")
        index = {pid: i for i, pid in enumerate(ring)}
        self._pred = {pid: ring[(index[pid] - 1) % len(ring)] for pid in ring}
        self._succ = {pid: ring[(index[pid] + 1) % len(ring)] for pid in ring}

    # ------------------------------------------------------------------ #
    # structural accessors
    # ------------------------------------------------------------------ #
    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    @property
    def ring(self) -> Tuple[ProcessId, ...]:
        return self._ring

    @property
    def root(self) -> ProcessId:
        return self._root

    @property
    def k(self) -> int:
        return self._k

    def predecessor(self, pid: ProcessId) -> ProcessId:
        return self._pred[pid]

    def successor(self, pid: ProcessId) -> ProcessId:
        return self._succ[pid]

    # ------------------------------------------------------------------ #
    # TokenModule interface
    # ------------------------------------------------------------------ #
    def initial_variables(self, pid: ProcessId) -> Dict[str, Any]:
        # All counters equal: exactly the root holds the token.
        return {COUNTER: 0}

    def arbitrary_variables(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return {COUNTER: rng.randrange(self._k)}

    def holds_token(self, read: Reader, pid: ProcessId) -> bool:
        own = read(pid, COUNTER)
        pred = read(self._pred[pid], COUNTER)
        own = 0 if own is None else own
        pred = 0 if pred is None else pred
        if pid == self._root:
            return own == pred
        return own != pred

    def release_token(self, ctx: ActionContext, read: Reader) -> None:
        pid = ctx.pid
        own = read(pid, COUNTER)
        own = 0 if own is None else own
        if pid == self._root:
            ctx.write(COUNTER, (own + 1) % self._k)
        else:
            pred_value = read(self._pred[pid], COUNTER)
            ctx.write(COUNTER, 0 if pred_value is None else pred_value)

    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """``Token(p)`` reads exactly the counter ``c`` of ``p`` and its predecessor.

        Declaring the variable (not just the process) means a composed CC
        layer is re-evaluated for its ring successor only when a process
        writes ``c`` (token release), not on every status/pointer move.
        """
        return {pid: (COUNTER,), self._pred[pid]: (COUNTER,)}


class DijkstraRingAlgorithm(DistributedAlgorithm):
    """Standalone version of the ring with the explicit pass action ``T``.

    Every process has the single action ``T :: Token(p) |-> ReleaseToken_p``;
    running it under any (weakly fair) daemon demonstrates self-stabilization
    to a unique circulating token, which the token-circulation unit tests and
    the snap-vs-self benchmark verify.
    """

    def __init__(self, module: DijkstraRingToken) -> None:
        self.module = module

    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self.module.process_ids()

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        return self.module.initial_variables(pid)

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return self.module.arbitrary_variables(pid, rng)

    def actions(self, pid: ProcessId) -> Sequence[Action]:
        module = self.module

        def guard(ctx: ActionContext) -> bool:
            return module.holds_token(lambda q, var: ctx.read(q, var), ctx.pid)

        def statement(ctx: ActionContext) -> None:
            module.release_token(ctx, lambda q, var: ctx.read(q, var))
            ctx.mark_token_released()

        return (Action(label="T", guard=guard, statement=statement),)

    # -- dirty-set protocol (incremental scheduler engine) ---------------- #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        return self.module.read_dependency_variables(pid)

    def environment_sensitive_processes(self, configuration) -> Tuple[ProcessId, ...]:
        return ()  # the ``T`` guard never consults the environment

    # Convenience used by tests.
    def token_holders_in(self, configuration) -> Tuple[ProcessId, ...]:
        return self.module.token_holders(lambda q, var: configuration.get(q, var))

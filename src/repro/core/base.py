"""Shared machinery of the committee coordination algorithms.

``CC1``, ``CC2`` and ``CC3`` share

* their variable layout (status ``S``, edge pointer ``P``, token flag ``T``,
  plus the bound token module's variables),
* the predicates ``Ready``, ``Meeting`` and ``LeaveMeeting`` (syntactically
  identical in Algorithms 1 and 2 up to the statuses that exist),
* deterministic tie-breaking when the pseudo-code says "``P := ε`` such that
  ``ε ∈ ...``" (any choice satisfies the proofs; we fix one so runs are
  reproducible and document it),
* configuration-level helpers used by the spec checkers and the runner.

The concrete algorithms only add their macros, guards and action lists.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.algorithm import (
    Action,
    ActionContext,
    DistributedAlgorithm,
    memoized_macro,
    merge_read_dependency_variables,
)
from repro.kernel.configuration import Configuration
from repro.core.composition import TokenBinding
from repro.core.states import DONE, IDLE, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING


class CommitteeAlgorithmBase(DistributedAlgorithm):
    """Base class for ``CC1``, ``CC2`` and ``CC3`` composed with a token module."""

    #: Statuses a process of this algorithm may take (overridden per algorithm).
    statuses: Tuple[str, ...] = (IDLE, LOOKING, WAITING, DONE)

    def __init__(self, hypergraph: Hypergraph, token: TokenBinding) -> None:
        if not hypergraph.hyperedges:
            raise ValueError("the hypergraph must contain at least one committee")
        self.hypergraph = hypergraph
        self.token = token
        self._pids = hypergraph.vertices

    # ------------------------------------------------------------------ #
    # DistributedAlgorithm plumbing
    # ------------------------------------------------------------------ #
    #: Statuses in which a guard consults a request predicate: ``Step1`` reads
    #: ``RequestIn`` (only relevant while ``idle``) and ``Step4`` reads
    #: ``RequestOut`` (only relevant while ``done``).  Processes in these
    #: statuses are the only ones whose enabledness can change between two
    #: steps without any process writing, so they are what the incremental
    #: engine refreshes; ``CC2``/``CC3`` narrow this to ``(done,)``.
    environment_sensitive_statuses: Tuple[str, ...] = (IDLE, DONE)

    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    def incident(self, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``E_p``."""
        return self.hypergraph.incident_edges(pid)

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    #: CC-layer variables the guards of a process read *of its neighbours*.
    #: ``CC1`` guards scan statuses, pointers and token flags of committee
    #: members; ``CC2``/``CC3`` additionally read the lock flag ``L`` and
    #: override accordingly.  Everything else a guard reads of a neighbour
    #: goes through the token module, which declares its own (prefixed)
    #: variables via ``TokenBinding.read_dependency_variables``.
    neighbour_guard_variables: Tuple[str, ...] = (STATUS, POINTER, TOKEN_FLAG)

    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """Guards of ``pid`` read CC variables of neighbours + the token link.

        Every CC-layer predicate (``Ready``, ``Meeting``, ``FreeEdges``,
        ``TPointingEdges``, ...) scans members of committees incident to
        ``pid`` — all of which lie in ``N(pid) ∪ {pid}``.  Of a ``G_H``
        neighbour the guards read only
        :attr:`neighbour_guard_variables`; of the token-link processes only
        the module's prefixed variables (e.g. ``tc_c`` of the ring
        predecessor).  A neighbour updating its token-module counter
        therefore no longer dirties the whole ``G_H`` neighbourhood — only
        the counter's declared readers.  ``pid`` itself is a full dependency
        (own-variable reads are ubiquitous).
        """
        return merge_read_dependency_variables(
            {pid: None},
            {q: self.neighbour_guard_variables for q in self.hypergraph.neighbors(pid)},
            self.token.read_dependency_variables(pid),
        )

    def environment_sensitive_processes(
        self, configuration: Configuration
    ) -> Tuple[ProcessId, ...]:
        sensitive = self.environment_sensitive_statuses
        return tuple(
            pid for pid in self._pids if configuration.get(pid, STATUS) in sensitive
        )

    @abc.abstractmethod
    def own_initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        """Legitimate initial values of the CC-layer variables."""

    @abc.abstractmethod
    def own_arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        """Arbitrary values of the CC-layer variables."""

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        state = self.own_initial_state(pid)
        state.update(self.token.initial_variables(pid))
        return state

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        state = self.own_arbitrary_state(pid, rng)
        state.update(self.token.arbitrary_variables(pid, rng))
        return state

    def _arbitrary_pointer(self, pid: ProcessId, rng: Any) -> Optional[Hyperedge]:
        """A random value of ``P_p`` from its domain ``E_p ∪ {⊥}``."""
        options: List[Optional[Hyperedge]] = [None] + list(self.incident(pid))
        return options[rng.randrange(len(options))]

    # ------------------------------------------------------------------ #
    # shared predicates (Algorithms 1 and 2)
    # ------------------------------------------------------------------ #
    @memoized_macro
    def ready(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Ready(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {looking, waiting})``."""
        for edge in self.incident(pid):
            if all(
                ctx.read(q, POINTER) == edge
                and ctx.read(q, STATUS) in (LOOKING, WAITING)
                for q in edge
            ):
                return True
        return False

    @memoized_macro
    def meeting(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Meeting(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {waiting, done})``."""
        for edge in self.incident(pid):
            if all(
                ctx.read(q, POINTER) == edge
                and ctx.read(q, STATUS) in (WAITING, DONE)
                for q in edge
            ):
                return True
        return False

    # ------------------------------------------------------------------ #
    # deterministic committee selection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _edge_sort_key(edge: Hyperedge) -> Tuple[int, Tuple[ProcessId, ...]]:
        return (edge.size, edge.members)

    def choose_edge(
        self,
        ctx: ActionContext,
        candidates: Sequence[Hyperedge],
        prefer_token_holder: bool = True,
    ) -> Hyperedge:
        """Pick one committee out of ``candidates``.

        The pseudo-code leaves this choice free; we prefer (in order)
        committees containing a process with its token flag raised (they are
        the highest-priority committees in the algorithm's own terms), then
        smaller committees, then the lexicographically smallest member tuple.
        """
        if not candidates:
            raise ValueError("no candidate committee to choose from")

        def key(edge: Hyperedge) -> Tuple[int, int, Tuple[ProcessId, ...]]:
            has_token_flag = any(bool(ctx.read(q, TOKEN_FLAG)) for q in edge)
            return (0 if (prefer_token_holder and has_token_flag) else 1, edge.size, edge.members)

        return min(candidates, key=key)

    # ------------------------------------------------------------------ #
    # configuration-level helpers (used by spec checkers, metrics, runner)
    # ------------------------------------------------------------------ #
    def meetings_in(self, configuration: Configuration) -> Tuple[Hyperedge, ...]:
        """Committees that *meet* in ``configuration``.

        A committee meets iff every member points to it with status
        ``waiting`` or ``done`` (Section 4.2 terminology).
        """
        held: List[Hyperedge] = []
        for edge in self.hypergraph.hyperedges:
            if all(
                configuration.get(q, POINTER) == edge
                and configuration.get(q, STATUS) in (WAITING, DONE)
                for q in edge
            ):
                held.append(edge)
        return tuple(held)

    def token_holders(self, configuration: Configuration) -> Tuple[ProcessId, ...]:
        """Processes currently satisfying the ``Token(p)`` input predicate."""
        return tuple(self.token.token_holders(configuration))

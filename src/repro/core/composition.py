"""Binding a token module into a committee coordination algorithm.

The paper's composition ``CC ∘ TC`` is *emulating*: the composed algorithm
does not contain the token-passing action ``T`` explicitly -- the predicate
``Token(p)`` and the statement ``ReleaseToken_p`` are inputs to the CC layer,
which invokes ``ReleaseToken_p`` from its own actions (``Token2`` / ``Step4``
in ``CC1``, ``Step4`` in ``CC2``).

:class:`TokenBinding` packages a
:class:`~repro.tokenring.interfaces.TokenModule` for that purpose: it stores
the module's variables under a prefix inside the composed per-process state,
exposes ``Token(p)`` / ``ReleaseToken_p`` against an
:class:`~repro.kernel.algorithm.ActionContext`, and namespaces the module's
maintenance actions so they can be appended to the CC layer's action list
(fair composition).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.kernel.algorithm import Action, ActionContext, memoized_macro
from repro.kernel.composition import namespaced_action
from repro.kernel.configuration import Configuration, ProcessId
from repro.tokenring.interfaces import TokenModule

#: Default prefix under which token-module variables live in the composed state.
TOKEN_PREFIX = "tc_"


class _PrefixWriter:
    """Minimal context shim: reads/writes the prefixed token variables."""

    __slots__ = ("_ctx", "_prefix", "pid")

    def __init__(self, ctx: ActionContext, prefix: str) -> None:
        self._ctx = ctx
        self._prefix = prefix
        self.pid = ctx.pid

    def write(self, variable: str, value: Any) -> None:
        self._ctx.write(self._prefix + variable, value)

    def read(self, pid: ProcessId, variable: str, default: Any = None) -> Any:
        return self._ctx.read(pid, self._prefix + variable, default)

    def own(self, variable: str, default: Any = None) -> Any:
        return self._ctx.read(self._ctx.pid, self._prefix + variable, default)

    def mark_token_released(self) -> None:
        self._ctx.mark_token_released()


class TokenBinding:
    """A :class:`TokenModule` bound under a variable prefix."""

    def __init__(self, module: TokenModule, prefix: str = TOKEN_PREFIX) -> None:
        self.module = module
        self.prefix = prefix

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def initial_variables(self, pid: ProcessId) -> Dict[str, Any]:
        return {
            self.prefix + name: value
            for name, value in self.module.initial_variables(pid).items()
        }

    def arbitrary_variables(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return {
            self.prefix + name: value
            for name, value in self.module.arbitrary_variables(pid, rng).items()
        }

    # ------------------------------------------------------------------ #
    # the Token(p) predicate and ReleaseToken_p statement
    # ------------------------------------------------------------------ #
    @memoized_macro
    def token(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Token(p)`` against the pre-step snapshot in ``ctx`` (``pid`` defaults to ``ctx.pid``)."""
        read = lambda q, var: ctx.read(q, self.prefix + var)
        return self.module.holds_token(read, pid)

    def token_in(self, configuration: Configuration, pid: ProcessId) -> bool:
        """``Token(p)`` evaluated against a full configuration (spec checkers)."""
        read = lambda q, var: configuration.get(q, self.prefix + var)
        return self.module.holds_token(read, pid)

    def token_holders(self, configuration: Configuration) -> Sequence[ProcessId]:
        read = lambda q, var: configuration.get(q, self.prefix + var)
        return self.module.token_holders(read)

    def release(self, ctx: ActionContext) -> None:
        """``ReleaseToken_p``: delegate to the module, writing prefixed variables."""
        shim = _PrefixWriter(ctx, self.prefix)
        read = lambda q, var: ctx.read(q, self.prefix + var)
        self.module.release_token(shim, read)  # type: ignore[arg-type]
        ctx.mark_token_released()

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, "Sequence[str] | None"]:
        """Variables ``Token(pid)`` may read, prefixed.

        The module declares its dependencies in its own (un-prefixed)
        variable names; the binding maps them into the composed state's
        namespace (``c`` becomes ``tc_c``) so the scheduler's inverse maps
        match the names that actually appear in step deltas.
        """
        return {
            source: (
                None
                if variables is None
                else tuple(self.prefix + name for name in variables)
            )
            for source, variables in self.module.read_dependency_variables(pid).items()
        }

    # ------------------------------------------------------------------ #
    # maintenance actions (fair composition)
    # ------------------------------------------------------------------ #
    def maintenance_actions(self, pid: ProcessId) -> List[Action]:
        return [
            namespaced_action(action, self.prefix)
            for action in self.module.maintenance_actions(pid)
        ]

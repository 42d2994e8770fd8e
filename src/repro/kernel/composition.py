"""Fair composition of distributed algorithms.

The paper composes the committee coordination layer with the token
circulation layer.  Two composition mechanisms are provided:

* :class:`FairComposition` -- the textbook fair composition [13]: the
  composed algorithm's per-process action list is the concatenation of the
  component lists (with labels namespaced), so that under a weakly fair
  daemon no component is starved.  Variable namespaces are kept disjoint by
  prefixing.
* The CC ∘ TC compositions in :mod:`repro.core.composition` are *emulating*
  compositions in the paper's sense -- the token-passing action ``T`` of the
  token module is not an explicit action of the composed algorithm but is
  emulated by the CC layer through the ``Token(p)`` predicate and the
  ``ReleaseToken_p`` statement.  Those compositions are built directly in the
  core package because they need the token module's interface, not the
  generic mechanism here.

:class:`FairComposition` is the generic mechanism; nothing in the library
composes with it today.  The leader election ∘ token circulation
construction that Section 4.1 suggests for obtaining ``TC`` is
:class:`~repro.tokenring.composed.ComposedTokenCirculation`, which builds
its fair composition on its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm, Environment
from repro.kernel.configuration import ProcessId


class _NamespacedContext(ActionContext):
    """Context view that transparently prefixes variable names of one component."""

    __slots__ = ("_prefix",)

    def __init__(self, inner: ActionContext, prefix: str) -> None:
        # Share the inner context's buffers so writes land in the same step.
        self.pid = inner.pid
        self.configuration = inner.configuration
        self.environment = inner.environment
        self.memo = {}
        self._get = inner._get
        self._writes = inner._writes
        self._released_token = inner._released_token
        self._prefix = prefix

    def read(self, pid: ProcessId, variable: str, default: Any = None) -> Any:
        return self._get(pid, self._prefix + variable, default)

    def own(self, variable: str, default: Any = None) -> Any:
        return self._get(self.pid, self._prefix + variable, default)

    def write(self, variable: str, value: Any) -> None:
        self._writes[self._prefix + variable] = value


def namespaced_action(action: Action, prefix: str) -> Action:
    """Wrap an action so its guard/statement see prefixed variable names."""

    def guard(ctx: ActionContext) -> bool:
        return action.guard(_NamespacedContext(ctx, prefix))

    def statement(ctx: ActionContext) -> None:
        action.statement(_NamespacedContext(ctx, prefix))

    return Action(label=f"{prefix}{action.label}", guard=guard, statement=statement)


class FairComposition(DistributedAlgorithm):
    """Fair composition ``P1 ∘ P2 ∘ ...`` of algorithms over the same processes.

    Each component's variables are stored under ``"<name>."``-prefixed keys
    and each component's actions are namespaced accordingly.  The composed
    action list interleaves the components in the given order; priorities
    within a component are preserved, and under a weakly fair daemon every
    component's continuously enabled actions are eventually executed, which
    is exactly the fair-composition requirement of [13].
    """

    def __init__(self, components: Sequence[Tuple[str, DistributedAlgorithm]]) -> None:
        if not components:
            raise ValueError("need at least one component")
        names = [name for name, _ in components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be distinct")
        pids = components[0][1].process_ids()
        for _, algo in components[1:]:
            if algo.process_ids() != pids:
                raise ValueError("all components must run on the same process set")
        self._components: Tuple[Tuple[str, DistributedAlgorithm], ...] = tuple(components)
        self._pids = pids

    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        for name, algo in self._components:
            for var, value in algo.initial_state(pid).items():
                state[f"{name}.{var}"] = value
        return state

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        for name, algo in self._components:
            for var, value in algo.arbitrary_state(pid, rng).items():
                state[f"{name}.{var}"] = value
        return state

    def actions(self, pid: ProcessId) -> Sequence[Action]:
        actions: List[Action] = []
        for name, algo in self._components:
            prefix = f"{name}."
            for action in algo.actions(pid):
                actions.append(namespaced_action(action, prefix))
        return actions

    def component(self, name: str) -> DistributedAlgorithm:
        for comp_name, algo in self._components:
            if comp_name == name:
                return algo
        raise KeyError(name)

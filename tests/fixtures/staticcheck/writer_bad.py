"""Writer-set conformance corpus (RL2xx).

The classes subclass a *local* ``DistributedAlgorithm`` stub — the pass
matches base classes by statically-resolved simple name, so the corpus
exercises it without importing the kernel.
"""


class DistributedAlgorithm:
    """Stand-in for repro.kernel.algorithm.DistributedAlgorithm."""


STATUS = "S"
POINTER = "P"


class UndeclaredWriter(DistributedAlgorithm):
    """Writes a variable missing from its state layout."""

    neighbour_guard_variables = (STATUS, POINTER)

    def initial_state(self, pid):
        return {STATUS: "idle", POINTER: None}

    def actions(self, pid):
        def stmt(ctx):
            ctx.write(STATUS, "looking")  # ok: declared in initial_state
            ctx.write("Z", 1)  # expect: RL201

        return [stmt]


class UndeclaredReader(DistributedAlgorithm):
    """Reads a neighbour variable its declaration does not cover."""

    neighbour_guard_variables = (STATUS,)

    def initial_state(self, pid):
        return {STATUS: "idle", POINTER: None}

    def guard(self, ctx, pid, neighbours):
        fine = all(ctx.read(q, STATUS) == "idle" for q in neighbours)
        own = ctx.read(pid, POINTER)  # ok: own-process read
        bad = any(ctx.read(q, POINTER) for q in neighbours)  # expect: RL202
        return fine and own is None and not bad


class EnvironmentBlind(DistributedAlgorithm):  # expect: RL203
    """Consults the environment but declares it can never matter."""

    neighbour_guard_variables = (STATUS,)

    def initial_state(self, pid):
        return {STATUS: "idle"}

    def environment_sensitive_processes(self, configuration):
        return ()

    def guard(self, ctx):
        return ctx.request_in() and ctx.own(STATUS) == "idle"


class DynamicWriter(DistributedAlgorithm):
    """Write target that static analysis cannot resolve."""

    neighbour_guard_variables = (STATUS,)

    def initial_state(self, pid):
        return {STATUS: "idle"}

    def apply(self, ctx, variable):
        ctx.write(variable, 1)  # expect: RL204


class SuppressedWriter(DistributedAlgorithm):
    """The same RL201 bug, suppressed with a justification."""

    def initial_state(self, pid):
        return {STATUS: "idle"}

    def actions(self, pid):
        def stmt(ctx):
            ctx.write("shadow", 0)  # repro-lint: disable=RL201 -- corpus: scratch var, never read back  # expect-suppressed: RL201

        return [stmt]

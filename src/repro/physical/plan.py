"""The physical plan DAG: traversal, cloning, edge surgery, printing."""

from repro.common.dag import inputs_first
from repro.common.errors import PlanError
from repro.physical.operators import POLoad, POStore


class PhysicalPlan:
    """A DAG of :class:`PhysOp` rooted at its sinks (normally POStores).

    The plan owns no operator state beyond the sink list; everything is
    derived by traversal so that rewrites (edge surgery) stay consistent.
    """

    def __init__(self, sinks):
        self.sinks = list(sinks)
        if not self.sinks:
            raise PlanError("a physical plan needs at least one sink")

    # Traversal -----------------------------------------------------------

    def operators(self):
        """All reachable operators, inputs before consumers (topological)."""
        return inputs_first(self.sinks)

    def loads(self):
        return [op for op in self.operators() if isinstance(op, POLoad)]

    def stores(self):
        return [op for op in self.operators() if isinstance(op, POStore)]

    def consumers(self):
        """Mapping op -> list of operators reading it (by identity).

        Like :meth:`successors_of`, a reader is listed once however many
        of its inputs are the same operator (``union B, B``).
        """
        operators = self.operators()
        table = {id(op): [] for op in operators}
        for op in operators:
            for parent in op.inputs:
                readers = table[id(parent)]
                # Entries for ``op`` are appended back to back.
                if not readers or readers[-1] is not op:
                    readers.append(op)
        return {op: table[id(op)] for op in operators}

    def successors_of(self, target):
        return [op for op in self.operators() if target in op.inputs]

    # Surgery ----------------------------------------------------------------

    def replace_input(self, consumer, old_input, new_input):
        """Rewire one edge: ``consumer`` reads ``new_input`` instead."""
        replaced = False
        for position, parent in enumerate(consumer.inputs):
            if parent is old_input:
                consumer.inputs[position] = new_input
                replaced = True
        if not replaced:
            raise PlanError(f"{consumer!r} does not read {old_input!r}")

    def add_sink(self, sink):
        self.sinks.append(sink)

    def remove_sink(self, sink):
        self.sinks = [existing for existing in self.sinks if existing is not sink]
        if not self.sinks:
            raise PlanError("removing the last sink would empty the plan")

    # Cloning ---------------------------------------------------------------------

    def clone(self):
        """Deep-copy the DAG structure; returns (new_plan, old->new map)."""
        mapping = {}
        for op in self.operators():
            new_inputs = [mapping[id(parent)] for parent in op.inputs]
            clone = op.copy_with_inputs(new_inputs)
            clone.stage = op.stage
            mapping[id(op)] = clone
        new_sinks = [mapping[id(sink)] for sink in self.sinks]
        return PhysicalPlan(new_sinks), {
            op_id: clone for op_id, clone in mapping.items()
        }

    def clone_subgraph(self, frontier_op):
        """Clone only the subgraph that produces ``frontier_op``.

        Returns (clone_of_frontier, old->new map). Injected Split operators
        are bypassed so that the copy is a clean Loads→...→frontier chain —
        this is how enumerated sub-jobs become "full, independent MapReduce
        jobs indistinguishable from other jobs" (paper Section 4).
        """
        mapping = {}
        return _clone_without_splits(frontier_op, mapping), mapping

    # Introspection ---------------------------------------------------------------

    def validate(self):
        """Sanity-check wiring; raises PlanError on dangling structure."""
        for op in self.operators():
            for parent in op.inputs:
                if parent is op:
                    raise PlanError(f"operator {op!r} is its own input")
        for sink in self.sinks:
            if not isinstance(sink, POStore):
                raise PlanError(f"plan sink {sink!r} is not a STORE")
        return True

    def describe(self):
        lines = []
        for op in self.operators():
            inputs = ",".join(f"#{parent.op_id}" for parent in op.inputs)
            stage = f" [{op.stage}]" if op.stage else ""
            injected = " (injected)" if op.injected else ""
            lines.append(f"#{op.op_id} {op.signature()}{stage}{injected} <- [{inputs}]")
        return "\n".join(lines)

    def __repr__(self):
        kinds = ", ".join(op.kind for op in self.operators())
        return f"<PhysicalPlan {kinds}>"


def _clone_without_splits(op, mapping):
    """Clone of ``op``'s subgraph with every Split replaced by its input;
    ``mapping`` (id of original -> clone) is filled in as it goes."""
    clone = mapping.get(id(op))
    if clone is None:
        parents = [_clone_without_splits(parent, mapping) for parent in op.inputs]
        # Transparent: a split has exactly one input.
        clone = parents[0] if op.kind == "split" else op.copy_with_inputs(parents)
        mapping[id(op)] = clone
    return clone

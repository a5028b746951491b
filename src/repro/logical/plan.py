"""The logical plan container: a DAG of LogicalOps with STORE sinks."""

from repro.common.dag import inputs_first
from repro.common.errors import PlanError


class LogicalPlan:
    """Holds the sinks (LOStore ops); the DAG is reachable from them."""

    def __init__(self, sinks):
        self.sinks = list(sinks)
        if not self.sinks:
            raise PlanError("a query must have at least one STORE")

    def operators(self):
        """All reachable operators in topological (inputs-first) order."""
        return inputs_first(self.sinks)

    def sources(self):
        return [op for op in self.operators() if not op.inputs]

    def describe(self):
        lines = []
        for op in self.operators():
            inputs = ", ".join(f"#{parent.op_id}" for parent in op.inputs)
            lines.append(f"#{op.op_id} {op.describe()} <- [{inputs}]")
        return "\n".join(lines)

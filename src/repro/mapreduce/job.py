"""The MapReduce job descriptor: a stage-annotated physical plan."""

from repro.common.errors import PlanError
from repro.physical.operators import POLoad, POStore


class MRJob:
    """One MapReduce job of a workflow.

    ``plan`` is a job-level :class:`PhysicalPlan` (Loads → ... → Stores)
    whose operators carry a ``stage`` ("map" or "reduce"). ``shuffle_op``
    is the single blocking operator, or None for a map-only job. This is
    exactly the granularity ReStore matches and stores (paper Figures 2-6).
    """

    def __init__(self, job_id, plan, shuffle_op=None):
        self.job_id = job_id
        self.plan = plan
        self.shuffle_op = shuffle_op
        self.dependencies = []   # MRJobs whose outputs this job loads
        plan.validate()
        self._check_stages()

    def _check_stages(self):
        operators = self.plan.operators()
        for op in operators:
            if op.stage not in ("map", "reduce"):
                raise PlanError(f"operator {op!r} has no stage assigned")
        if self.shuffle_op is None:
            if any(op.stage == "reduce" for op in operators):
                raise PlanError("map-only job has reduce-stage operators")

    @property
    def parallel(self):
        """Requested reducer count (Pig's PARALLEL), if any."""
        if self.shuffle_op is None:
            return None
        if self.shuffle_op.kind == "sort":
            # Total order needs a single reducer in this engine.
            return 1
        return getattr(self.shuffle_op, "parallel", None)

    def loads(self):
        return [op for op in self.plan.operators() if isinstance(op, POLoad)]

    def stores(self):
        return [op for op in self.plan.operators() if isinstance(op, POStore)]

    def input_paths(self):
        return [load.path for load in self.loads()]

    def output_paths(self):
        return [store.path for store in self.stores()]

    def final_stores(self):
        """Stores that are user outputs (not temp, not ReStore-injected)."""
        return [
            store
            for store in self.stores()
            if not getattr(store, "temporary", False) and not store.injected
        ]

    def describe(self):
        shuffle = self.shuffle_op.signature() if self.shuffle_op else "none"
        return (
            f"Job {self.job_id} (shuffle: {shuffle})\n{self.plan.describe()}"
        )

    def __repr__(self):
        return f"<MRJob {self.job_id} shuffle={self.shuffle_op.kind if self.shuffle_op else None}>"

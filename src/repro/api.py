"""High-level facade: a "Pig on Hadoop" instance with optional ReStore.

This is the entry point downstream users should reach for:

>>> from repro import PigSystem
>>> system = PigSystem()
>>> system.write_table("/data/t", rows, schema)
>>> result = system.run("A = load '/data/t' as (x:int); ...")   # no reuse
>>> restore = system.restore()                                   # with reuse
>>> result = restore.submit(system.compile(query_text))
"""

import hashlib
import itertools

from repro.common import LogicalClock
from repro.data import encode_rows
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.mapreduce import ClusterConfig, CostModel, CostModelConfig, WorkflowExecutor
from repro.mrcompiler import compile_to_workflow
from repro.physical import logical_to_physical
from repro.piglatin import parse_query
from repro.restore.manager import ReStore


def _plan_digest(physical_plan):
    """Stable digest of a physical plan's structure and signatures."""
    parts = []
    ids = {}
    for op in physical_plan.operators():
        ids[id(op)] = len(ids)
        inputs = ",".join(str(ids[id(parent)]) for parent in op.inputs)
        parts.append(f"{op.signature()}<-[{inputs}]")
    return hashlib.sha1("||".join(parts).encode("utf-8")).hexdigest()[:12]


class PigSystem:
    """A simulated cluster: DFS + MapReduce engine + the Pig compiler."""

    def __init__(self, dfs=None, cost_config=None, cluster=None, clock=None):
        self.clock = clock or LogicalClock()
        self.dfs = dfs or DistributedFileSystem(clock=self.clock)
        self.cluster = cluster or ClusterConfig()
        self.cost_model = CostModel(cost_config or CostModelConfig(), self.cluster)
        self._names = itertools.count(1)

    # Data ------------------------------------------------------------------

    def write_table(self, path, rows, schema, overwrite=True):
        """Serialize ``rows`` under ``schema`` into the DFS at ``path``."""
        return self.dfs.write_lines(path, encode_rows(rows, schema),
                                    overwrite=overwrite)

    # Compilation ----------------------------------------------------------------

    def compile(self, query_text, name=None):
        """Pig pipeline: parse -> logical -> physical -> MR workflow.

        Workflow names get a unique suffix (job ids never collide), while
        inter-job temp paths are **content-addressed** — derived from a
        digest of the physical plan (including input dataset versions). A
        re-submitted query therefore writes its intermediates to the same
        locations, which is what lets ReStore's repository chain sub-job
        entries of downstream jobs across runs (see docs/ARCHITECTURE.md
        §0, "The compile front end").
        """
        name = f"{name or 'wf'}-{next(self._names)}"
        logical = build_logical_plan(parse_query(query_text))
        versions = {}
        for load in logical.sources():
            if self.dfs.exists(load.path):
                versions[load.path] = self.dfs.status(load.path).version
        physical = logical_to_physical(logical, versions)
        digest = _plan_digest(physical)
        return compile_to_workflow(physical, name, temp_prefix=f"/tmp/q{digest}")

    # Execution --------------------------------------------------------------------

    def run(self, query_text, name=None):
        """Compile and execute without any reuse (deletes temp outputs)."""
        workflow = self.compile(query_text, name)
        executor = WorkflowExecutor(self.dfs, self.cost_model)
        return executor.execute(workflow)

    def restore(self, **kwargs):
        """A :class:`ReStore` manager bound to this system's cluster."""
        kwargs.setdefault("clock", self.clock)
        return ReStore(self.dfs, self.cost_model, **kwargs)

    def with_scale(self, scale):
        """Same DFS/cluster but a cost model at a different data scale."""
        clone = PigSystem.__new__(PigSystem)
        clone.clock = self.clock
        clone.dfs = self.dfs
        clone.cluster = self.cluster
        clone.cost_model = CostModel(self.cost_model.config.with_scale(scale),
                                     self.cluster)
        clone._names = self._names
        return clone

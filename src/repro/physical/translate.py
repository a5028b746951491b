"""Translate a logical plan into a physical plan (1:1 operator mapping).

Pig's MapReduce compiler first produces a physical plan from the logical
plan, then embeds the physical operators into MapReduce jobs (paper
Section 6.1). The logical operators already hold their compiled
expressions, so translation is one constructor call per operator; the MR
compiler only has to group operators into map/reduce stages.
"""

from repro.common.errors import PlanError
from repro.logical import operators as lo
from repro.physical import operators as po
from repro.physical.plan import PhysicalPlan


def logical_to_physical(logical_plan, dataset_versions=None):
    """Translate ``logical_plan``; ``dataset_versions`` stamps Load ops.

    ``dataset_versions`` maps DFS paths to the dataset version current at
    submission time (used by Load equivalence and eviction Rule 4).
    """
    versions = dataset_versions or {}
    mapping = {}
    sinks = []
    for op in logical_plan.operators():
        inputs = [mapping[id(parent)] for parent in op.inputs]
        physical = _translate_one(op, inputs, versions)
        mapping[id(op)] = physical
        if isinstance(physical, po.POStore):
            sinks.append(physical)
    plan = PhysicalPlan(sinks)
    plan.validate()
    return plan


def _translate_one(op, inputs, versions):
    if isinstance(op, lo.LOLoad):
        return po.POLoad(op.path, op.schema, versions.get(op.path, 0), alias=op.alias)
    if isinstance(op, lo.LOForEach):
        return po.POForEach(inputs[0], op.items, op.schema, alias=op.alias,
                            inner_ops=op.inner_ops)
    if isinstance(op, lo.LOFilter):
        return po.POFilter(inputs[0], op.predicate, alias=op.alias)
    if isinstance(op, lo.LOJoin):
        return po.POJoin(inputs[0], inputs[1], op.left_keys, op.right_keys, op.schema,
                         alias=op.alias, parallel=op.parallel)
    if isinstance(op, lo.LOGroup):
        return po.POGroup(inputs[0], op.keys, op.schema, alias=op.alias,
                          parallel=op.parallel)
    if isinstance(op, lo.LOCoGroup):
        return po.POCoGroup(inputs, op.key_lists, op.schema, alias=op.alias,
                            parallel=op.parallel)
    if isinstance(op, lo.LODistinct):
        return po.PODistinct(inputs[0], alias=op.alias, parallel=op.parallel)
    if isinstance(op, lo.LOUnion):
        return po.POUnion(inputs, op.schema, alias=op.alias)
    if isinstance(op, lo.LOSort):
        return po.POSort(inputs[0], op.keys, op.schema, alias=op.alias,
                         parallel=op.parallel)
    if isinstance(op, lo.LOLimit):
        return po.POLimit(inputs[0], op.count, alias=op.alias)
    if isinstance(op, lo.LOStore):
        return po.POStore(inputs[0], op.path, alias=op.alias)
    raise PlanError(f"cannot translate logical operator {op!r}")

"""Plan rewriting: make an input job consume stored outputs.

Given a containment match, the matched part of the input plan is replaced
with a Load of the stored output (paper Section 3): every consumer of the
frontier operator is rewired onto the new Load, which makes the matched
region unreachable from the plan's sinks (physical plans are sink-rooted,
so no explicit deletion is needed). Stages and the job's shuffle operator
are then recomputed — a job whose blocking operator was matched away
degenerates into a map-only job.
"""

from repro.common.errors import PlanError
from repro.physical.operators import MAP_STAGE, POLoad, REDUCE_STAGE
from repro.restore.matcher import skip_splits


def apply_rewrite(job, match, entry, dfs):
    """Rewrite ``job``'s plan to read ``entry``'s stored output.

    Returns the new Load operator.
    """
    frontier = match.frontier
    version = dfs.status(entry.output_path).version if dfs.exists(entry.output_path) else 0
    new_load = POLoad(entry.output_path, frontier.schema, version,
                      alias=frontier.alias)
    new_load.stage = MAP_STAGE
    consumers = job.plan.successors_of(frontier)
    if not consumers:
        raise PlanError("match frontier has no consumers; nothing to rewrite")
    for consumer in consumers:
        job.plan.replace_input(consumer, frontier, new_load)
    restamp_stages(job)
    return new_load


def restamp_stages(job):
    """Recompute stages and the shuffle operator after plan surgery."""
    operators = job.plan.operators()
    blocking = [op for op in operators if op.is_blocking]
    if len(blocking) > 1:
        raise PlanError(
            f"job {job.job_id} has {len(blocking)} blocking operators after "
            "rewriting; plans must keep at most one"
        )
    job.shuffle_op = blocking[0] if blocking else None
    for op in operators:
        if op.is_blocking:
            op.stage = REDUCE_STAGE
        elif not op.inputs:
            op.stage = MAP_STAGE
        else:
            op.stage = (
                REDUCE_STAGE
                if any(parent.stage == REDUCE_STAGE for parent in op.inputs)
                else MAP_STAGE
            )


def classify_copy_stores(job):
    """Stores whose input degenerated to a bare Load after rewriting.

    Returns (removable, kept_copy) lists of (store, load) pairs:

    * a *temporary* copy store is removable — downstream jobs can read the
      stored output directly (whole-job reuse);
    * a final store whose path equals the load's path is removable — the
      user output already exists (a re-submitted query fully matched);
    * a final store with a different path must stay: the job becomes a
      cheap Load -> Store copy that produces the user's output file.
    """
    removable = []
    kept_copy = []
    for store in job.plan.stores():
        source = skip_splits(store.inputs[0])
        if not isinstance(source, POLoad):
            continue
        if store.temporary or source.path == store.path:
            removable.append((store, source))
        else:
            kept_copy.append((store, source))
    return removable, kept_copy

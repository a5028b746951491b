"""The sub-job enumerator: inject Split + Store to materialize sub-jobs.

For every operator the heuristic selects, the enumerator inserts a Split
(the "Unix tee", paper Section 4) whose first branch continues to the
original consumers and whose second branch feeds a new Store writing the
operator's output to a ReStore-owned file — exactly the paper's Figure 8.

Each candidate is later registered as a full, independent MapReduce job
plan (Loads → ... → P → Store), indistinguishable from whole jobs in the
repository.

The file is named by P's fingerprint, which covers the input versions:
the path is a pure function of the computation, so it is the same in
every process and for every manager, and it equals the registered
entry's ``fingerprint``.
"""

from repro.physical.operators import POSplit, POStore
from repro.restore.matcher import PlanDigest

#: the directory every materialized sub-job file lives in
MATERIALIZED_PREFIX = "/restore/materialized"


class SubJobCandidate:
    """A materialized sub-job awaiting registration after execution."""

    __slots__ = ("job_id", "operator", "store", "path")

    def __init__(self, job_id, operator, store, path):
        self.job_id = job_id
        #: the operator (inside the job plan) whose output is materialized
        self.operator = operator
        self.store = store
        self.path = path

    def __repr__(self):
        return f"SubJobCandidate({self.job_id}, {self.operator.kind} -> {self.path})"


def enumerate_and_inject(job, heuristic):
    """Inject Split+Store after the operators ``heuristic`` selects.

    Each Store writes ``MATERIALIZED_PREFIX/<fingerprint>``. Returns the
    list of :class:`SubJobCandidate`.

    Operators are skipped when their output is already stored: the ones
    directly feeding a Store (the paper: "If P ... is a Store, the output
    of J_P would already be stored"), plus Loads/Stores/Splits themselves,
    anything ReStore previously injected, and an operator whose
    computation this pass already materializes (two equal operators in
    one job share one Store).
    """
    candidates = []
    injected = set()  # fingerprints this pass materializes
    # One walk fingerprints every operator that may be materialized (the
    # digest's sites); Splits are transparent to the hash, so injecting
    # them changes no fingerprint.
    fingerprints = {id(op): fingerprint for fingerprint, ops
                    in PlanDigest(job.plan).sites.items() for op in ops}
    # One walk answers every "who reads this operator": injecting a Split
    # after one operator changes no other operator's readers.
    for op, consumers in job.plan.consumers().items():
        if op.kind in ("load", "store", "split") or op.injected:
            continue
        if not heuristic.should_materialize(op):
            continue
        if any(isinstance(consumer, POStore) for consumer in consumers):
            # Output is already materialized by the job's own Store; the
            # whole-job registration covers it.
            continue
        if any(isinstance(consumer, POSplit) and consumer.injected
               for consumer in consumers):
            # A previous enumeration already materializes this operator.
            continue
        fingerprint = fingerprints[id(op)]
        if fingerprint in injected:
            continue
        injected.add(fingerprint)
        split = POSplit(op, alias=op.alias)
        split.injected = True
        split.stage = op.stage
        store = POStore(split, f"{MATERIALIZED_PREFIX}/{fingerprint}",
                        alias=op.alias)
        store.injected = True
        store.stage = op.stage
        for consumer in consumers:
            job.plan.replace_input(consumer, op, split)
        job.plan.add_sink(store)
        candidates.append(SubJobCandidate(job.job_id, op, store, store.path))
    return candidates

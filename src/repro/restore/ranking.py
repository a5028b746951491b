"""Candidate ranking: which repository entry should the matcher try first.

The paper orders the repository structurally (Section 3): plans that
subsume others come first, then higher input/output ratio, then longer
producing-job time. That order is a *proxy* for benefit — the entry the
scan finds first is assumed to be the one that saves the most work. With
the repository's fingerprint lookup narrowing each probe to its
*matchable set* (the few entries that can be contained in the job),
re-ranking those by *estimated savings* from the Equation-2 cost model
is affordable, the same move self-tuning materialized-view selectors
make: byte cost, not topology, predicts runtime.

Two rankers implement one protocol:

* :class:`StructuralRanker` — the paper's order, frozen as the default.
  Candidates are already produced in global scan order by
  ``match_candidates``; this ranker passes them through untouched, so
  the default path stays bit-identical to the seed.
* :class:`SavingsRanker` — scores each candidate by
  :func:`estimate_entry_savings` (the producing job's avoided
  startup + load + operator + shuffle cost, minus the cost of loading
  the materialized file, from the entry's recorded statistics) and tries
  best-savings-first. Subsumption (the paper's rule 1) stays a **hard
  constraint** within the matchable set: an entry is never tried before
  a matchable container, which eliminates strictly more work whenever
  both match. Only rule 2's ratio/time metrics are replaced by the cost
  model; ties break on global scan rank, so the order is deterministic.

Keeping rule 1 is what makes each ranked walk *safe*: the property
suite (``tests/test_property_restore.py``) checks that a
``SavingsRanker`` manager's rewrites all still pass
``find_containment`` and that its outputs are the structural run's.
Total simulated workflow cost is a different matter: the entry a
rewrite reuses decides what the rewritten job registers, so the two
rankers' repositories diverge and later jobs see different candidates.
The savings total is checked to be no more than the structural one
only on the property suite's randomized streams and the ablation
benchmark's ``ranking`` arm, both under keep-everything retention over
inputs that are never overwritten. It is not a general guarantee — on the
end-to-end ``ingest_churn`` stream (table overwrites, 4 shards, with
either its evicting retention policy or keep-everything) the savings
order costs about 0.5 % more simulated time.

The estimators are module functions so the manager can record
*estimated vs realized* savings for every rewrite regardless of which
ranker chose it (:class:`~repro.restore.stats.RankingLedger` on the
report) — the estimator's error is an observable, not a leap of faith.
"""

import heapq

from repro.common.errors import RepositoryError


def _entry_savings(entry, cost_model, output_bytes):
    """Seconds saved by reusing ``entry`` when its stored file holds
    ``output_bytes``: the avoided producing cost minus the reload cost.

    Reusing the entry avoids re-running the producing sub-plan — its
    startup, input load, operator, and shuffle cost. The entry records
    the producing job's total time and its store component
    (``EntryStats.reduce_time`` holds the producer's Tstore), so for a
    whole-job entry the avoided cost is
    ``producing_job_time - reduce_time``: the stored file's write cost
    was paid by the producer and is not avoided by the consumer.

    A **sub-job** entry records the same whole-job time, but its plan is
    only a prefix of the producing job — claiming the full time would
    bias the ranking toward cheap prefixes of expensive jobs and inflate
    the ledger exactly where the estimator matters. Its avoided cost is
    therefore capped by the cost model's Equation-2 reconstruction of
    the prefix itself (:meth:`~repro.mapreduce.costmodel.CostModel.\
estimate_subplan_time` over the entry's operator kinds and recorded
    input bytes).

    In exchange the rewritten job pays Equation 2's Tload for the
    materialized file.
    """
    stats = entry.stats
    avoided = max(0.0, stats.producing_job_time - stats.reduce_time)
    if entry.origin == "sub-job":
        reconstructed = cost_model.estimate_subplan_time(
            (op.kind for op in entry.plan.operators()), stats.input_bytes)
        avoided = min(avoided, reconstructed)
    return avoided - cost_model.estimate_load_time(output_bytes)


def estimate_entry_savings(entry, cost_model):
    """Estimated simulated seconds saved by reusing ``entry``, from its
    recorded statistics (the score a :class:`SavingsRanker` ranks by)."""
    return _entry_savings(entry, cost_model, entry.stats.output_bytes)


def realized_entry_savings(entry, cost_model, dfs):
    """The savings estimate re-evaluated at rewrite time against the DFS.

    The same formula as :func:`estimate_entry_savings`, with the load
    cost charged on the stored file's *actual current size* instead of
    the size recorded at registration. The difference between the two is
    the estimator's observable error for this rewrite (stale recorded
    bytes, e.g. after an external rewrite of the stored file).
    """
    stats = entry.stats
    actual_bytes = (dfs.file_size(entry.output_path)
                    if dfs.exists(entry.output_path) else stats.output_bytes)
    return _entry_savings(entry, cost_model, actual_bytes)


class CandidateRanker:
    """Orders match candidates for the matcher's sequential walk.

    ``order(candidates, repository)`` receives the candidates in global
    scan order (the repository's filter produces them that way) and
    returns them in the order the matcher should try them. Implementors
    must be deterministic: the property suite replays streams and
    compares decisions run to run.
    """

    name = "abstract"
    #: True when ``order`` is the identity — repositories skip the call
    #: entirely, keeping the default path bit-identical to the seed.
    is_structural = False

    def bind(self, cost_model):
        """Late-bind the manager's cost model (no-op by default)."""
        return self

    def order(self, candidates, repository):
        raise NotImplementedError

    def estimated_savings(self, entry):
        """Estimated seconds saved by reusing ``entry`` (None when this
        ranker does not estimate)."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__}>"


class StructuralRanker(CandidateRanker):
    """The paper's Section 3 priority order — the default.

    Candidates already arrive in global scan order; passing them through
    unchanged is exactly the seed's behavior, which is what the
    lock-step property suite pins down.
    """

    name = "structural"
    is_structural = True

    def order(self, candidates, repository):
        return tuple(candidates)


class SavingsRanker(CandidateRanker):
    """Best-estimated-savings-first, under the subsumption constraint.

    The order is the priority-greedy topological order of the strict
    subsumption DAG *restricted to the matchable set* (the entries that
    can be contained in the job) — the same scheme the repository uses
    for its global scan order, with rule 2's structural metrics replaced
    by ``(-estimated savings, scan rank)``. A matchable container is
    tried before every entry it strictly subsumes; one that cannot match
    delays nothing. Among unrelated candidates the cost model decides,
    and equal estimates fall back to the structural scan rank, so the
    order is a pure function of the candidate set.

    Requires the indexed :class:`~repro.restore.repository.Repository`
    (or a subclass such as the sharded repository): the frozen seed
    :class:`~repro.restore.baseline.LinearScanRepository` exposes
    neither scan ranks nor subsumption edges.
    """

    name = "savings"

    def __init__(self, cost_model=None):
        self.cost_model = cost_model

    def bind(self, cost_model):
        if self.cost_model is None:
            self.cost_model = cost_model
        return self

    def estimated_savings(self, entry):
        if self.cost_model is None:
            raise RepositoryError(
                "SavingsRanker has no cost model; construct it with one or "
                "pass it to ReStore(ranker=...), which binds the manager's")
        return estimate_entry_savings(entry, self.cost_model)

    def order(self, candidates, repository):
        if len(candidates) <= 1:
            return tuple(candidates)
        rank = repository.scan_rank()
        by_id = {entry.entry_id: entry for entry in candidates}
        edges = repository.subsumption_edges_among(by_id)
        savings = {entry_id: self.estimated_savings(entry)
                   for entry_id, entry in by_id.items()}
        blockers = {entry_id: 0 for entry_id in by_id}
        for below in edges.values():
            for entry_id in below:
                blockers[entry_id] += 1

        def priority(entry_id):
            # rank is unique per entry, so the key is total and the heap
            # never falls through to comparing payloads.
            return (-savings[entry_id], rank[entry_id])

        ready = [(priority(entry_id), entry_id)
                 for entry_id in by_id if blockers[entry_id] == 0]
        heapq.heapify(ready)
        ordered = []
        while ready:
            _, entry_id = heapq.heappop(ready)
            ordered.append(by_id[entry_id])
            for below_id in edges[entry_id]:
                blockers[below_id] -= 1
                if blockers[below_id] == 0:
                    heapq.heappush(ready, (priority(below_id), below_id))
        if len(ordered) != len(by_id):
            raise RepositoryError("subsumption relation is cyclic (bug)")
        return tuple(ordered)


def resolve_ranker(ranker, cost_model):
    """Normalize the ``ReStore(ranker=...)`` knob to a bound instance.

    Accepts None (the structural default), the names ``"structural"``
    and ``"savings"``, or any :class:`CandidateRanker` instance (whose
    ``bind`` receives the manager's cost model — a ``SavingsRanker``
    constructed without one picks it up here).
    """
    if ranker is None or ranker == StructuralRanker.name:
        return StructuralRanker()
    if ranker == SavingsRanker.name:
        return SavingsRanker(cost_model)
    if isinstance(ranker, CandidateRanker):
        return ranker.bind(cost_model)
    raise ValueError(
        f"ranker must be None, 'structural', 'savings', or a "
        f"CandidateRanker, got {ranker!r}"
    )

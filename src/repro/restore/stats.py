"""Statistics attached to repository entries (paper Sections 3 and 5).

For every stored job output, the repository keeps the statistics that the
MapReduce system collected while producing it — input/output sizes, the
execution time of the producing job — plus reuse-tracking counters used by
the ordering rules and the eviction rules.

Three operational counter families ride along:

* :class:`MatchCounters` — per-workflow accounting of *why* repository
  candidates offered to the matcher were not used (missing output file,
  failed containment), attached to every
  :class:`~repro.restore.manager.ReStoreReport`;
* :class:`ShardStats` — per-shard probe/candidate/hit/occupancy counters
  maintained by :class:`~repro.restore.sharding.ShardedRepository`;
* :class:`IngestStats` — enqueue/coalesce/reject/batch counters and a
  drain-latency reservoir maintained by the async ingest front-end
  (:mod:`~repro.restore.ingest`), attached to reports when
  ``ReStore(ingest="async")``.
"""


class EntryStats:
    """Execution + reuse statistics for one repository entry."""

    __slots__ = (
        "input_bytes",
        "output_bytes",
        "producing_job_time",
        "map_time",
        "reduce_time",
        "created_tick",
        "last_used_tick",
        "use_count",
    )

    def __init__(self, input_bytes, output_bytes, producing_job_time,
                 map_time=0.0, reduce_time=0.0, created_tick=0):
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes
        self.producing_job_time = producing_job_time
        self.map_time = map_time
        self.reduce_time = reduce_time
        self.created_tick = created_tick
        self.last_used_tick = created_tick
        self.use_count = 0

    @property
    def reduction_ratio(self):
        """Input bytes per output byte — ordering rule 2's first metric
        ("the ratio between the size of the input data and output data;
        the higher the better")."""
        return self.input_bytes / max(1, self.output_bytes)

    def record_use(self, tick):
        self.use_count += 1
        self.last_used_tick = max(self.last_used_tick, tick)

    def __repr__(self):
        return (
            f"EntryStats(in={self.input_bytes}B, out={self.output_bytes}B, "
            f"time={self.producing_job_time:.1f}s, uses={self.use_count})"
        )


class MatchCounters:
    """Why matcher candidates were (not) used, for one workflow.

    ``match_candidates`` narrows the repository to the entries filed
    under the job's site fingerprints, the only ones that *could* match;
    this records what happened to each candidate the matcher then tried:

    * ``matched`` — containment held and the job was rewritten;
    * ``skipped_missing_output`` — the entry's stored file is gone from
      the DFS (evicted externally, or deleted by an operator);
    * ``skipped_no_containment`` — the exact containment test failed
      after all: a fingerprint collision, or an entry plan with an
      interior Split (which the hash skips).

    A high ``skipped_missing_output`` count means the repository is
    stale relative to the DFS.
    """

    __slots__ = ("candidates_tried", "matched", "skipped_missing_output",
                 "skipped_no_containment")

    def __init__(self):
        self.candidates_tried = 0
        self.matched = 0
        self.skipped_missing_output = 0
        self.skipped_no_containment = 0

    @property
    def skipped(self):
        return self.skipped_missing_output + self.skipped_no_containment

    def as_dict(self):
        return {
            "candidates_tried": self.candidates_tried,
            "matched": self.matched,
            "skipped_missing_output": self.skipped_missing_output,
            "skipped_no_containment": self.skipped_no_containment,
        }

    def describe(self):
        return (
            f"{self.candidates_tried} candidate(s) tried: "
            f"{self.matched} matched, "
            f"{self.skipped_missing_output} skipped (missing output), "
            f"{self.skipped_no_containment} skipped (no containment)"
        )

    def __repr__(self):
        return f"MatchCounters({self.describe()})"


class IngestStats:
    """Counters for the async ingest front-end (one per manager).

    The submit path increments ``enqueued``/``coalesced``/``rejected``
    under the queue lock; the registrar thread owns ``applied``,
    ``batches`` and the drain-latency reservoir. No field is written by
    both sides, so the partition (plus the queue lock on the submit-side
    fields) keeps the counters exact without a dedicated stats lock.

    Drain latency — enqueue to apply, per registration record — is kept
    in a bounded reservoir: every ``_stride``-th sample is stored, and
    when the buffer reaches ``RESERVOIR_CAP`` it is decimated (every
    other sample kept, stride doubled). Deterministic, O(1) amortized,
    and the p50/p99 stay representative of the whole run rather than a
    recent window.
    """

    RESERVOIR_CAP = 8192

    __slots__ = ("enqueued", "coalesced", "rejected", "applied", "batches",
                 "max_queue_depth", "drained", "_stride", "_latencies")

    def __init__(self):
        self.enqueued = 0
        self.coalesced = 0
        self.rejected = 0
        self.applied = 0
        self.batches = 0
        self.max_queue_depth = 0
        self.drained = 0
        self._stride = 1
        self._latencies = []

    def record_depth(self, depth):
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def record_drain(self, latency):
        """Record one record's enqueue-to-apply latency (seconds)."""
        self.drained += 1
        if self.drained % self._stride == 0:
            self._latencies.append(latency)
            if len(self._latencies) >= self.RESERVOIR_CAP:
                self._latencies = self._latencies[::2]
                self._stride *= 2

    def _percentile(self, fraction):
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1,
                          int(round(fraction * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def drain_p50(self):
        return self._percentile(0.50)

    @property
    def drain_p99(self):
        return self._percentile(0.99)

    def as_dict(self):
        return {
            "enqueued": self.enqueued,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "applied": self.applied,
            "batches": self.batches,
            "max_queue_depth": self.max_queue_depth,
            "drain_p50": self.drain_p50,
            "drain_p99": self.drain_p99,
        }

    def describe(self):
        p50, p99 = self.drain_p50, self.drain_p99
        latency = ("no drains" if p50 is None else
                   f"drain p50 {p50 * 1e3:.2f}ms / p99 {p99 * 1e3:.2f}ms")
        return (
            f"{self.enqueued} enqueued, {self.coalesced} coalesced, "
            f"{self.rejected} rejected, {self.applied} applied in "
            f"{self.batches} batch(es), depth<= {self.max_queue_depth}, "
            f"{latency}"
        )

    def __repr__(self):
        return f"IngestStats({self.describe()})"


class ShardStats:
    """Probe/candidate/hit counters for one repository shard.

    ``occupancy`` is the shard's current entry count (maintained by the
    owning :class:`~repro.restore.sharding.ShardedRepository`), ``probes``
    counts the ``match_candidates`` probes routed to this shard,
    ``candidates_returned`` the returned candidates it owns, and
    ``match_hits`` the rewrites that used one of its entries.
    """

    __slots__ = ("shard_id", "occupancy", "probes", "candidates_returned",
                 "match_hits")

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.occupancy = 0
        self.probes = 0
        self.candidates_returned = 0
        self.match_hits = 0

    def as_dict(self):
        return {
            "shard": self.shard_id,
            "occupancy": self.occupancy,
            "probes": self.probes,
            "candidates_returned": self.candidates_returned,
            "match_hits": self.match_hits,
        }

    def describe(self):
        return (
            f"shard {self.shard_id}: {self.occupancy} entr(ies), "
            f"{self.probes} probe(s), {self.candidates_returned} candidate(s), "
            f"{self.match_hits} hit(s)"
        )

    def __repr__(self):
        return f"ShardStats({self.describe()})"

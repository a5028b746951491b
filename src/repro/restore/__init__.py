"""ReStore: reusing results of MapReduce jobs (the paper's contribution).

The three components of Figure 7:

* **plan matcher and rewriter** (:mod:`repro.restore.matcher`,
  :mod:`repro.restore.rewriter`) — rewrites each input job to reuse stored
  job outputs, including whole-job elimination;
* **sub-job enumerator** (:mod:`repro.restore.enumerator` with the
  heuristics of :mod:`repro.restore.heuristics`) — injects Split + Store
  operators to materialize sub-job outputs;
* **enumerated sub-job selector** (:mod:`repro.restore.selector`) — decides
  from execution statistics which outputs to keep and when to evict.

:class:`repro.restore.ReStore` wires them into the JobControl loop exactly
as Section 6.2 describes.

The matching pipeline and its cost
----------------------------------

The paper's matcher is a *sequential scan* of the repository in priority
order, and the seed reproduced it literally. With n entries, m the
entries a fingerprint lookup offers, and C the cost of one containment
test:

=====================  =====================  ==========================
operation              seed (linear scan)     indexed
=====================  =====================  ==========================
``find_equivalent``    O(n·C) full scan       O(C) fingerprint bucket
``insert``             O(n²) cached subsume   O(m·C + n); Kahn over the
                       checks + Kahn rerun    touched components only,
                                              merged into the rest
matcher pass           O(n·C)                 O(m·C): only entries that
                                              can be contained
``remove``             O(n), leaks the        O(n): prunes the edges
                       subsumption cache      and indexes
=====================  =====================  ==========================

C is a lookup of the entry's frontier fingerprint in a digest of the
other plan, confirmed exactly on a hit (:mod:`repro.restore.matcher`);
the repository runs it the other way round, from a plan's sites to the
entries filed under them. The contract
is that indexing changes *nothing* observable: ``scan()`` yields the exact
order the seed's reorder produced and every match/rewrite/registration
decision is bit-identical. The seed implementation is frozen as
:class:`repro.restore.baseline.LinearScanRepository`, and the property
suite (``tests/test_property_restore.py``) checks order- and
decision-equivalence against it on randomized workflow streams;
``benchmarks/bench_ablation_repository.py`` reports the speedup.

Sharding extends the same contract to a *partitioned* layout:
:class:`repro.restore.sharding.ShardedRepository` hashes entries across
N shards by leaf-load key — the unit of the per-shard persistence files
and of the worker processes below — and keeps the canonical-fingerprint
dict as the global cross-shard dedup channel. Under the default serial
executor it inherits all four operations of the table's indexed
column, ``match_candidates`` included: a probe costs what it costs
unsharded, plus a bump of the counters of the partitions its load keys
route to.

The matcher tries those candidates in one order, the paper's Section 3
scan order: subsuming plans first, then higher input/output ratio, then
longer producing-job time.

Persistence has one durable format and one writer
(:mod:`repro.restore.wal`), which keeps the repository durable without
rewriting the whole file per checkpoint: the repository exposes a
change-event channel (``add_listener`` / ``record_use``) and
:class:`~repro.restore.wal.RepositoryLog` appends one JSONL record per
mutation — tagged with a monotonic sequence number and the owning shard
— to that shard's own segment file. Compaction is dirty-only: a shard
whose segment outgrows its slice gets its snapshot section rewritten
(an immutable generation-suffixed file) and its segment truncated,
while clean shards' sections are reused on disk — steady-state
compaction is O(dirty shards), not O(repository). ``save_repository``
is one full compaction of the same files; ``load_repository`` replays sections-then-segments (merged by sequence number, with
per-segment torn-tail tolerance and stale-record watermarks) and
reports what it saw via
:class:`~repro.restore.persistence.LoaderReport`. See
``docs/PERSISTENCE.md`` for the durable format and
``docs/ARCHITECTURE.md`` for the design.

The worker-process service (PR 6) promotes each partition to a worker
**process** behind a routing front-end:
``ShardedRepository(executor="processes")`` builds a
:class:`~repro.restore.service.ShardWorkerPool`, buffering
inserts/removals per owning worker (batched hand-off over
``multiprocessing`` queues) and routing probes by load-key hash
while ``find_equivalent``, ordering, statistics, and every
durable write stay with the coordinator — decisions bit-identical to
the serial path. A crashed worker is respawned and re-seeded from its
partition's own section + segment files when a
:class:`~repro.restore.wal.RepositoryLog` is attached (which the
order-delta manifests keep O(partition)), or from the front-end's
in-memory members otherwise; ``tests/faultinject.py`` gives the test
suite deterministic, seed-reproducible mid-stream kills.

Async ingest (PR 8) takes registration off the submit path entirely:
``ReStore(ingest="async")`` only *captures* each registration (plan
subtree, output path, execution statistics, clock tick) into a record
on a bounded :class:`~repro.restore.ingest.IngestQueue` — with an
explicit backpressure policy when it fills: ``block``, ``reject`` (the
record is reported and its file discarded), or ``coalesce``
(duplicate frontier fingerprints are absorbed into the queued
survivor) — and a background :class:`~repro.restore.ingest.Registrar`
thread applies the records in batches: clone + dedup + admission,
per-shard grouped worker-pool flushes
(``ShardWorkerPool.flush_shards`` after each batch), the
Rule 3/4 eviction sweep at the captured tick, and the persistence
checkpoint. Inline mode runs the *same* capture/apply code
synchronously, so decisions are bit-identical by construction — the
property suite drives async vs inline vs the frozen seed in lock-step
behind ``ReStore.flush()`` barriers. Queue pressure and drain latency
land on the report as :class:`~repro.restore.stats.IngestStats`
(``last_report.ingest``);
``benchmarks/bench_ingest_load.py`` holds the p99 submit-latency
evidence.
"""

from repro.restore.baseline import LinearScanRepository
from repro.restore.heuristics import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    NoHeuristic,
)
from repro.restore.index import leaf_loads, plan_fingerprint
from repro.restore.ingest import IngestQueue, Registrar
from repro.restore.manager import ReStore, ReStoreReport
from repro.restore.matcher import (
    find_containment,
    operator_fingerprint,
    pairwise_plan_traversal,
)
from repro.restore.persistence import load_repository, LoaderReport
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.selector import (
    HeuristicRetentionPolicy,
    KeepEverythingPolicy,
)
from repro.restore.service import ShardWorkerPool
from repro.restore.sharding import ShardedRepository
from repro.restore.stats import IngestStats
from repro.restore.wal import RepositoryLog, save_repository

__all__ = [
    "AggressiveHeuristic",
    "ConservativeHeuristic",
    "find_containment",
    "HeuristicRetentionPolicy",
    "IngestQueue",
    "IngestStats",
    "KeepEverythingPolicy",
    "leaf_loads",
    "LinearScanRepository",
    "load_repository",
    "LoaderReport",
    "NoHeuristic",
    "operator_fingerprint",
    "pairwise_plan_traversal",
    "plan_fingerprint",
    "Registrar",
    "save_repository",
    "Repository",
    "RepositoryEntry",
    "RepositoryLog",
    "ReStore",
    "ReStoreReport",
    "ShardedRepository",
    "ShardWorkerPool",
]

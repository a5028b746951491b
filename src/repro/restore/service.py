"""The shard-worker service: repository partitions as worker processes.

:class:`~repro.restore.sharding.ShardedRepository` partitions the entry
set inside one interpreter and answers probes with the inherited
fingerprint lookup. With ``executor="processes"`` this module
promotes each partition — the hash shards *and* the catch-all — to a
worker **process** that exclusively owns its entries and its
:class:`~repro.restore.index.LoadIndex`, coordinated by the front-end
repository over ``multiprocessing`` queues:

* ``find_equivalent`` never leaves the front-end: the canonical
  fingerprint dict is the global cross-shard dedup channel and stays
  with the coordinator;
* inserts and removals are routed by the entry's load-key hash to the
  owning worker, **batched**: mutations buffer per worker and ship as
  one ``apply`` message right before the next probe that consults it
  (queue ordering makes the flush happen-before the probe);
* ``match_candidates`` is routed by the job's load keys — every
  routed worker gets the probe, they filter their slices by load keys
  concurrently (separate processes, no GIL), and the front-end keeps
  the answered entries filed under the job's sites, in the paper's
  global priority order. Decisions are bit-identical to the serial
  path's fingerprint lookup: an entry filed under one of the job's
  sites reads a subset of the job's loads, so it passes the workers'
  load filter; ordering, containment, and statistics stay
  with the front-end.

Failure model: a worker that dies (crash, kill) is detected at the next
dispatch or response wait — queues never block indefinitely — and is
**respawned and re-seeded**. When the repository has an attached
:class:`~repro.restore.wal.RepositoryLog`, the fresh worker replays the
dead partition's durable state (its section + segment files plus the
log's pending records — one partition's files only, which is what the
per-shard segmentation and the v5 order-delta manifests bought);
otherwise it re-seeds from the front-end's in-memory members. Either
way the front-end's scan order, per-shard statistics, and match
decisions are unaffected — workers hold replicas, the coordinator holds
the truth.

:class:`ShardWorkerState` is the worker's in-process core, exercised
directly by unit tests (child processes are invisible to coverage);
``_worker_main`` is the thin queue loop around it. Workers never touch
the DFS: every repository file is written by the front-end's
:class:`~repro.restore.wal.RepositoryLog`.
"""

import multiprocessing
import queue
import time

from repro.common.errors import RepositoryError
from repro.restore.index import LoadIndex
from repro.restore.persistence import entry_from_json, entry_to_json, log_key


class WorkerCrashed(RepositoryError):
    """A shard worker died mid-conversation (internal: the pool catches
    this and recovers the partition)."""


class ShardWorkerState:
    """The in-process core of one shard worker.

    Holds the partition's skeleton entries under the front-end's entry
    ids, which each replica keeps, plus a private
    :class:`~repro.restore.index.LoadIndex` over just those entries, and
    answers probes with the ids of the local entries the job's load set
    cannot rule out. Kept free of any multiprocessing so the lock-step
    tests can drive it directly in-process.
    """

    def __init__(self):
        self._entries = {}      # entry id -> skeleton entry, insertion order
        self._load_index = LoadIndex()

    def __len__(self):
        return len(self._entries)

    def apply(self, mutations):
        """Apply one batched hand-off: ``("add", key, entry_json)``,
        ``("discard", key)``, and ``("use", key, use_count,
        last_used_tick)`` tuples, in order.

        Use-stamps carry the stamped *values* (not an increment),
        mirroring the durable log's use records — so a worker fed the
        mutation stream holds exactly the stats one re-seeded from the
        log (or from the front-end members) would."""
        for mutation in mutations:
            if mutation[0] == "add":
                _, entry_id, entry_json = mutation
                entry = entry_from_json(entry_json)
                entry.entry_id = entry_id
                self._entries[entry_id] = entry
                self._load_index.add(entry)
            elif mutation[0] == "use":
                entry = self._entries.get(mutation[1])
                if entry is not None:
                    entry.stats.use_count = mutation[2]
                    entry.stats.last_used_tick = mutation[3]
            else:
                entry = self._entries.pop(mutation[1], None)
                if entry is not None:
                    self._load_index.discard(entry)

    def probe(self, job_loads):
        """Ids of the local candidates for a job reading ``job_loads``
        (insertion order; the front-end re-sorts the merge into global
        scan order)."""
        candidate_ids = self._load_index.candidate_ids(job_loads)
        if not candidate_ids:
            return []
        return [entry_id for entry_id in self._entries
                if entry_id in candidate_ids]


def _worker_main(requests, responses):  # statlint: process-entrypoint
    """The worker-process loop: drain the request queue into a
    :class:`ShardWorkerState`. ``apply`` is fire-and-forget (mutations
    pipeline behind the next probe, which queue ordering sequences);
    everything else answers on the response queue."""
    state = ShardWorkerState()
    while True:
        message = requests.get()
        op = message[0]
        if op == "apply":
            state.apply(message[1])
        elif op == "probe":
            responses.put(state.probe(message[1]))
        elif op == "size":
            responses.put(len(state))
        elif op == "stop":
            responses.put("stopped")
            return


class _WorkerHandle:
    """One worker process plus its request/response queues."""

    #: default ceiling on one response wait — a worker that is alive but
    #: silent this long is treated as crashed and replaced. Deployments
    #: (and the directed timeout tests) override it per pool via the
    #: ``response_timeout`` constructor parameter.
    RESPONSE_TIMEOUT = 60.0

    def __init__(self, shard_id, context, response_timeout=None):
        self.shard_id = shard_id
        self.response_timeout = (self.RESPONSE_TIMEOUT
                                 if response_timeout is None
                                 else response_timeout)
        self.requests = context.Queue()
        self.responses = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(self.requests, self.responses),
            daemon=True)
        self.process.start()

    def alive(self):
        return self.process.is_alive()

    def send(self, message):
        if not self.alive():
            raise WorkerCrashed(
                f"shard worker {self.shard_id} is dead (exit code "
                f"{self.process.exitcode})")
        try:
            self.requests.put(message)
        except (BrokenPipeError, OSError) as error:
            raise WorkerCrashed(
                f"shard worker {self.shard_id}: {error}") from error

    def receive(self):
        deadline = time.monotonic() + self.response_timeout
        while True:
            try:
                return self.responses.get(timeout=0.05)
            except queue.Empty:
                pass
            if not self.alive():
                # The response may still be in flight in the pipe buffer
                # (written just before the death): one last look.
                try:
                    return self.responses.get(timeout=0.2)
                except queue.Empty:
                    raise WorkerCrashed(
                        f"shard worker {self.shard_id} died before "
                        f"answering (exit code {self.process.exitcode})")
            if time.monotonic() > deadline:
                self.kill()
                raise WorkerCrashed(
                    f"shard worker {self.shard_id} unresponsive for "
                    f"{self.response_timeout:.0f}s")

    def stop(self):
        """Graceful shutdown; falls back to kill."""
        try:
            if self.alive():
                self.requests.put(("stop",))
                self.process.join(timeout=2.0)
        except (BrokenPipeError, OSError):
            pass
        self.kill()

    def kill(self):
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        self.requests.close()
        self.responses.close()


class ShardWorkerPool:
    """Worker processes behind a routing front-end.

    What :class:`~repro.restore.sharding.ShardedRepository` builds for
    ``executor="processes"``. It does not run closures over in-process
    shard objects — it *routes*: the repository forwards every
    insert/removal to the owning worker's buffer
    (:meth:`record_insert`/:meth:`record_remove`) and probes
    through :meth:`match_probe`, which flushes the routed workers'
    buffers (batched hand-off), sends them the probe, and gathers
    per-worker candidate ids.

    Workers spawn lazily per partition on first use (``fork`` context,
    daemon processes) and are respawned on crash — see
    :meth:`_recover` for the durable-replay re-seed. ``recoveries``
    counts them.
    """

    def __init__(self, response_timeout=None):
        self._context = multiprocessing.get_context("fork")
        self._repository = None
        self._workers = {}    # shard_id -> _WorkerHandle
        self._buffers = {}    # shard_id -> pending mutation tuples
        self._response_timeout = response_timeout
        self.recoveries = 0
        self._closed = False

    def _spawn(self, shard_id):
        """Start one worker process for ``shard_id`` (the single spawn
        point)."""
        return _WorkerHandle(shard_id, self._context,
                             self._response_timeout)

    # Wiring -----------------------------------------------------------------

    def bind(self, repository):
        """Bind the front-end repository (called by
        ``ShardedRepository.__init__``). The pool needs it for recovery
        re-seeds and wire-key -> entry resolution."""
        if self._repository is not None and self._repository is not repository:
            raise RepositoryError(
                "this ShardWorkerPool is already bound to a different "
                "repository; each pool serves exactly one front-end")
        self._repository = repository

    # Mutation routing (buffered hand-off) -----------------------------------

    def record_insert(self, shard_id, entry):
        self._buffers.setdefault(shard_id, []).append(
            ("add", entry.entry_id, entry_to_json(entry)))

    def record_remove(self, shard_id, entry):
        self._buffers.setdefault(shard_id, []).append(
            ("discard", entry.entry_id))

    def record_use(self, shard_id, entry):
        # Value-based, like the durable log's use records: the stamp has
        # already been applied to the front-end entry, so shipping the
        # resulting values keeps a worker — stream-fed, re-seeded from
        # members, or replayed from the log — in agreement.
        self._buffers.setdefault(shard_id, []).append(
            ("use", entry.entry_id, entry.stats.use_count,
             entry.stats.last_used_tick))

    def buffered_mutations(self):
        """Mutations recorded but not yet shipped (observability)."""
        return sum(len(batch) for batch in self._buffers.values())

    def flush_shards(self, shard_ids=None):
        """Ship buffered mutations to the listed shards' workers now
        (all shards when ``shard_ids`` is None); returns the number of
        mutations shipped.

        Only *already-spawned, live* workers are fed: spawning here
        would fork from whatever thread called the flush (the async
        registrar), and a dead worker's buffer must survive for the
        recovery replay the next probe performs — in both cases the
        buffer is simply left in place, which is always safe because
        worker ``apply`` is idempotent (adds are keyed overwrites, use
        stamps carry absolute values).
        """
        if self._closed:
            return 0
        if shard_ids is None:
            shard_ids = [shard_id for shard_id, batch in self._buffers.items()
                         if batch]
        shipped = 0
        for shard_id in shard_ids:
            mutations = self._buffers.get(shard_id)
            if not mutations:
                continue
            handle = self._workers.get(shard_id)
            if handle is None or not handle.alive():
                continue
            try:
                handle.send(("apply", mutations))
            except WorkerCrashed:  # statlint: disable=exception-hygiene -- not a swallow: the buffer is deliberately kept un-cleared, and the next probe of this shard runs the full _recover() replay
                continue
            self._buffers[shard_id] = []
            shipped += len(mutations)
        return shipped

    # Probe routing ----------------------------------------------------------

    def match_probe(self, shard_ids, job_loads):
        """Send one probe to the workers of ``shard_ids``; returns
        ``{shard_id: [entry ids]}``.

        Dispatches to every worker (after flushing its mutation buffer)
        before collecting any answer, so the per-worker filters
        genuinely overlap. A worker that died is recovered and the probe
        retried once on the fresh replica (probes are read-only, so the
        retry is safe)."""
        message = ("probe", job_loads)
        dispatched = []
        for shard_id in shard_ids:
            try:
                handle = self._ready_worker(shard_id)
                handle.send(message)
            except WorkerCrashed:
                handle = self._recover(shard_id)
                handle.send(message)
            dispatched.append((shard_id, handle))
        answers = {}
        for shard_id, handle in dispatched:
            try:
                answers[shard_id] = handle.receive()
            except WorkerCrashed:
                fresh = self._recover(shard_id)
                fresh.send(message)
                answers[shard_id] = fresh.receive()
        return answers

    def worker_size(self, shard_id):
        """The entry count a worker's replica holds (test/observability
        hook; flushes the buffer so the answer reflects every recorded
        mutation)."""
        try:
            handle = self._ready_worker(shard_id)
            handle.send(("size",))
            return handle.receive()
        except WorkerCrashed:
            handle = self._recover(shard_id)
            handle.send(("size",))
            return handle.receive()

    # Worker lifecycle -------------------------------------------------------

    def _ready_worker(self, shard_id):
        """The live worker for ``shard_id`` with its buffer flushed;
        raises :class:`WorkerCrashed` if it died (callers recover)."""
        if self._closed:
            raise RepositoryError("this ShardWorkerPool is closed")
        handle = self._workers.get(shard_id)
        if handle is None:
            handle = self._spawn(shard_id)
            self._workers[shard_id] = handle
        elif not handle.alive():
            raise WorkerCrashed(f"shard worker {shard_id} is dead")
        mutations = self._buffers.get(shard_id)
        if mutations:
            handle.send(("apply", mutations))
            self._buffers[shard_id] = []
        return handle

    def _recover(self, shard_id):
        """Respawn a dead worker and re-seed its partition.

        The seed is the partition's durable state when the front-end has
        an attached RepositoryLog — section + segment + pending records,
        one partition's files only — with each durable key (derived from
        the entry's sequence) mapped to the member's entry id; without a
        log (or if the durable view disagrees with the live membership)
        the front-end's in-memory members. The pool's own buffer for the shard is dropped: the
        full re-seed already reflects every recorded mutation."""
        self.recoveries += 1
        old = self._workers.pop(shard_id, None)
        if old is not None:
            old.kill()
        self._buffers[shard_id] = []
        handle = self._spawn(shard_id)
        self._workers[shard_id] = handle
        mutations = self._replay_mutations(shard_id)
        if mutations:
            handle.send(("apply", mutations))
        return handle

    def _replay_mutations(self, shard_id):
        repository = self._repository
        members = repository.shard_members(shard_id)
        log = getattr(repository, "persistence_log", None)
        if log is not None and hasattr(log, "partition_snapshot"):
            snapshot = log.partition_snapshot(shard_id)
            entry_ids = {log_key(entry): entry.entry_id for entry in members}
            if set(snapshot) == set(entry_ids):
                return [("add", entry_ids[key], entry_json)
                        for key, entry_json in snapshot.items()]
        return [("add", entry.entry_id, entry_to_json(entry))
                for entry in members]

    def close(self):
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            handle.stop()
        self._workers = {}
        self._buffers = {}

    def describe(self):
        live = sum(1 for handle in self._workers.values() if handle.alive())
        return (f"ShardWorkerPool: {live}/{len(self._workers)} worker(s) "
                f"live, {self.buffered_mutations()} buffered mutation(s), "
                f"{self.recoveries} recover(ies)")

    def __repr__(self):
        return f"<{self.describe()}>"

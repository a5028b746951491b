"""Async ingest front-end: enqueue registrations, drain in batches.

The paper registers every kept output *inline* on the job-submission
path (Section 6.2): fingerprinting, index insertion and Rule 3/4
eviction all sit directly in the client's latency. This module splits
that work into the telemetry-server shape the ROADMAP's "millions of
users" north star asks for — the submit path only *captures* what a
registration needs and enqueues it; a background registrar thread
*applies* it against the repository in batches.

The split is the parity argument. Registration is factored into two
halves that inline and async mode share verbatim:

* **capture** (submit thread) — :class:`RegistrationRecord` snapshots
  the plan subtree, output path and the execution statistics that the
  old inline code read at registration time (file size, clock tick),
  so applying later cannot observe a different world;
* **apply** (wherever) — ``record.apply(sink, batch)`` calls back into
  the manager's ``apply_register`` / ``apply_discard`` /
  ``apply_submit_end``, the *single* implementation both modes run.
  Inline mode applies each record immediately on the caller's thread;
  async mode applies the identical records on the registrar thread.
  Decisions are bit-identical by construction, which the lock-step
  property suite then verifies against the frozen seed.

Ordering: one FIFO queue carries registrations, discards and
submit-end markers, so the repository's change-event channel — and
therefore the :class:`~repro.restore.wal.RepositoryLog` and the worker
pool's mutation buffers — sees the same record stream as inline mode,
just later. A single re-entrant lock (``facade.lock``) serializes
registrar batches against the submit path's match probes, so a probe
never observes a half-applied batch.

Worker-owned durability changes *where* a registrar batch's change
records land, not *when*: they stay buffered in the log until the next
``flush``/``checkpoint``, which routes each partition's records to its
owning worker as one combined message with the pool's still-buffered
mutations (no second front-end pass over the batch). Flushing per batch
instead would change the durability cadence between inline and async
mode and break the property suite's checkpoint-report parity — the
cadence is the log's, never the registrar's.

Backpressure is explicit (:class:`IngestQueue`): ``block`` (wait for
room — exact inline parity), ``reject`` (drop the registration, report
it, and discard its materialized file so nothing leaks), or
``coalesce`` (a registration whose frontier fingerprint is already
queued is absorbed into the queued survivor and follows its outcome).
"""

import threading
import time
import weakref
from collections import deque

from repro.restore.matcher import operator_fingerprint
from repro.restore.stats import IngestStats


class FrozenClock:
    """A logical clock pinned at one tick.

    The submit path captures ``clock.now()`` into the
    :class:`SubmitEndRecord`; the eviction sweep later replays against
    this frozen view, so Rule 3 reuse windows evaluate exactly as they
    would have inline — even if more submits ticked the real clock
    while the record sat in the queue.
    """

    __slots__ = ("_tick",)

    def __init__(self, tick):
        self._tick = tick

    def now(self):
        return self._tick


class RegistrationRecord:
    """One deferred registration, captured on the submit path.

    Carries everything ``ReStore._build_entry`` used to read at
    registration time: the (uncloned) frontier operator plus the plan
    that owns it, the output path, and the execution statistics —
    including ``output_bytes`` and ``created_tick``, which *must* be
    captured at enqueue time because the file may be discarded and the
    clock advanced before the registrar gets to the record.
    """

    __slots__ = ("job_plan", "frontier_op", "output_path", "owns_file",
                 "origin", "report", "input_bytes", "output_bytes",
                 "producing_job_time", "map_time", "reduce_time",
                 "created_tick", "absorbed", "enqueued_at", "_fingerprint")

    #: registrations participate in duplicate-fingerprint coalescing
    coalescable = True
    is_barrier = False

    def __init__(self, job_plan, frontier_op, output_path, owns_file, origin,
                 report, input_bytes, output_bytes, producing_job_time,
                 map_time, reduce_time, created_tick):
        self.job_plan = job_plan
        self.frontier_op = frontier_op
        self.output_path = output_path
        self.owns_file = owns_file
        self.origin = origin
        self.report = report
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes
        self.producing_job_time = producing_job_time
        self.map_time = map_time
        self.reduce_time = reduce_time
        self.created_tick = created_tick
        #: records this one swallowed under the ``coalesce`` policy;
        #: they follow this record's outcome when it applies
        self.absorbed = []
        self.enqueued_at = None
        self._fingerprint = None

    def ensure_fingerprint(self):
        """The frontier subtree's structural fingerprint, lazily.

        Computed on the *uncloned* operator —
        :func:`~repro.restore.matcher.operator_fingerprint` never hashes
        the Store, so this equals the fingerprint of the entry plan the
        apply side will clone, without cloning on the hot path.
        """
        if self._fingerprint is None:
            self._fingerprint = operator_fingerprint(self.frontier_op)
        return self._fingerprint

    def apply(self, sink, batch):
        sink.apply_register(self, batch)


class DiscardRecord:
    """Materialized paths to delete (injected stores that executed but
    will never be registered — the PR 4 orphan-file fix, async form)."""

    __slots__ = ("paths",)

    coalescable = False
    is_barrier = False

    def __init__(self, paths):
        self.paths = list(paths)

    def apply(self, sink, batch):
        sink.apply_discard(self)


class SubmitEndRecord:
    """End-of-submit marker: queued discards, the eviction sweep at the
    captured tick, and (when due) the persistence checkpoint."""

    __slots__ = ("report", "tick", "discard_paths", "checkpoint_due")

    coalescable = False
    is_barrier = False

    def __init__(self, report, tick, discard_paths, checkpoint_due):
        self.report = report
        self.tick = tick
        self.discard_paths = list(discard_paths)
        self.checkpoint_due = checkpoint_due

    def apply(self, sink, batch):
        sink.apply_submit_end(self)
        if batch:
            # The sweep may have evicted entries admitted earlier in
            # this batch; the coalescing map must not hand out a
            # removed entry as a duplicate target.
            batch.clear()


class BarrierRecord:
    """Releases its event when the registrar reaches it. Barriers are
    released even when an earlier record errored, so ``flush()`` never
    hangs on a poisoned queue."""

    __slots__ = ("event",)

    coalescable = False
    is_barrier = True

    def __init__(self, event):
        self.event = event

    def apply(self, sink, batch):
        self.event.set()


class IngestQueue:
    """Bounded FIFO of ingest records with an explicit backpressure policy.

    * ``block`` — ``put`` waits for room; submit latency degrades but
      nothing is lost (exact inline parity);
    * ``reject`` — a full queue refuses the registration (``put``
      returns False; the caller reports it and discards its file);
    * ``coalesce`` — a registration whose frontier fingerprint is
      already queued is absorbed into the queued survivor regardless of
      capacity; distinct fingerprints block as under ``block``.

    Control records (discards, submit-end markers, barriers) enter via
    :meth:`put_control`: they bypass capacity and are never rejected or
    coalesced — dropping one would lose files or a whole sweep.
    """

    POLICIES = ("block", "reject", "coalesce")

    #: Locking contract, enforced by `repro.tools.statlint` (rule
    #: ``lock-discipline``): these fields are only touched inside
    #: ``with self._lock:`` — the queue is shared by every submit
    #: thread and the registrar. ``stats`` counters on the queue side
    #: (enqueued/rejected/coalesced/depth) are part of the same
    #: critical sections; see `IngestStats` for the field partition.
    GUARDED_BY = {"_records": "_lock", "_queued_by_fp": "_lock",
                  "_closed": "_lock", "stats": "_lock"}

    def __init__(self, capacity=1024, policy="block", stats=None):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown ingest policy {policy!r}; "
                             f"expected one of {self.POLICIES}")
        self.capacity = max(1, int(capacity))
        self.policy = policy
        self.stats = stats if stats is not None else IngestStats()
        self._records = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._queued_by_fp = {}  # fingerprint -> queued survivor (coalesce)
        self._closed = False

    def __len__(self):
        with self._lock:
            return len(self._records)

    def put(self, record):
        """Enqueue a registration; returns False iff rejected."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ingest queue is closed")
            if self.policy == "coalesce" and record.coalescable:
                survivor = self._queued_by_fp.get(record.ensure_fingerprint())
                if survivor is not None:
                    survivor.absorbed.append(record)
                    self.stats.coalesced += 1
                    return True
            while len(self._records) >= self.capacity:
                if self.policy == "reject":
                    self.stats.rejected += 1
                    return False
                self._not_full.wait()
                if self._closed:
                    raise RuntimeError("ingest queue is closed")
            self._append_locked(record)
            return True

    def put_control(self, record):
        """Enqueue a control record: no capacity check, never rejected."""
        with self._lock:
            if self._closed and not record.is_barrier:
                raise RuntimeError("ingest queue is closed")
            self._append_locked(record)

    def _append_locked(self, record):
        if record.coalescable:
            record.enqueued_at = time.monotonic()
            self.stats.enqueued += 1
            if self.policy == "coalesce":
                self._queued_by_fp[record.ensure_fingerprint()] = record
        self._records.append(record)
        self.stats.record_depth(len(self._records))
        self._not_empty.notify()

    def take_batch(self, max_records, timeout):
        """Pop up to ``max_records`` records FIFO; waits up to
        ``timeout`` seconds for the first one. A popped survivor leaves
        the coalescing map — later duplicates must re-queue, not be
        absorbed into a record already being applied."""
        with self._lock:
            if not self._records:
                self._not_empty.wait(timeout)
            batch = []
            while self._records and len(batch) < max_records:
                record = self._records.popleft()
                if record.coalescable and self.policy == "coalesce":
                    fingerprint = record.ensure_fingerprint()
                    if self._queued_by_fp.get(fingerprint) is record:
                        del self._queued_by_fp[fingerprint]
                batch.append(record)
            if batch:
                self._not_full.notify_all()
            return batch

    def close(self):
        """Refuse further puts and wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()


class Registrar:
    """Background drainer: applies queued records in batches.

    Every batch is applied under ``lock`` — the same lock the submit
    path holds while probing the repository — so matches never observe
    a half-applied batch, and all repository/worker-pool mutation stays
    serialized (process workers are fork-spawned; two threads must not
    race a spawn). After each batch the sink's ``after_batch`` hook
    runs (still under the lock): the manager uses it to flush the
    worker pool's per-shard mutation buffers, shipping one grouped
    ``apply`` message per touched shard instead of paying the
    serialization on some later probe.

    An exception raised by a record poisons the registrar: remaining
    non-barrier records are abandoned (their state can depend on the
    failed one), barriers still release, and the error re-raises on the
    next ``flush()``/``close()``. ``KeyboardInterrupt``/``SystemExit``
    additionally re-raise on this thread — an interrupt must stop the
    drain loop, not be captured into a variable — so they both
    terminate the registrar and propagate out of the caller's
    ``flush()``.
    """

    #: `repro.tools.statlint` (``lock-discipline``): the poison slot is
    #: written by the registrar thread and consumed by whichever thread
    #: calls flush()/close(); registrar-side stats counters are updated
    #: under the same ingest lock that serializes batches.
    GUARDED_BY = {"_error": "lock", "stats": "lock"}

    def __init__(self, queue, sink, lock, batch_size=32, poll_interval=0.05):
        self.queue = queue
        self.sink = sink
        self.lock = lock
        self.batch_size = max(1, int(batch_size))
        self.poll_interval = poll_interval
        self.stats = queue.stats
        self._stop = threading.Event()
        self._gate = threading.Event()  # cleared = paused (tests)
        self._gate.set()
        self._error = None
        self._thread = threading.Thread(target=self._run,
                                        name="restore-registrar", daemon=True)
        self._thread.start()

    # Test hooks ---------------------------------------------------------

    def pause(self):
        """Stop draining after the current batch (deterministic tests:
        enqueue while paused, observe, resume). ``flush()`` while paused
        would wait forever — resume first."""
        self._gate.clear()

    def resume(self):
        self._gate.set()

    @property
    def alive(self):
        return self._thread.is_alive()

    # Drain loop ---------------------------------------------------------

    def _run(self):
        try:
            while True:
                self._gate.wait()
                batch = self.queue.take_batch(self.batch_size,
                                              self.poll_interval)
                if not batch:
                    if self._stop.is_set():
                        return
                    continue
                self._apply_batch(batch)
        except (KeyboardInterrupt, SystemExit):
            # Already recorded as the poison by _apply_batch; exit the
            # thread without the default unraisable-traceback noise.
            # flush()/close() re-raise it on the caller.
            return

    def _apply_batch(self, batch):
        with self.lock:
            context = {}
            applied_any = False
            for position, record in enumerate(batch):
                if record.is_barrier:
                    record.event.set()
                    continue
                if self._error is not None:
                    continue  # poisoned: abandon dependent records
                started = time.monotonic()
                try:
                    record.apply(self.sink, context)
                except (KeyboardInterrupt, SystemExit) as exc:
                    # An interrupt both poisons (so flush()/close()
                    # re-raise it on the caller) and re-raises here (so
                    # it actually stops this thread). Release the
                    # batch's remaining barriers first — nothing will
                    # drain them once the thread is gone.
                    self._error = exc
                    for later in batch[position + 1:]:
                        if later.is_barrier:
                            later.event.set()
                    raise
                except BaseException as exc:  # statlint: disable=exception-hygiene -- poisoning contract: the error is re-surfaced on the caller by the next flush()/close(), and interrupts re-raise above
                    self._error = exc
                    continue
                if record.coalescable:
                    self.stats.record_drain(started - record.enqueued_at)
                    self.stats.applied += 1 + len(record.absorbed)
                applied_any = True
            if applied_any and self._error is None:
                self.stats.batches += 1
                after_batch = getattr(self.sink, "after_batch", None)
                if after_batch is not None:
                    try:
                        after_batch()
                    except (KeyboardInterrupt, SystemExit) as exc:
                        self._error = exc
                        raise
                    except BaseException as exc:  # statlint: disable=exception-hygiene -- poisoning contract: re-surfaced on the caller by the next flush()/close()
                        self._error = exc

    # Barriers -----------------------------------------------------------

    def flush(self):
        """Block until every record enqueued before this call has been
        applied, then re-raise any registrar error."""
        if self._thread.is_alive():
            event = threading.Event()
            self.queue.put_control(BarrierRecord(event))
            # An interrupted registrar (KeyboardInterrupt/SystemExit)
            # dies without draining this barrier; poll liveness so the
            # recorded error still surfaces instead of waiting forever.
            while not event.wait(0.05):
                if not self._thread.is_alive():
                    break
        self._raise_error()

    def close(self):
        """Drain, stop the thread, close the queue. Idempotent."""
        if self._thread.is_alive():
            try:
                self.flush()
            finally:
                self._stop.set()
                self._gate.set()
                self.queue.close()
                self._thread.join()
        else:
            self._raise_error()

    def _raise_error(self):
        with self.lock:
            if self._error is not None:
                error, self._error = self._error, None
                raise error


class InlineIngest:
    """The seed's inline semantics behind the ingest interface: every
    record applies immediately on the caller's thread, discards ride
    the manager's per-submit list exactly as before. ``stats`` is None
    — there is no queue to instrument."""

    mode = "inline"
    stats = None

    def __init__(self, sink):
        # The manager owns this object: a strong reference back would be a
        # cycle, and a dropped manager, with its whole repository, would
        # wait for the cyclic collector instead of being freed at once.
        self.sink = weakref.proxy(sink)
        self.lock = threading.RLock()

    def submit(self, record):
        with self.lock:
            record.apply(self.sink, None)

    def submit_discards(self, paths):
        # Same timing as the seed: queued on the submit thread, deleted
        # by the submit-end sweep.
        self.sink.queue_discard_path(*paths)

    def submit_end(self, record):
        with self.lock:
            record.apply(self.sink, None)

    def discard_path(self, path):
        self.sink.queue_discard_path(path)

    def flush(self):
        return None

    def close(self):
        return None


class AsyncIngest:
    """Queue + registrar behind the same interface: ``submit*`` only
    enqueue; ``flush()``/``close()`` drain with a barrier so reads
    after them are deterministic."""

    mode = "async"

    def __init__(self, sink, capacity=1024, policy="block", batch_size=32,
                 poll_interval=0.05):
        self.sink = sink
        self.lock = threading.RLock()
        self.queue = IngestQueue(capacity=capacity, policy=policy)
        self.stats = self.queue.stats
        self.registrar = Registrar(self.queue, sink, self.lock,
                                   batch_size=batch_size,
                                   poll_interval=poll_interval)

    def submit(self, record):
        if not self.queue.put(record):
            self.sink.registration_rejected(record)

    def submit_discards(self, paths):
        self.queue.put_control(DiscardRecord(paths))

    def submit_end(self, record):
        self.queue.put_control(record)

    def discard_path(self, path):
        # Called on the registrar thread (under the lock) after an
        # apply-side decision — the submit-end record for this path's
        # submit may already be applied, so delete now instead of
        # queueing. The shield set protects every registered entry's
        # path; a content-addressed path that a later submit has
        # already written again for an unregistered record loses its
        # file, which the matcher skips (dfs.exists) and the next
        # materialization of the same computation writes back.
        self.sink.discard_path_now(path)

    def flush(self):
        self.registrar.flush()

    def close(self):
        self.registrar.close()

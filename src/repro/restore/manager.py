"""The ReStore manager: Section 6.2's extension of the JobControl loop.

For every job that becomes ready, in order:

1. stamp the versions of the datasets its Loads read,
2. **match & rewrite** against the repository (repeating the sequential
   scan after every successful rewrite, paper Section 3),
3. simplify: stores whose input degenerated to a bare Load are removed
   (whole-job reuse — dependents are rewired onto the stored output;
   final user outputs become cheap copy jobs),
4. **enumerate sub-jobs** and inject Split+Store per the heuristic,
5. execute; afterwards register the job's outputs and the materialized
   sub-jobs in the repository with their execution statistics, subject to
   the retention policy's admission rules.

One logical-clock tick per submitted workflow drives reuse windows.
"""

from repro.common import LogicalClock
from repro.mrcompiler.jobcontrol import JobControl
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore.enumerator import enumerate_and_inject, MATERIALIZED_PREFIX
from repro.restore.heuristics import AggressiveHeuristic
from repro.restore.ingest import (
    AsyncIngest,
    FrozenClock,
    InlineIngest,
    RegistrationRecord,
    SubmitEndRecord,
)
from repro.restore.matcher import find_containment, PlanDigest
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.rewriter import apply_rewrite, classify_copy_stores, restamp_stages
from repro.restore.selector import KeepEverythingPolicy
from repro.restore.stats import EntryStats, MatchCounters


class ReStoreReport:
    """What ReStore did while executing one workflow.

    Besides the decision lists (rewrites, eliminations, registrations,
    evictions), the report carries :class:`~repro.restore.stats.MatchCounters`
    explaining why candidate entries offered by ``match_candidates`` were
    *not* used — a candidate can be skipped because its stored file is
    gone from the DFS or because the exact containment test (paper
    Section 3) fails.
    """

    def __init__(self, workflow_name):
        self.workflow_name = workflow_name
        self.rewrites = []            # (job_id, entry_id)
        self.eliminated_jobs = []     # job_ids fully served from the repository
        self.injected_stores = []     # (job_id, operator_kind, path)
        self.registered_entries = []  # entry ids added this run
        self.rejected_candidates = [] # paths rejected by the retention policy
        self.evicted_entries = []     # entry ids removed by the sweep
        self.checkpoint = None        # persistence checkpoint outcome, if any
        self.ingest = None            # IngestStats when the manager is async
        self.match_counters = MatchCounters()  # why candidates were skipped

    @property
    def num_rewrites(self):
        return len(self.rewrites)

    def describe(self):
        return (
            f"ReStore[{self.workflow_name}]: {self.num_rewrites} rewrite(s), "
            f"{len(self.eliminated_jobs)} job(s) eliminated, "
            f"{len(self.injected_stores)} store(s) injected, "
            f"{len(self.registered_entries)} entr(ies) registered, "
            f"{len(self.evicted_entries)} evicted; "
            f"matcher: {self.match_counters.describe()}"
        )


class ReStore(JobControl):
    """ReStore on top of the MapReduce engine.

    Parameters mirror the system's knobs:

    * ``repository`` — where stored outputs live: the indexed
      :class:`~repro.restore.repository.Repository` by default, or a
      :class:`~repro.restore.sharding.ShardedRepository` for a
      partitioned layout (per-shard persistence files and counters,
      optional worker processes; the manager is repository-agnostic —
      every decision is identical either way);
    * ``heuristic`` — sub-job selection (:class:`AggressiveHeuristic` is
      the paper's default, Section 4); pass None to disable sub-job
      materialization;
    * ``retention`` — admission/eviction policy (paper default stores
      everything; :class:`~repro.restore.selector.HeuristicRetentionPolicy`
      implements Section 5's Rules 1-4);
    * ``enable_rewrite`` / ``enable_registration`` — turn the matcher or
      the repository population off (used by the experiments to measure
      overhead and no-reuse baselines);
    * ``persistence`` — a :class:`~repro.restore.wal.RepositoryLog` to
      keep the repository durable incrementally (or ``True`` for a
      default-configured one on this manager's DFS): the manager
      attaches it and, every ``checkpoint_every`` submits, appends the
      accumulated change records (inserts, eviction removals,
      use-stamps) to the per-shard segment files — or compacts the
      partitions whose segments outgrew their ratio threshold
      (dirty-only: clean shards' snapshot sections are reused on disk).
      The checkpoint outcome, including which shards were compacted,
      lands on ``last_report.checkpoint``. None (the default) leaves
      persistence to explicit ``save_repository`` calls;
    * ``ingest`` — ``"inline"`` (the default: registrations, discards
      and the eviction sweep apply on the submit thread, exactly the
      seed's timing) or ``"async"`` (the submit path only enqueues;
      a background :class:`~repro.restore.ingest.Registrar` drains in
      batches off the hot path — call :meth:`flush` before reading the
      repository deterministically). ``ingest_queue_size`` bounds the
      queue, ``ingest_policy`` picks the backpressure behavior when it
      fills (``"block"`` / ``"reject"`` / ``"coalesce"`` — see
      :class:`~repro.restore.ingest.IngestQueue`), and
      ``ingest_batch_size`` caps records per registrar batch. Async
      reports carry :class:`~repro.restore.stats.IngestStats` as
      ``last_report.ingest``.
    """

    MATERIALIZED_PREFIX = MATERIALIZED_PREFIX

    #: Locking contract, enforced by `repro.tools.statlint`
    #: (``lock-discipline``): the discard shield is read/written by the
    #: registrar thread (apply hooks) and by the submit thread, always
    #: under the ingest lock. The apply hooks themselves carry
    #: ``# statlint: holds=_ingest.lock`` — the registrar/InlineIngest
    #: acquire the lock before invoking them.
    GUARDED_BY = {"_kept_paths": "_ingest.lock"}

    #: sentinel: "use the paper's default heuristic" (None disables sub-jobs)
    _DEFAULT = object()

    def __init__(self, dfs, cost_model, repository=None, heuristic=_DEFAULT,
                 retention=None, clock=None, enable_rewrite=True,
                 enable_registration=True, register_whole_jobs=True,
                 register_final_outputs=True, persistence=None,
                 checkpoint_every=1, ingest="inline", ingest_queue_size=1024,
                 ingest_policy="block", ingest_batch_size=32):
        super().__init__(dfs, cost_model, keep_temps=True)
        self.repository = repository if repository is not None else Repository()
        self.heuristic = AggressiveHeuristic() if heuristic is self._DEFAULT else heuristic
        self.retention = retention or KeepEverythingPolicy()
        self.clock = clock or LogicalClock()
        self.enable_rewrite = enable_rewrite
        self.enable_registration = enable_registration
        if persistence is True:
            # Knob convenience: a default segmented RepositoryLog on
            # this manager's DFS (manifest + per-shard sections and
            # segments under /restore/repository.jsonl*).
            from repro.restore.wal import RepositoryLog
            persistence = RepositoryLog(dfs)
        self.persistence = persistence
        if persistence is not None:
            persistence.attach(self.repository)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._submits_since_checkpoint = 0
        #: register outputs of whole jobs (intermediate temps and, when
        #: ``register_final_outputs`` also holds, user-facing outputs)
        self.register_whole_jobs = register_whole_jobs
        self.register_final_outputs = register_final_outputs
        self.last_report = None
        self._pending_candidates = {}
        self._kept_paths = set()
        self._discard_paths = []
        if ingest == "async":
            self._ingest = AsyncIngest(self, capacity=ingest_queue_size,
                                       policy=ingest_policy,
                                       batch_size=ingest_batch_size)
        elif ingest == "inline":
            self._ingest = InlineIngest(self)
        else:
            raise ValueError(
                f"unknown ingest mode {ingest!r}; expected 'inline' or 'async'")
        self.ingest_mode = self._ingest.mode

    # Public API ------------------------------------------------------------

    def submit(self, workflow):
        """Execute ``workflow`` with reuse; returns the WorkflowResult.

        Runs the Section 6.2 loop for every job (match & rewrite →
        simplify → enumerate sub-jobs → execute → register), then the
        retention policy's eviction sweep (Section 5, Rules 3-4).
        ``self.last_report`` describes the rewrites, eliminations,
        registrations, evictions, and the matcher's skip accounting for
        this workflow; one logical-clock tick per submit drives reuse
        windows.

        Under ``ingest="async"`` the registrations, queued discards,
        eviction sweep and checkpoint are *enqueued* — this method
        returns as soon as the jobs have executed, and the report's
        registration/eviction lists fill in as the registrar drains.
        Call :meth:`flush` for a read-after-drain barrier.
        """
        self.clock.tick()
        self.last_report = ReStoreReport(workflow.name)
        self.last_report.ingest = self._ingest.stats
        self._discard_paths = []
        result = self.run(workflow)
        checkpoint_due = False
        if self.persistence is not None:
            self._submits_since_checkpoint += 1
            if self._submits_since_checkpoint >= self.checkpoint_every:
                checkpoint_due = True
                self._submits_since_checkpoint = 0
        discards, self._discard_paths = self._discard_paths, []
        self._ingest.submit_end(SubmitEndRecord(
            self.last_report, self.clock.now(), discards, checkpoint_due))
        return result

    def flush(self):
        """Drain the ingest queue: returns once every record enqueued
        before this call has been applied, so repository reads are
        deterministic. Re-raises any error the registrar hit. Inline
        managers apply everything synchronously — a no-op there."""
        self._ingest.flush()

    def close(self):
        """Shut the manager down cleanly: drain and stop the async
        registrar (pending registrations are applied, not dropped),
        flush the attached :class:`~repro.restore.wal.RepositoryLog`'s
        pending change records to their segments, then release the
        repository's resources (the shard worker processes of
        ``executor="processes"``).

        Without this, records buffered since the last checkpoint are
        silently lost on shutdown and the worker processes leak.
        Idempotent, and also reachable as a context manager::

            with ReStore(dfs, cost_model, ...) as manager:
                manager.submit(workflow)
        """
        try:
            self._ingest.close()
        finally:
            # A registrar error must not leak the log's pending records
            # or the repository's worker processes.
            if self.persistence is not None:
                self.persistence.flush()
            close = getattr(self.repository, "close", None)
            if close is not None:
                close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # JobControl hooks ---------------------------------------------------------

    def prepare_job(self, job, workflow, result):
        self._stamp_load_versions(job)
        if self.enable_rewrite:
            self._match_and_rewrite(job)
        if not self._simplify(job, workflow):
            return False
        if self.heuristic is not None:
            candidates = enumerate_and_inject(job, self.heuristic)
            self._pending_candidates[job.job_id] = candidates
            self.last_report.injected_stores.extend(
                (job.job_id, candidate.operator.kind, candidate.path)
                for candidate in candidates
            )
        return True

    def after_job(self, job, run_result, executed):
        if not executed or not self.enable_registration:
            # The injected stores already executed and materialized
            # their files; nothing will ever register (and so own)
            # them, so they must be queued for discard or they
            # accumulate under /restore/materialized forever. One
            # submission, through the facade: inline rides the
            # per-submit discard list as before, async enqueues a
            # single DiscardRecord — never both, or the paths would be
            # deleted once per route (harmless today, a double-free the
            # moment discard becomes stateful).
            paths = [candidate.path for candidate in
                     self._pending_candidates.pop(job.job_id, ())]
            if paths:
                self._ingest.submit_discards(paths)
            return
        for store in job.plan.stores():
            if store.injected:
                continue
            if not self.register_whole_jobs:
                continue
            if not store.temporary and not self.register_final_outputs:
                continue
            self._register_store(job, store, run_result)
        for candidate in self._pending_candidates.pop(job.job_id, []):
            self._register_candidate(job, candidate, run_result)

    # Matching & rewriting -------------------------------------------------------

    def _stamp_load_versions(self, job):
        for load in job.loads():
            if self.dfs.exists(load.path):
                load.version = self.dfs.status(load.path).version

    def _match_and_rewrite(self, job):
        """Scan the repository; rewrite on the first match; rescan until
        no plan matches (paper Section 3).

        Each pass builds the job's
        :class:`~repro.restore.matcher.PlanDigest` — one walk of the job
        plan — and asks the repository for the entries filed under its
        site fingerprints, in scan order. Skipped entries
        provably cannot match, so the first candidate that matches is
        exactly the entry the seed's full sequential scan would have
        chosen. A rewrite changes the job plan, so every pass starts
        anew. Every candidate offered is accounted for in the report's
        :class:`~repro.restore.stats.MatchCounters`.
        """
        counters = self.last_report.match_counters
        record_hit = getattr(self.repository, "record_match_hit", None)
        # Use-stamps go through the repository's change-event channel so
        # an attached RepositoryLog persists them (Rule 3 reuse windows
        # survive a restart); the frozen seed baseline has no channel and
        # gets the direct stamp.
        record_use = getattr(self.repository, "record_use", None)
        # The ingest lock keeps the whole match pass atomic against the
        # async registrar's batches: a probe never sees a half-applied
        # batch, and use-stamps/worker-pool traffic stays serialized
        # (uncontended re-entrant acquire in inline mode).
        with self._ingest.lock:
            progressed = True
            while progressed:
                progressed = False
                job_digest = PlanDigest(job.plan)
                for entry in self.repository.match_candidates(
                        job.plan, digest=job_digest):
                    counters.candidates_tried += 1
                    if not self.dfs.exists(entry.output_path):
                        counters.skipped_missing_output += 1
                        continue
                    match = find_containment(entry.digest, job_digest)
                    if match is None:
                        counters.skipped_no_containment += 1
                        continue
                    apply_rewrite(job, match, entry, self.dfs)
                    if record_use is not None:
                        record_use(entry, self.clock.now())
                    else:
                        entry.stats.record_use(self.clock.now())
                    counters.matched += 1
                    if record_hit is not None:
                        record_hit(entry)
                    self.last_report.rewrites.append((job.job_id, entry.entry_id))
                    progressed = True
                    break

    def _simplify(self, job, workflow):
        """Drop copy stores; eliminate the job when nothing remains.

        Returns False when the job is fully served from stored outputs.
        """
        removable, _ = classify_copy_stores(job)
        if not removable:
            return True
        if len(removable) == len(job.plan.sinks):
            for store, load in removable:
                self._rewire_dependents(workflow, store.path, load.path)
            self.last_report.eliminated_jobs.append(job.job_id)
            return False
        for store, load in removable:
            job.plan.remove_sink(store)
            self._rewire_dependents(workflow, store.path, load.path)
        restamp_stages(job)
        return True

    def _rewire_dependents(self, workflow, old_path, new_path):
        """Point every load of ``old_path`` in the workflow at ``new_path``
        (versions are stamped when the reading job is prepared)."""
        for other in workflow.jobs:
            for load in other.loads():
                if load.path == old_path:
                    load.path = new_path

    # Registration --------------------------------------------------------------

    def _register_store(self, job, store, run_result):
        self._ingest.submit(self._capture_registration(
            job, store.inputs[0], store.path, run_result,
            owns_file=store.temporary, origin="whole-job"))

    def _register_candidate(self, job, candidate, run_result):
        self._ingest.submit(self._capture_registration(
            job, candidate.operator, candidate.path, run_result,
            owns_file=True, origin="sub-job"))

    def _capture_registration(self, job, frontier_op, output_path, run_result,
                              owns_file, origin):
        """Snapshot a registration on the submit path (capture half).

        Everything the old inline registration read at decision time is
        read *now* — file size, clock tick, execution statistics — so
        :meth:`apply_register` reaches the identical decision whether it
        runs immediately (inline) or later on the registrar thread.
        """
        return RegistrationRecord(
            job_plan=job.plan, frontier_op=frontier_op,
            output_path=output_path, owns_file=owns_file, origin=origin,
            report=self.last_report,
            input_bytes=run_result.stats.map_input_bytes,
            output_bytes=(self.dfs.file_size(output_path)
                          if self.dfs.exists(output_path) else 0),
            producing_job_time=run_result.execution_time,
            map_time=run_result.breakdown.t_load,
            reduce_time=run_result.breakdown.t_store,
            created_tick=self.clock.now(),
        )

    # Ingest sink (apply half) ---------------------------------------------------
    #
    # Both ingest modes run these — inline immediately on the submit
    # thread, async on the registrar thread under the ingest lock.

    def apply_register(self, record, batch):  # statlint: holds=_ingest.lock
        """Clone, dedup, admit-or-reject one captured registration.

        ``batch`` is the registrar's per-batch fingerprint map: a record
        structurally equivalent to an entry admitted *earlier in the
        same batch* short-circuits to the duplicate outcome without
        cloning — identical to what ``find_equivalent`` would decide,
        since that entry is the only equivalent one (had another existed
        beforehand, the earlier record would not have been admitted).
        """
        if batch is not None:
            twin = batch.get(record.ensure_fingerprint())
            if twin is not None:
                self._finish_duplicate(record, twin)
                return
        clone, _ = record.job_plan.clone_subgraph(record.frontier_op)
        if isinstance(clone, POLoad):
            # trivial Load->Store plans are never useful
            self._finish_trivial(record)
            return
        entry_plan = PhysicalPlan([POStore(clone, record.output_path)])
        existing = self.repository.find_equivalent(entry_plan)
        if existing is not None:
            self._finish_duplicate(record, existing)
            return
        stats = EntryStats(
            input_bytes=record.input_bytes,
            output_bytes=record.output_bytes,
            producing_job_time=record.producing_job_time,
            map_time=record.map_time,
            reduce_time=record.reduce_time,
            created_tick=record.created_tick,
        )
        versions = {load.path: load.version for load in entry_plan.loads()}
        entry = RepositoryEntry(entry_plan, record.output_path, stats,
                                input_versions=versions,
                                owns_file=record.owns_file,
                                origin=record.origin)
        if self.retention.should_keep(entry, self.cost_model):
            self.repository.insert(entry)
            self._kept_paths.add(record.output_path)
            record.report.registered_entries.append(entry.entry_id)
            if batch is not None:
                batch[record.ensure_fingerprint()] = entry
            for absorbed in record.absorbed:
                self._finish_duplicate(absorbed, entry)
        else:
            self._finish_rejected(record)

    def _finish_duplicate(self, record, existing):  # statlint: holds=_ingest.lock
        if existing.output_path == record.output_path:
            # A re-registration at the same content-addressed path —
            # a sub-job re-materialized because its entry's file was
            # missing or rewriting was off, or the same operator twice
            # in one job: the "duplicate" file IS the entry's stored
            # file, so shield it from any queued discard.
            self._kept_paths.add(record.output_path)
        if record.origin == "sub-job":
            # A duplicate at a *different* path references nothing — the
            # existing entry keeps its own file — so it must stay
            # discardable: shielding it would leak one orphan
            # materialized file (and one shield-set string) per
            # re-enumerated sub-plan, forever.
            self._ingest.discard_path(record.output_path)
        for absorbed in record.absorbed:
            self._finish_duplicate(absorbed, existing)

    def _finish_trivial(self, record):
        if record.origin == "sub-job":
            self._ingest.discard_path(record.output_path)
        for absorbed in record.absorbed:
            self._finish_trivial(absorbed)

    def _finish_rejected(self, record):
        record.report.rejected_candidates.append(record.output_path)
        if record.owns_file:
            self._ingest.discard_path(record.output_path)
        for absorbed in record.absorbed:
            self._finish_rejected(absorbed)

    def registration_rejected(self, record):
        """A full ``reject``-policy queue refused ``record`` (submit
        thread): account for it and make sure its file cannot leak.

        Taken under the ingest lock: the registrar appends to the same
        report's ``rejected_candidates`` (``_finish_rejected``) while it
        drains this submit's earlier records, and two unsynchronized
        ``list.append`` races can lose an element."""
        with self._ingest.lock:
            record.report.rejected_candidates.append(record.output_path)
            if record.owns_file:
                self._discard_paths.append(record.output_path)

    def apply_discard(self, record):
        for path in record.paths:
            self.discard_path_now(path)

    def apply_submit_end(self, record):  # statlint: holds=_ingest.lock
        """Queued discards, the Rule 3/4 sweep at the captured tick,
        and (when due) the persistence checkpoint — the seed's
        end-of-submit tail, shared by both ingest modes."""
        for path in record.discard_paths:
            if path not in self._kept_paths:
                self.dfs.delete_if_exists(path)
        evicted = self.retention.sweep(self.repository, self.dfs,
                                       FrozenClock(record.tick))
        record.report.evicted_entries.extend(
            entry.entry_id for entry in evicted)
        for entry in evicted:
            # An evicted entry's path must not keep shielding later
            # discards of the same location (and a long-running manager
            # must not accumulate paths forever).
            self._kept_paths.discard(entry.output_path)
        if record.checkpoint_due and self.persistence is not None:
            record.report.checkpoint = self.persistence.checkpoint()

    def queue_discard_path(self, *paths):
        """Inline discard route: ride this submit's discard list, exactly
        the seed's end-of-submit timing."""
        self._discard_paths.extend(paths)

    def discard_path_now(self, path):  # statlint: holds=_ingest.lock
        """Async discard route (registrar thread): this path's submit-end
        record may already be applied, so delete immediately — under the
        same shield the queued route honors."""
        if path not in self._kept_paths:
            self.dfs.delete_if_exists(path)

    def after_batch(self):
        """Register-batch epilogue (registrar thread, under the ingest
        lock): ship the worker pool's buffered per-shard mutations as one
        grouped ``apply`` per touched shard, instead of leaving them to
        serialize through some later probe."""
        pool = getattr(self.repository, "worker_pool", None)
        if pool is not None:
            pool.flush_shards()

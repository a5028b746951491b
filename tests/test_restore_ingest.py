"""Directed tests for the async ingest front-end (PR 8).

Three layers:

* **queue semantics** — the bounded :class:`~repro.restore.ingest.IngestQueue`
  under each backpressure policy (block / reject / coalesce), control-record
  bypass, close behavior, and the :class:`~repro.restore.stats.IngestStats`
  drain-latency reservoir;
* **manager integration** — a paused registrar makes the enqueue/drain split
  observable: rejected registrations are reported and their files discarded,
  duplicate fingerprints coalesce to the inline outcome, within-batch
  duplicates skip ``find_equivalent`` without changing decisions, and
  ``close()`` drains instead of dropping;
* **faults** — a shard worker killed mid-batch (via
  :class:`tests.faultinject.FaultSchedule`) must not lose mutations, and a
  crash/reload between enqueue and drain must find zero dangling durable
  records and replay exactly.
"""

import threading
import time

import pytest

from repro.dfs import DistributedFileSystem
from repro.restore import (
    AggressiveHeuristic,
    load_repository,
    ReStore,
    ReStoreReport,
    RepositoryLog,
    ShardedRepository,
)
from repro.restore.ingest import (
    BarrierRecord,
    DiscardRecord,
    FrozenClock,
    IngestQueue,
    RegistrationRecord,
    Registrar,
)
from repro.restore.stats import IngestStats

from tests.faultinject import FaultSchedule, install_hang_guard
from tests.helpers import (
    compile_query,
    make_cost_model,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


@pytest.fixture(autouse=True)
def _hang_guard():
    # A lost barrier or queue message hangs forever; turn that into a
    # stack dump + hard failure instead of a hung CI job.
    cancel = install_hang_guard()
    yield
    cancel()


def fresh_restore(dfs, **kwargs):
    return ReStore(dfs, make_cost_model(), **kwargs)


def seeded_dfs():
    dfs = DistributedFileSystem()
    seed_page_views(dfs)
    seed_users(dfs, include=range(6))
    return dfs


def _fake_record(fingerprint="fp"):
    """A minimal coalescable record for queue-level tests."""

    class _Fake:
        coalescable = True
        is_barrier = False

        def __init__(self):
            self.absorbed = []
            self.enqueued_at = None

        def ensure_fingerprint(self):
            return fingerprint

    return _Fake()


def _manual_record(job_plan, frontier_op, path, report):
    """A real RegistrationRecord over a compiled plan, with synthetic
    stats — for tests that feed the manager's apply path directly."""
    return RegistrationRecord(
        job_plan=job_plan, frontier_op=frontier_op, output_path=path,
        owns_file=False, origin="whole-job", report=report,
        input_bytes=1000, output_bytes=10, producing_job_time=2.0,
        map_time=0.5, reduce_time=0.5, created_tick=1)


def _compiled_frontier(dfs):
    workflow = compile_query(Q1_TEXT, "manual", dfs)
    job = workflow.topological_jobs()[0]
    store = job.plan.stores()[0]
    return job.plan, store.inputs[0]


def _entry_state(repository):
    """Everything a replay must reproduce bit-identically, in scan order
    (the property suite's idiom)."""
    state = []
    for entry in repository.scan():
        stats = entry.stats
        state.append((
            entry.output_path, entry.fingerprint, entry.origin,
            entry.owns_file, dict(entry.input_versions),
            stats.input_bytes, stats.output_bytes, stats.producing_job_time,
            stats.map_time, stats.reduce_time, stats.created_tick,
            stats.last_used_tick, stats.use_count,
        ))
    return state


# --- Queue semantics ----------------------------------------------------------


class TestIngestQueue:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown ingest policy"):
            IngestQueue(policy="drop")

    def test_block_policy_waits_for_room(self):
        queue = IngestQueue(capacity=1, policy="block")
        assert queue.put(_fake_record("a"))
        unblocked = threading.Event()

        def blocked_put():
            queue.put(_fake_record("b"))
            unblocked.set()

        thread = threading.Thread(target=blocked_put, daemon=True)
        thread.start()
        assert not unblocked.wait(0.1)  # full queue: the put is parked
        [first] = queue.take_batch(1, timeout=1.0)
        assert first.ensure_fingerprint() == "a"
        assert unblocked.wait(5.0)  # room freed: the put completed
        thread.join()
        [second] = queue.take_batch(1, timeout=1.0)
        assert second.ensure_fingerprint() == "b"

    def test_reject_policy_refuses_when_full(self):
        queue = IngestQueue(capacity=1, policy="reject")
        assert queue.put(_fake_record("a"))
        assert not queue.put(_fake_record("b"))
        assert queue.stats.rejected == 1
        assert queue.stats.enqueued == 1
        assert len(queue) == 1

    def test_coalesce_absorbs_duplicate_fingerprints(self):
        queue = IngestQueue(capacity=8, policy="coalesce")
        survivor = _fake_record("same")
        duplicate = _fake_record("same")
        other = _fake_record("other")
        assert queue.put(survivor)
        assert queue.put(duplicate)
        assert queue.put(other)
        assert len(queue) == 2  # the duplicate did not occupy a slot
        assert survivor.absorbed == [duplicate]
        assert queue.stats.coalesced == 1
        assert queue.stats.enqueued == 2

    def test_popped_survivor_leaves_coalesce_map(self):
        # A record already handed to the registrar must not absorb new
        # duplicates — they could land after its batch applied.
        queue = IngestQueue(capacity=8, policy="coalesce")
        survivor = _fake_record("same")
        queue.put(survivor)
        assert queue.take_batch(4, timeout=1.0) == [survivor]
        late = _fake_record("same")
        queue.put(late)
        assert survivor.absorbed == []
        assert len(queue) == 1
        assert queue.take_batch(4, timeout=1.0) == [late]

    def test_put_control_bypasses_capacity(self):
        queue = IngestQueue(capacity=1, policy="reject")
        queue.put(_fake_record("a"))
        queue.put_control(DiscardRecord(["/x"]))  # full, but never refused
        assert len(queue) == 2

    def test_closed_queue_refuses_records_but_not_barriers(self):
        queue = IngestQueue(capacity=4)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.put(_fake_record())
        with pytest.raises(RuntimeError, match="closed"):
            queue.put_control(DiscardRecord(["/x"]))
        queue.put_control(BarrierRecord(threading.Event()))  # flush still works

    def test_frozen_clock_pins_tick(self):
        clock = FrozenClock(7)
        assert clock.now() == 7
        assert clock.now() == 7


class TestIngestStats:
    def test_empty_percentiles_are_none(self):
        stats = IngestStats()
        assert stats.drain_p50 is None
        assert stats.drain_p99 is None

    def test_reservoir_stays_bounded(self):
        stats = IngestStats()
        for index in range(4 * IngestStats.RESERVOIR_CAP):
            stats.record_drain(index * 1e-6)
        assert stats.drained == 4 * IngestStats.RESERVOIR_CAP
        assert len(stats._latencies) <= IngestStats.RESERVOIR_CAP
        assert stats.drain_p50 is not None
        assert stats.drain_p99 >= stats.drain_p50

    def test_depth_high_water_mark(self):
        stats = IngestStats()
        for depth in (1, 5, 3):
            stats.record_depth(depth)
        assert stats.max_queue_depth == 5
        assert "5" in stats.describe()


# --- Manager integration ------------------------------------------------------


class TestAsyncManager:
    def test_async_matches_inline_end_to_end(self):
        arms = {}
        for mode in ("inline", "async"):
            dfs = seeded_dfs()
            with fresh_restore(dfs, heuristic=None, ingest=mode) as manager:
                manager.submit(compile_query(Q1_TEXT, "q1", dfs))
                manager.flush()
                entries = len(manager.repository)
                manager.submit(compile_query(Q2_TEXT, "q2", dfs))
                manager.flush()
                arms[mode] = (entries, manager.last_report.num_rewrites,
                              len(manager.repository),
                              dfs.read_lines("/out/L3_out"))
        assert arms["async"] == arms["inline"]

    def test_async_submit_returns_before_registration(self):
        dfs = seeded_dfs()
        with fresh_restore(dfs, heuristic=None, ingest="async") as manager:
            manager._ingest.registrar.pause()
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            # The jobs ran, but registration is still queued.
            assert dfs.read_lines("/out/L2_out")
            assert len(manager.repository) == 0
            manager._ingest.registrar.resume()
            manager.flush()
            assert len(manager.repository) >= 1
            assert manager.last_report.ingest.applied >= 1

    def test_reject_policy_reports_and_discards(self):
        dfs = seeded_dfs()
        with fresh_restore(dfs, heuristic=AggressiveHeuristic(),
                           ingest="async", ingest_queue_size=1,
                           ingest_policy="reject") as manager:
            manager._ingest.registrar.pause()
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            stats = manager.last_report.ingest
            assert stats.rejected >= 1
            assert manager.last_report.rejected_candidates
            manager._ingest.registrar.resume()
            manager.flush()
            # Nothing leaks: every surviving materialized file belongs to
            # a registered entry; the rejected ones were deleted by the
            # submit-end record.
            kept = {entry.output_path for entry in manager.repository.scan()}
            assert set(dfs.list_files(ReStore.MATERIALIZED_PREFIX)) <= kept

    def test_coalesce_policy_matches_inline_outcome(self):
        inline_dfs = seeded_dfs()
        with fresh_restore(inline_dfs, heuristic=AggressiveHeuristic(),
                           enable_rewrite=False) as inline:
            inline.submit(compile_query(Q1_TEXT, "q1", inline_dfs))
            inline.submit(compile_query(Q1_TEXT, "q2", inline_dfs))
            inline_state = {(e.fingerprint, e.origin)
                            for e in inline.repository.scan()}

        dfs = seeded_dfs()
        with fresh_restore(dfs, heuristic=AggressiveHeuristic(),
                           enable_rewrite=False, ingest="async",
                           ingest_policy="coalesce") as manager:
            manager._ingest.registrar.pause()
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            manager.submit(compile_query(Q1_TEXT, "q2", dfs))
            stats = manager.last_report.ingest
            assert stats.coalesced >= 1  # the twin submit was absorbed
            manager._ingest.registrar.resume()
            manager.flush()
            # Absorbed records follow the survivor's outcome: the end
            # state equals the inline manager's (where the duplicates
            # were individually deduplicated by find_equivalent).
            assert {(e.fingerprint, e.origin)
                    for e in manager.repository.scan()} == inline_state
            assert stats.applied == stats.enqueued + stats.coalesced
            # Absorbed duplicates' materialized files were discarded.
            kept = {entry.output_path for entry in manager.repository.scan()}
            assert set(dfs.list_files(ReStore.MATERIALIZED_PREFIX)) <= kept

    def test_within_batch_duplicates_skip_find_equivalent(self):
        dfs = seeded_dfs()
        with fresh_restore(dfs, heuristic=None, ingest="async") as manager:
            plan, frontier = _compiled_frontier(dfs)
            report = ReStoreReport("manual")
            first = _manual_record(plan, frontier, "/stored/a", report)
            twin = _manual_record(plan, frontier, "/stored/b", report)
            calls = []
            original = manager.repository.find_equivalent
            manager.repository.find_equivalent = \
                lambda probe: calls.append(1) or original(probe)
            manager._ingest.registrar.pause()
            manager._ingest.submit(first)
            manager._ingest.submit(twin)
            manager._ingest.registrar.resume()
            manager.flush()
            stats = manager._ingest.stats
            # One batch; the twin hit the batch context, so only the
            # first record paid the equivalence probe — with the same
            # outcome find_equivalent would have reached.
            assert stats.batches == 1
            assert stats.applied == 2
            assert len(calls) == 1
            assert len(manager.repository) == 1
            [entry] = manager.repository.scan()
            assert entry.output_path == "/stored/a"

    def test_batch_context_agrees_with_find_equivalent(self):
        # The direct-apply twin of the test above: with no batch context
        # the duplicate goes through find_equivalent and must reach the
        # identical decision.
        dfs = seeded_dfs()
        with fresh_restore(dfs, heuristic=None) as manager:
            plan, frontier = _compiled_frontier(dfs)
            report = ReStoreReport("manual")
            manager.apply_register(
                _manual_record(plan, frontier, "/stored/a", report), None)
            manager.apply_register(
                _manual_record(plan, frontier, "/stored/b", report), None)
            assert len(manager.repository) == 1
            [entry] = manager.repository.scan()
            assert entry.output_path == "/stored/a"
            assert len(report.registered_entries) == 1

    def test_close_drains_pending_registrations(self):
        dfs = seeded_dfs()
        manager = fresh_restore(dfs, heuristic=None, ingest="async")
        manager._ingest.registrar.pause()
        manager.submit(compile_query(Q1_TEXT, "q1", dfs))
        assert len(manager.repository) == 0
        manager._ingest.registrar.resume()
        manager.close()  # no explicit flush: close itself must drain
        assert len(manager.repository) >= 1
        assert not manager._ingest.registrar.alive
        manager.close()  # idempotent

    def test_registrar_error_surfaces_on_flush(self):
        dfs = seeded_dfs()
        manager = fresh_restore(dfs, heuristic=None, ingest="async")
        boom = RuntimeError("apply exploded")

        def explode(record, batch):
            raise boom

        manager.apply_register = explode
        manager.submit(compile_query(Q1_TEXT, "q1", dfs))
        with pytest.raises(RuntimeError, match="apply exploded"):
            manager.flush()
        manager.close()  # error already consumed; close still succeeds


# --- Faults -------------------------------------------------------------------


#: structurally novel (its projection appears nowhere in Q1/Q2), so its
#: registration is a guaranteed *insert* — and its only load is
#: page_views, so it lands on a shard the earlier submits both spawned
#: and the recovery probe consults again.
Q1V_TEXT = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, timestamp, est_revenue;
store B into '/out/V_out';
"""


class TestIngestFaults:
    def test_worker_killed_mid_batch_loses_nothing(self):
        """Kill shard workers as the registrar's grouped ``apply``
        messages reach them: the flush keeps the mutation buffers, the
        next probe respawns and re-seeds, and decisions stay identical
        to an inline manager on the serial executor."""
        def drive(manager, dfs, fault=False):
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            manager.flush()
            manager.submit(compile_query(Q2_TEXT, "q2", dfs))
            manager.flush()
            # Registrations only (no probe traffic): every IPC message
            # from here until the re-enable is a registrar-batch apply.
            manager.enable_rewrite = False
            if fault:
                pool = manager.repository.worker_pool
                assert pool._workers  # the probes above spawned workers
                schedule = FaultSchedule(
                    [(shard_id, 1) for shard_id in pool._workers],
                    pool=pool)
                with schedule:
                    registrar = manager._ingest.registrar
                    registrar.pause()
                    manager.submit(compile_query(Q1V_TEXT, "q3", dfs))
                    registrar.resume()
                    manager.flush()  # mid-batch kill: must not raise
                assert schedule.killed
                assert all(op == "apply" for *_, op in schedule.killed)
            else:
                manager.submit(compile_query(Q1V_TEXT, "q3", dfs))
                manager.flush()
            manager.enable_rewrite = True
            # The recovery probe: q4 must reuse the repository exactly
            # as the fault-free twin does.
            manager.submit(compile_query(Q2_TEXT, "q4", dfs))
            manager.flush()
            return (manager.last_report.num_rewrites,
                    len(manager.repository),
                    sorted(entry.output_path
                           for entry in manager.repository.scan()),
                    dfs.read_lines("/out/L3_out"))

        twin_dfs = seeded_dfs()
        with fresh_restore(
                twin_dfs, heuristic=AggressiveHeuristic(),
                repository=ShardedRepository(num_shards=2,
                                             executor="serial")) as twin:
            expected = drive(twin, twin_dfs)

        dfs = seeded_dfs()
        with fresh_restore(
                dfs, heuristic=AggressiveHeuristic(), ingest="async",
                repository=ShardedRepository(
                    num_shards=2, executor="processes")) as manager:
            observed = drive(manager, dfs, fault=True)
            assert manager.repository.worker_pool.recoveries >= 1
        assert observed == expected

    def test_crash_between_enqueue_and_drain_replays_exactly(self):
        """A crash while registrations sit in the queue must find the
        durable state exactly as the last checkpoint left it — an
        un-drained queue writes nothing — and draining then
        checkpointing must replay bit-identically."""
        dfs = seeded_dfs()
        log = RepositoryLog(dfs)
        manager = fresh_restore(dfs, heuristic=AggressiveHeuristic(),
                                ingest="async", persistence=log)
        try:
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            manager.flush()  # checkpoint_every=1: q1 is durable
            assert log.pending_records == 0
            checkpointed = _entry_state(load_repository(dfs))
            assert checkpointed == _entry_state(manager.repository)

            manager.enable_rewrite = False  # no submit-thread use-stamps
            manager._ingest.registrar.pause()
            manager.submit(compile_query(Q2_TEXT, "q2", dfs))
            # Enqueued but not drained: no dangling durable records.
            assert log.pending_records == 0
            assert _entry_state(load_repository(dfs)) == checkpointed

            manager._ingest.registrar.resume()
            manager.flush()
            # Drained + checkpointed: replay is exact, including q2.
            assert len(manager.repository) > len(checkpointed)
            assert _entry_state(load_repository(dfs)) == \
                _entry_state(manager.repository)
        finally:
            manager.close()


class TestExceptionPaths:
    """PR 9 regressions: the registrar's BaseException narrowing and the
    rejected-registration lock (both found by repro.tools.statlint)."""

    def test_keyboard_interrupt_propagates_out_of_flush(self):
        # An interrupt raised while applying a record must not be
        # captured into the poison slot and forgotten: it terminates the
        # registrar thread AND re-raises on the caller's flush().
        queue = IngestQueue()

        class _Interrupt:
            coalescable = False
            is_barrier = False

            def apply(self, sink, batch):
                raise KeyboardInterrupt

        registrar = Registrar(queue, object(), threading.RLock())
        queue.put_control(_Interrupt())
        with pytest.raises(KeyboardInterrupt):
            registrar.flush()
        registrar._thread.join(timeout=5.0)
        assert not registrar.alive
        registrar.close()  # idempotent; the error was already consumed

    def test_registration_rejected_serializes_on_ingest_lock(self):
        # registration_rejected runs on the submit thread while the
        # registrar may be appending to the same report under the ingest
        # lock; the submit side must take that lock, not race the list.
        manager = fresh_restore(seeded_dfs())
        try:
            class _Report:
                def __init__(self):
                    self.rejected_candidates = []

            class _Record:
                output_path = "/restore/tmp-rejected"
                owns_file = True

                def __init__(self):
                    self.report = _Report()

            record = _Record()
            entered = threading.Event()
            done = threading.Event()

            def reject():
                entered.set()
                manager.registration_rejected(record)
                done.set()

            with manager._ingest.lock:
                worker = threading.Thread(target=reject, daemon=True)
                worker.start()
                assert entered.wait(5.0)
                assert not done.wait(0.2)  # blocked on the ingest lock
            assert done.wait(5.0)
            worker.join(5.0)
            assert record.report.rejected_candidates == [record.output_path]
            assert record.output_path in manager._discard_paths
        finally:
            manager.close()

"""Deterministic fault injection for the worker-process shard service.

Crash tests used to kill workers ad hoc (``handle.process.kill()``
sprinkled between operations), which pins the crash to a line of test
code instead of a point in the *message stream* — unportable to
randomized property streams and impossible to reproduce from a seed.
:class:`FaultSchedule` fixes that: it wraps
:class:`~repro.restore.service._WorkerHandle` message delivery, counts
the messages each ``(shard, replica)`` receives, and kills the chosen
victim's process **as its Nth message is being sent** — the victim dies
before delivery, so the sender observes ``WorkerCrashed`` at exactly
that point in the stream, every run. Schedules are either spelled out
(``FaultSchedule([(shard_id, nth)])``) or generated from a seed
(:meth:`FaultSchedule.from_seed`), which is what the property suite's
fault-injected streams use.

Replicas are addressed by their spawn ordinal (``replica_seq``): the
replicated pool numbers each shard's replicas 0..k-1 at spawn and keeps
counting for replacements, so "kill shard 1's second replica after its
3rd message" names one deterministic process even across backfills.

This module is a test harness, not a test module (no ``test_``
prefix). It also provides :func:`install_hang_guard`: IPC tests that
lose a queue message hang forever, and a hung test hangs the whole CI
job — the guard arms :mod:`faulthandler` to dump every thread's stack
into a file under ``tests/artifacts/`` (which CI uploads on failure) and
hard-exit the interpreter past a per-test deadline, turning a hang into
a diagnosable failure.
"""

import faulthandler
import multiprocessing
import os
import random
import signal

from repro.restore import gateway as _gateway
from repro.restore import service as _service

#: per-test wall-clock ceiling for worker/replica IPC tests (seconds)
WORKER_TEST_TIMEOUT = 180.0

#: where a tripped hang guard leaves ``hang-<pid>.txt``
ARTIFACTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "artifacts")


def install_hang_guard(timeout=WORKER_TEST_TIMEOUT):
    """Arm faulthandler to dump all stacks and exit if the current test
    runs past ``timeout`` seconds; returns the cancel callable (call it
    in teardown). Use as an autouse fixture in worker test modules::

        @pytest.fixture(autouse=True)
        def _hang_guard():
            cancel = install_hang_guard()
            yield
            cancel()

    The dump goes to ``ARTIFACTS/hang-<pid>.txt``, headed by the running
    test's node id — not to fd 2, which pytest has captured, so a dump
    there would die with the process. The cancel callable removes the
    file: one that is left behind is a hang.
    """
    os.makedirs(ARTIFACTS, exist_ok=True)
    path = os.path.join(ARTIFACTS, f"hang-{os.getpid()}.txt")
    dump = open(path, "w", encoding="utf-8")
    dump.write(f"{os.environ.get('PYTEST_CURRENT_TEST', 'unknown test')} "
               f"ran past {timeout:g} s\n")
    dump.flush()
    faulthandler.dump_traceback_later(timeout, exit=True, file=dump)

    def cancel():
        faulthandler.cancel_dump_traceback_later()
        dump.close()
        os.remove(path)

    return cancel


def kill_worker(handle):
    """SIGKILL ``handle``'s process without poisoning the DFS gateway.

    A durable-capable worker shares one multiprocessing request queue
    with every other worker of its pool (the gateway's). Queue puts are
    asynchronous — a feeder thread in the worker sends the bytes under
    the queue's shared write lock — so a SIGKILL that lands between the
    send and the lock release leaves the lock held forever: every
    surviving worker's durable write then blocks, the coordinator's
    receive-poll spins on the silent-but-alive workers, and interpreter
    shutdown deadlocks joining the parent's own feeder. Holding the
    lock across the kill rules the window out: the victim's feeder
    either already released it (which is how we acquired) or has not
    yet acquired it (and dies holding nothing).
    """
    client = getattr(handle, "durable_store", None)
    wlock = getattr(getattr(client, "_requests", None), "_wlock", None)
    if wlock is None:
        handle.process.kill()
        handle.process.join(timeout=5.0)
        return
    with wlock:
        handle.process.kill()
        handle.process.join(timeout=5.0)


class FaultSchedule:
    """Kill chosen shard workers after their Nth message, reproducibly.

    ``kills`` is an iterable of ``(shard_id, nth_message)`` — replica 0,
    the common case for the single-worker pool — or ``(shard_id,
    replica_seq, nth_message)``. Messages are counted per ``(shard_id,
    replica_seq)`` from the moment the schedule is entered; when a
    victim's count reaches its ``nth``, the worker process is killed
    (the process-kill half of ``_WorkerHandle.kill()`` — queues are
    left for the pool's own reaping) *before* the message is handed to
    the queue, so the send raises
    :class:`~repro.restore.service.WorkerCrashed` deterministically.

    Use as a context manager; ``killed`` records each kill as
    ``(shard_id, replica_seq, message_op)`` in firing order. An optional
    ``pool`` restricts counting and killing to handles owned by that
    pool — required when several worker pools run side by side (the
    lock-step fleets), since shard ids repeat across pools.
    """

    def __init__(self, kills, pool=None):
        self._kills = {}
        for point in kills:
            if len(point) == 2:
                shard_id, nth = point
                replica_seq = 0
            else:
                shard_id, replica_seq, nth = point
            if nth < 1:
                raise ValueError(f"nth_message must be >= 1, got {nth}")
            self._kills[(shard_id, replica_seq)] = nth
        self._pool = pool
        self._counts = {}
        self._original_send = None
        self.killed = []

    @classmethod
    def from_seed(cls, seed, shard_ids, replicas=1, kills=1,
                  max_message=12, pool=None):
        """A schedule of ``kills`` distinct victims drawn from
        ``random.Random(seed)``: each picks a shard from ``shard_ids``,
        a replica ordinal below ``replicas``, and an Nth message in
        [1, max_message]. Same seed, same schedule — the property
        suite's fault-injected streams are reproducible from their
        stream number alone."""
        rng = random.Random(seed)
        shard_ids = list(shard_ids)
        points = []
        victims = set()
        for _ in range(kills):
            for _attempt in range(64):
                victim = (rng.choice(shard_ids), rng.randrange(replicas))
                if victim not in victims:
                    break
            victims.add(victim)
            points.append(victim + (rng.randint(1, max_message),))
        return cls(points, pool=pool)

    def _owns(self, handle):
        """Does the schedule's pool (if any) own ``handle``?"""
        pool = self._pool
        if pool is None:
            return True
        replica_sets = getattr(pool, "_replica_sets", None)
        if replica_sets and any(handle in replicas
                                for replicas in replica_sets.values()):
            return True
        workers = getattr(pool, "_workers", None)
        return bool(workers) and handle in workers.values()

    def __enter__(self):
        schedule = self
        original = _service._WorkerHandle.send

        def counting_send(handle, message):
            if schedule._owns(handle):
                key = (handle.shard_id, getattr(handle, "replica_seq", 0))
                count = schedule._counts.get(key, 0) + 1
                schedule._counts[key] = count
                if schedule._kills.get(key) == count:
                    schedule.killed.append(key + (message[0],))
                    kill_worker(handle)
            return original(handle, message)

        self._original_send = original
        _service._WorkerHandle.send = counting_send
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        _service._WorkerHandle.send = self._original_send
        self._original_send = None
        return False

    @property
    def pending(self):
        """Victims whose Nth message has not arrived yet."""
        return {key: nth for key, nth in self._kills.items()
                if self._counts.get(key, 0) < nth}


class ProtocolWindowKill:
    """Kill a durable-owner worker at one chosen window of the
    worker-owned checkpoint protocol (PERSISTENCE §6), deterministically.

    Message counts (:class:`FaultSchedule`) cannot name the windows that
    matter for worker-owned durability — "after the segment append hit
    the DFS but before the ack" is a point *inside* one message's
    handling, not between messages. This harness pins each window
    exactly:

    * ``"segment-append"`` — the combined mutation+append message is
      being sent to the durable owner; the victim dies **before
      delivery**, so nothing reached the segment and the coordinator
      sees ``WorkerCrashed`` on the send (uncertainty resolved to "not
      appended": the watermark reconcile must keep every record).
    * ``"segment-appended"`` — the worker's gateway ``append_lines``
      returned (the records are durable) and the worker dies **before
      acking**; the coordinator's receive raises and the reconcile must
      drop exactly the appended records (the double-append window).
    * ``"section-written"`` — the worker's gateway ``write_section``
      returned (the new generation-named section exists) and the worker
      dies **before acking**; the coordinator must rewrite the section
      itself — byte-identical, so the overwrite is invisible.
    * ``"acked"`` — the worker's ``compact_section`` ack was received
      and the worker dies **before the manifest swap**; the swap is
      front-end work, so the checkpoint completes and only the next
      probe notices the corpse.

    The worker-side windows (``"segment-appended"``,
    ``"section-written"``) patch :class:`~repro.restore.gateway.DfsClient`
    **at class level**: enter the context *before the pool spawns its
    workers*, so the forked children inherit the patched method. After
    the real write returns, the patched method flips a shared
    ``fired`` flag and SIGKILLs its own process — the first durable
    write through any inherited client fires, which is deterministic
    because one repository per test owns a gateway. The front-end
    windows (``"segment-append"``, ``"acked"``) patch
    ``_WorkerHandle`` send/receive like :class:`FaultSchedule` does.

    ``fired`` reads the (process-shared) flag; ``killed`` records
    ``(shard_id, replica_seq, window)`` for the front-end windows
    (worker-side kills cannot know their shard — check ``fired``).
    """

    WINDOWS = ("segment-append", "segment-appended", "section-written",
               "acked")

    def __init__(self, window):
        if window not in self.WINDOWS:
            raise ValueError(
                f"unknown protocol window {window!r}; pick one of "
                f"{self.WINDOWS}")
        self.window = window
        self.killed = []
        # Shared with forked workers: a worker-side kill must be
        # observable from the test process.
        self._fired = multiprocessing.Value("i", 0)
        self._originals = []

    @property
    def fired(self):
        return bool(self._fired.value)

    def _fire_once(self):
        """Atomically claim the (single) kill; False when already fired."""
        with self._fired.get_lock():
            if self._fired.value:
                return False
            self._fired.value = 1
            return True

    def __enter__(self):
        harness = self

        def patch(owner, name, replacement):
            self._originals.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

        if self.window == "segment-append":
            original_send = _service._WorkerHandle.send

            def killing_send(handle, message):
                if (message[0] == "apply" and len(message) > 2
                        and harness._fire_once()):
                    harness.killed.append(
                        (handle.shard_id,
                         getattr(handle, "replica_seq", 0),
                         harness.window))
                    kill_worker(handle)
                return original_send(handle, message)

            patch(_service._WorkerHandle, "send", killing_send)
        elif self.window in ("segment-appended", "section-written"):
            method = ("append_lines" if self.window == "segment-appended"
                      else "write_section")
            original_call = getattr(_gateway.DfsClient, method)

            def dying_write(client, target, lines):
                answer = original_call(client, target, lines)
                if harness._fire_once():
                    # The write is durable (the gateway pump acked);
                    # die before the protocol-level ack. One care: the
                    # reply can race this process's queue feeder
                    # thread, which may still sit between sending the
                    # request bytes and releasing the gateway queue's
                    # shared write lock — SIGKILL in that window
                    # poisons the lock for every surviving worker
                    # (their writes, and the coordinator polling them,
                    # block forever). Cycling the lock first proves
                    # the feeder is idle; nothing else in this process
                    # enqueues, so nothing re-acquires before we die.
                    wlock = getattr(client._requests, "_wlock", None)
                    if wlock is not None:
                        with wlock:
                            pass
                    os.kill(os.getpid(), signal.SIGKILL)
                return answer

            patch(_gateway.DfsClient, method, dying_write)
        else:  # "acked"
            original_send = _service._WorkerHandle.send
            original_receive = _service._WorkerHandle.receive

            def tagging_send(handle, message):
                handle._last_op_sent = message[0]
                return original_send(handle, message)

            def killing_receive(handle):
                answer = original_receive(handle)
                if (getattr(handle, "_last_op_sent", None)
                        == "compact_section" and harness._fire_once()):
                    harness.killed.append(
                        (handle.shard_id,
                         getattr(handle, "replica_seq", 0),
                         harness.window))
                    kill_worker(handle)
                return answer

            patch(_service._WorkerHandle, "send", tagging_send)
            patch(_service._WorkerHandle, "receive", killing_receive)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)
        return False

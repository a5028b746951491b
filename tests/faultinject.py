"""Deterministic fault injection for the worker-process shard service.

Crash tests used to kill workers ad hoc (``handle.process.kill()``
sprinkled between operations), which pins the crash to a line of test
code instead of a point in the *message stream* — unportable to
randomized property streams and impossible to reproduce from a seed.
:class:`FaultSchedule` fixes that: it wraps
:class:`~repro.restore.service._WorkerHandle` message delivery, counts
the messages each shard's worker receives, and kills the chosen victim's
process **as its Nth message is being sent** — the victim dies before
delivery, so the sender observes ``WorkerCrashed`` at exactly that point
in the stream, every run. Schedules are either spelled out
(``FaultSchedule([(shard_id, nth)])``) or generated from a seed
(:meth:`FaultSchedule.from_seed`), which is what the property suite's
fault-injected streams use.

This module is a test harness, not a test module (no ``test_``
prefix). It also provides :func:`install_hang_guard`: IPC tests that
lose a queue message hang forever, and a hung test hangs the whole CI
job — the guard arms :mod:`faulthandler` to dump every thread's stack
into a file under ``tests/artifacts/`` (which CI uploads on failure) and
hard-exit the interpreter past a per-test deadline, turning a hang into
a diagnosable failure.
"""

import faulthandler
import os
import random

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


class FaultSchedule:
    """Kill chosen shard workers after their Nth message, reproducibly.

    ``kills`` is an iterable of ``(shard_id, nth_message)``. Messages
    are counted per shard from the moment the schedule is entered (a
    respawned worker continues its shard's count, so each victim dies
    once); when a victim's count reaches its ``nth``, the worker process
    is killed (the process-kill half of ``_WorkerHandle.kill()`` —
    queues are left for the pool's own reaping) *before* the message is
    handed to the queue, so the send raises
    :class:`~repro.restore.service.WorkerCrashed` deterministically.

    Use as a context manager; ``killed`` records each kill as
    ``(shard_id, 0, message_op)`` in firing order (the middle field is
    the worker's ordinal within its shard — a pool runs one worker per
    shard, so always 0). An optional ``pool`` restricts counting and
    killing to handles owned by that pool — required when several
    worker pools run side by side (the lock-step fleets), since shard
    ids repeat across pools.
    """

    def __init__(self, kills, pool=None):
        self._kills = {}
        for shard_id, nth in kills:
            if nth < 1:
                raise ValueError(f"nth_message must be >= 1, got {nth}")
            self._kills[shard_id] = nth
        self._pool = pool
        self._counts = {}
        self._original_send = None
        self.killed = []

    @classmethod
    def from_seed(cls, seed, shard_ids, kills=1, max_message=12, pool=None):
        """A schedule of ``kills`` distinct victims drawn from
        ``random.Random(seed)``: each picks a shard from ``shard_ids``
        and an Nth message in [1, max_message]. Same seed, same
        schedule — the property suite's fault-injected streams are
        reproducible from their stream number alone."""
        rng = random.Random(seed)
        shard_ids = list(shard_ids)
        points = []
        victims = set()
        for _ in range(kills):
            for _attempt in range(64):
                victim = rng.choice(shard_ids)
                if victim not in victims:
                    break
            victims.add(victim)
            points.append((victim, rng.randint(1, max_message)))
        return cls(points, pool=pool)

    def _owns(self, handle):
        """Does the schedule's pool (if any) own ``handle``?"""
        return self._pool is None or handle in self._pool._workers.values()

    def __enter__(self):
        schedule = self
        original = _service._WorkerHandle.send

        def counting_send(handle, message):
            if schedule._owns(handle):
                shard_id = handle.shard_id
                count = schedule._counts.get(shard_id, 0) + 1
                schedule._counts[shard_id] = count
                if schedule._kills.get(shard_id) == count:
                    schedule.killed.append((shard_id, 0, message[0]))
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
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
        return {shard_id: nth for shard_id, nth in self._kills.items()
                if self._counts.get(shard_id, 0) < nth}

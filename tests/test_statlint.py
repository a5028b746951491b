"""Fixture suite for the statlint static-analysis tool (PR 9).

Every checker gets true-positive fixtures (the bug shape it exists to
catch) *and* false-positive fixtures (the idioms it must not flag —
the escape hatches are part of the contract). On top of that: the
suppression grammar (justification required), the baseline round-trip,
and the CLI — including the CI-level proof that a deliberate
lock-discipline violation fails the run, and that the real ``src/``
tree is clean.
"""

import json
import textwrap

import pytest

from repro.tools.statlint import (
    Baseline,
    Finding,
    Project,
    SourceModule,
    analyze_paths,
    rule_ids,
)
from repro.tools.statlint.__main__ import main
from repro.tools.statlint.core import load_project
from repro.tools.statlint.crashorder import CrashOrdering
from repro.tools.statlint.exceptions import ExceptionHygiene
from repro.tools.statlint.forksafety import ForkSafety
from repro.tools.statlint.locks import LockDiscipline, LockOrdering


def _mod(source, relpath="mod.py"):
    return SourceModule(relpath, relpath, textwrap.dedent(source))


def _run(checker_cls, *modules):
    return list(checker_cls().run(Project(list(modules))))


def _rules(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# lock-discipline


class TestLockDiscipline:
    def test_write_outside_with_flagged(self):
        findings = _run(LockDiscipline, _mod('''
            import threading

            class Queue:
                GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = []

                def drop_all(self):
                    self._records = []
        '''))
        assert len(findings) == 1
        assert findings[0].rule == "lock-discipline"
        assert "_records" in findings[0].message
        assert "_lock" in findings[0].message

    def test_read_outside_with_flagged(self):
        findings = _run(LockDiscipline, _mod('''
            import threading

            class Queue:
                GUARDED_BY = {"_records": "_lock", "_closed": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = []
                    self._closed = False

                def snapshot(self):
                    with self._lock:
                        records = list(self._records)
                    return records, self._closed
        '''))
        assert [f.message.split("'")[1] for f in findings] == ["_closed"]

    def test_access_inside_with_clean(self):
        findings = _run(LockDiscipline, _mod('''
            import threading

            class Queue:
                GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = []

                def size(self):
                    with self._lock:
                        return len(self._records)
        '''))
        assert findings == []

    def test_locked_suffix_and_holds_marker_clean(self):
        findings = _run(LockDiscipline, _mod('''
            import threading

            class Queue:
                GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = []

                def append_locked(self, record):
                    self._records.append(record)

                def drain(self):  # statlint: holds=_lock
                    records, self._records = self._records, []
                    return records
        '''))
        assert findings == []

    def test_init_exempt(self):
        findings = _run(LockDiscipline, _mod('''
            import threading

            class Queue:
                GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = []
        '''))
        assert findings == []

    def test_dotted_lock_spec(self):
        # The manager's `_kept_paths` is guarded by `_ingest.lock`.
        findings = _run(LockDiscipline, _mod('''
            class Manager:
                GUARDED_BY = {"_kept": "_ingest.lock"}

                def keep(self, path):
                    with self._ingest.lock:
                        self._kept.add(path)

                def leak(self, path):
                    self._kept.add(path)
        '''))
        assert len(findings) == 1
        assert findings[0].line == 10


# ---------------------------------------------------------------------------
# lock-ordering


class TestLockOrdering:
    def test_opposite_nesting_is_a_cycle(self):
        findings = _run(LockOrdering, _mod('''
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        '''))
        assert len(findings) == 1
        assert "lock-ordering cycle" in findings[0].message

    def test_cycle_through_a_call_is_found(self):
        findings = _run(LockOrdering, _mod('''
            import threading

            class Checkpointer:
                def __init__(self):
                    self._mutex = threading.Lock()

                def checkpoint(self):
                    with self._mutex:
                        drain()


            class Drainer:
                def __init__(self):
                    self.lock = threading.Lock()

                def drain(self):
                    with self.lock:
                        pass


            class Applier:
                def __init__(self):
                    self.lock = threading.Lock()
                    self._mutex = threading.Lock()

                def apply(self):
                    with self.lock:
                        with self._mutex:
                            pass
        '''))
        assert len(findings) == 1
        assert "call to drain()" in findings[0].message

    def test_self_reacquire_of_plain_lock(self):
        findings = _run(LockOrdering, _mod('''
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    with self._lock:
                        pass
        '''))
        assert len(findings) == 1
        assert "non-reentrant" in findings[0].message

    def test_consistent_order_clean(self):
        findings = _run(LockOrdering, _mod('''
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
        '''))
        assert findings == []

    def test_rlock_self_nest_clean(self):
        findings = _run(LockOrdering, _mod('''
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    with self._lock:
                        pass
        '''))
        assert findings == []

    def test_same_method_name_on_unrelated_class_no_edge(self):
        # `self.flush()` must resolve to *this* class's flush, not every
        # flush in the project — the FP that motivated qualified names.
        findings = _run(LockOrdering, _mod('''
            import threading

            class Wal:
                def __init__(self):
                    self._mutex = threading.Lock()

                def checkpoint(self):
                    with self._mutex:
                        self.flush()

                def flush(self):
                    pass


            class Other:
                def __init__(self):
                    self.lock = threading.Lock()
                    self._mutex_owner = Wal()

                def flush(self):
                    with self.lock:
                        with self._mutex_owner._mutex:
                            pass
        '''))
        assert findings == []


# ---------------------------------------------------------------------------
# fork-safety


class TestForkSafety:
    def test_threading_reachable_from_marked_entrypoint(self):
        findings = _run(ForkSafety, _mod('''
            import threading

            def _worker_main(requests):  # statlint: process-entrypoint
                pump = threading.Thread(target=print)
                pump.start()
        '''))
        assert len(findings) == 1
        assert "threading.Thread" in findings[0].message
        assert "_worker_main" in findings[0].message

    def test_front_end_attr_via_process_target_and_typed_call(self):
        # Roots come from Process(target=...), and `state.probe()`
        # resolves because `state = WorkerState()` names the class.
        findings = _run(ForkSafety, _mod('''
            from multiprocessing import get_context

            class WorkerState:
                def probe(self):
                    return self._repository.scan()

            def worker_loop(requests):
                state = WorkerState()
                state.probe()

            def spawn():
                ctx = get_context("fork")
                return ctx.Process(target=worker_loop, args=(None,))
        '''))
        assert len(findings) == 1
        assert "self._repository" in findings[0].message
        assert "worker_loop" in findings[0].message

    def test_lambda_process_target_flagged(self):
        findings = _run(ForkSafety, _mod('''
            import multiprocessing

            def spawn(state):
                return multiprocessing.Process(target=lambda: state.run())
        '''))
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_bound_method_process_target_flagged(self):
        findings = _run(ForkSafety, _mod('''
            import multiprocessing

            class Pool:
                def spawn(self):
                    return multiprocessing.Process(target=self._loop)

                def _loop(self):
                    pass
        '''))
        assert len(findings) == 1
        assert "bound method" in findings[0].message

    def test_unreachable_threading_clean(self):
        # The front-end may create threads freely; only worker-reachable
        # code is constrained.
        findings = _run(ForkSafety, _mod('''
            import threading

            def _worker_main(requests):  # statlint: process-entrypoint
                return requests.get()

            class FrontEnd:
                def start(self):
                    self._pump = threading.Thread(target=print)
        '''))
        assert findings == []

    def test_worker_owning_its_state_clean(self):
        findings = _run(ForkSafety, _mod('''
            class WorkerState:
                def __init__(self):
                    self._entries = {}

                def apply(self, record):
                    self._entries[record.key] = record

            def _worker_main(requests):  # statlint: process-entrypoint
                state = WorkerState()
                state.apply(requests.get())
        '''))
        assert findings == []

    # The DFS handle (`self.dfs`) is an in-process object whose forked
    # copy is private memory, so touching it from worker-reachable code
    # is a write into the void: every repository file is written by the
    # front end.

    def test_real_dfs_handle_reachable_from_worker_flagged(self):
        findings = _run(ForkSafety, _mod('''
            class WorkerState:
                def flush(self, segment, lines):
                    self.dfs.append_lines(segment, lines)

            def _worker_main(requests):  # statlint: process-entrypoint
                state = WorkerState()
                state.flush(*requests.get())
        '''))
        assert len(findings) == 1
        assert "self.dfs" in findings[0].message
        assert "_worker_main" in findings[0].message

    def test_gateway_holding_dfs_in_worker_helper_flagged(self):
        # Even read-shaped access counts: the handle itself is parent
        # state, whatever the worker does with it.
        findings = _run(ForkSafety, _mod('''
            class Gateway:
                def describe(self):
                    return repr(self.dfs)

            def _worker_main(requests):  # statlint: process-entrypoint
                gateway = Gateway()
                gateway.describe()
        '''))
        assert len(findings) == 1
        assert "self.dfs" in findings[0].message

    def test_front_end_pump_owning_real_dfs_clean(self):
        # A front-end object holding the DFS and a pump thread is
        # legal, because no worker entrypoint reaches it.
        findings = _run(ForkSafety, _mod('''
            import threading

            class Gateway:
                def __init__(self, dfs):
                    self.dfs = dfs
                    self._pump = threading.Thread(target=self._run)

                def _run(self):
                    self.dfs.append_lines("seg", ["r"])

            def _worker_main(requests):  # statlint: process-entrypoint
                return requests.get()
        '''))
        assert findings == []


# ---------------------------------------------------------------------------
# crash-ordering


class TestCrashOrdering:
    def test_truncate_before_manifest_swap(self):
        findings = _run(CrashOrdering, _mod('''
            class Log:
                def compact(self):
                    segment = self._segment_path(0)
                    self.dfs.write_lines(segment, [])
                    self.dfs.write_lines(self.path, ["m"], overwrite=True)
        ''', relpath="wal.py"))
        assert len(findings) == 1
        assert "precedes the manifest swap" in findings[0].message

    def test_section_write_after_manifest_swap(self):
        findings = _run(CrashOrdering, _mod('''
            class Persistence:
                def checkpoint(self, root):
                    section = section_file_path(root, 1)
                    self.dfs.write_lines(self.path, ["m"], overwrite=True)
                    self.dfs.write_lines(section, ["s"], overwrite=True)
        ''', relpath="persistence.py"))
        assert len(findings) == 1
        assert "follows the manifest swap" in findings[0].message
        assert "section" in findings[0].message

    def test_delete_then_write_manifest(self):
        findings = _run(CrashOrdering, _mod('''
            class Log:
                def save(self):
                    self.dfs.delete_if_exists(self.path)
                    self.dfs.write_lines(self.path, ["m"], overwrite=True)
        ''', relpath="wal.py"))
        assert len(findings) == 1
        assert "delete-then-write" in findings[0].message

    def test_manifest_write_without_overwrite(self):
        findings = _run(CrashOrdering, _mod('''
            class Log:
                def save(self, path):
                    self.dfs.write_lines(path, ["m"])
        ''', relpath="wal.py"))
        assert len(findings) == 1
        assert "overwrite=True" in findings[0].message

    def test_correct_compact_shape_clean(self):
        # The real compaction order: content first, manifest swap,
        # truncations and GC deletes last.
        findings = _run(CrashOrdering, _mod('''
            class Log:
                def compact(self, root):
                    section = section_file_path(root, 1)
                    order_log = order_log_path(root)
                    segment = self._segment_path(0)
                    self.dfs.write_lines(section, ["s"], overwrite=True)
                    self.dfs.write_lines(order_log, ["o"], overwrite=True)
                    self.dfs.write_lines(self.path, ["m"], overwrite=True)
                    self.dfs.write_lines(segment, [])
                    self.dfs.delete_if_exists(order_log)
        ''', relpath="wal.py"))
        assert findings == []

    def test_rules_only_apply_in_persistence_modules(self):
        # The DFS facade implements write_lines; the ordering rules are
        # meaningless there.
        findings = _run(CrashOrdering, _mod('''
            class Log:
                def save(self):
                    self.dfs.delete_if_exists(self.path)
                    self.dfs.write_lines(self.path, ["m"])
        ''', relpath="filesystem.py"))
        assert findings == []


# ---------------------------------------------------------------------------
# exception-hygiene


class TestExceptionHygiene:
    def test_bare_except_flagged(self):
        findings = _run(ExceptionHygiene, _mod('''
            def risky():
                try:
                    work()
                except:
                    pass
        '''))
        assert _rules(findings) == ["exception-hygiene"]
        assert "bare" in findings[0].message

    def test_base_exception_without_raise_flagged(self):
        findings = _run(ExceptionHygiene, _mod('''
            def drain():
                try:
                    work()
                except BaseException as exc:
                    record(exc)
        '''))
        assert len(findings) == 1
        assert "without a 'raise'" in findings[0].message

    def test_worker_crashed_swallowed_flagged(self):
        findings = _run(ExceptionHygiene, _mod('''
            def flush(shards):
                for shard in shards:
                    try:
                        shard.flush()
                    except WorkerCrashed:
                        continue
        '''))
        assert len(findings) == 1
        assert "WorkerCrashed" in findings[0].message

    def test_base_exception_with_reraise_clean(self):
        findings = _run(ExceptionHygiene, _mod('''
            def drain():
                try:
                    work()
                except BaseException:
                    cleanup()
                    raise
        '''))
        assert findings == []

    def test_narrow_except_clean(self):
        findings = _run(ExceptionHygiene, _mod('''
            def drain():
                try:
                    work()
                except (ValueError, Exception) as exc:
                    log(exc)
        '''))
        assert findings == []

    def test_worker_crashed_recovered_clean(self):
        findings = _run(ExceptionHygiene, _mod('''
            def flush(shards):
                for shard in shards:
                    try:
                        shard.flush()
                    except WorkerCrashed:
                        shard.recover()
        '''))
        assert findings == []

    def test_nested_def_raise_does_not_count(self):
        findings = _run(ExceptionHygiene, _mod('''
            def drain():
                try:
                    work()
                except BaseException:
                    def resurface():
                        raise
                    keep(resurface)
        '''))
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# suppressions


def _write(tmp_path, name, source):
    # "st@tlint" is replaced with the real marker at write time, so
    # deliberately-bad suppression fixtures don't read as suppression
    # comments of *this* file when tests/ itself is scanned.
    target = tmp_path / name
    target.write_text(textwrap.dedent(source).replace("st@tlint",
                                                      "statlint"),
                      encoding="utf-8")
    return str(target)


class TestSuppressions:
    def test_justified_suppression_silences(self, tmp_path):
        path = _write(tmp_path, "a.py", '''
            def risky():
                try:
                    work()
                except BaseException as exc:  # statlint: disable=exception-hygiene -- resurfaced via the poison slot
                    record(exc)
        ''')
        findings, errors = analyze_paths([path])
        assert errors == []
        assert findings == []

    def test_unjustified_suppression_is_a_finding_and_does_not_suppress(
            self, tmp_path):
        path = _write(tmp_path, "a.py", '''
            def risky():
                try:
                    work()
                except BaseException as exc:  # st@tlint: disable=exception-hygiene
                    record(exc)
        ''')
        findings, _ = analyze_paths([path])
        assert sorted(_rules(findings)) == ["exception-hygiene",
                                            "suppression-hygiene"]
        hygiene = [f for f in findings if f.rule == "suppression-hygiene"]
        assert "without justification" in hygiene[0].message

    def test_unknown_rule_in_suppression_is_a_finding(self, tmp_path):
        path = _write(tmp_path, "a.py", '''
            x = 1  # st@tlint: disable=no-such-rule -- because
        ''')
        findings, _ = analyze_paths([path])
        assert _rules(findings) == ["suppression-hygiene"]
        assert "unknown rule 'no-such-rule'" in findings[0].message

    def test_suppression_only_silences_named_rule(self, tmp_path):
        path = _write(tmp_path, "a.py", '''
            def risky():
                try:
                    work()
                except:  # statlint: disable=crash-ordering -- wrong rule named
                    pass
        ''')
        findings, _ = analyze_paths([path])
        assert _rules(findings) == ["exception-hygiene"]


# ---------------------------------------------------------------------------
# baseline


class TestBaseline:
    def _findings(self):
        return [Finding("exception-hygiene", "a.py", 3, "bare 'except:'"),
                Finding("exception-hygiene", "a.py", 9, "bare 'except:'"),
                Finding("lock-discipline", "b.py", 5, "outside lock")]

    def test_round_trip(self, tmp_path):
        target = str(tmp_path / "baseline.json")
        Baseline.from_findings(self._findings()).save(target)
        loaded = Baseline.load(target)
        assert loaded.counts == Baseline.from_findings(
            self._findings()).counts
        payload = json.loads((tmp_path / "baseline.json").read_text())
        assert payload["version"] == Baseline.VERSION
        assert len(payload["findings"]) == 3

    def test_partition_is_line_insensitive(self):
        baseline = Baseline.from_findings(self._findings())
        moved = [Finding("lock-discipline", "b.py", 99, "outside lock")]
        new, old = baseline.partition(moved)
        assert new == [] and old == moved

    def test_partition_budget_is_a_multiset(self):
        baseline = Baseline.from_findings(
            [Finding("r", "a.py", 1, "m")])
        duplicates = [Finding("r", "a.py", 1, "m"),
                      Finding("r", "a.py", 2, "m")]
        new, old = baseline.partition(duplicates)
        assert len(old) == 1 and len(new) == 1

    def test_unsupported_version_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(str(target))


# ---------------------------------------------------------------------------
# CLI


BAD_FIXTURE = '''
import threading

class Queue:
    GUARDED_BY = {"_records": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self._records = []

    def drop_all(self):
        self._records = []
'''


class TestCli:
    def test_deliberate_violation_fails_the_run(self, tmp_path, capsys):
        # The CI contract: a lock-discipline violation makes the
        # analysis job red.
        _write(tmp_path, "bad.py", BAD_FIXTURE)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "lock-discipline" in out

    def test_report_only_is_always_green(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD_FIXTURE)
        assert main([str(tmp_path), "--report-only"]) == 0
        assert "lock-discipline" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD_FIXTURE)
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "lock-discipline"

    def test_baseline_workflow(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD_FIXTURE)
        baseline = str(tmp_path / "baseline.json")
        assert main([str(tmp_path), "--baseline", baseline,
                     "--write-baseline"]) == 0
        # Grandfathered: the finding is known, the run is green.
        assert main([str(tmp_path), "--baseline", baseline,
                     "--fail-on-new"]) == 0
        assert "baselined" in capsys.readouterr().out
        # A *new* finding still fails.
        _write(tmp_path, "worse.py", BAD_FIXTURE.replace("Queue", "Other"))
        assert main([str(tmp_path), "--baseline", baseline,
                     "--fail-on-new"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        assert main([str(tmp_path), "--rules", "nope"]) == 2

    def test_rules_filter(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD_FIXTURE)
        assert main([str(tmp_path), "--rules", "crash-ordering"]) == 0

    def test_syntax_error_is_an_error(self, tmp_path, capsys):
        _write(tmp_path, "broken.py", "def f(:\n")
        assert main([str(tmp_path)]) == 2
        assert "cannot analyze" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("lock-discipline", "lock-ordering", "fork-safety",
                     "crash-ordering", "exception-hygiene",
                     "suppression-hygiene"):
            assert rule in out

    def test_repo_src_tree_is_clean(self, capsys):
        # The acceptance bar: the shipped tree has zero findings — every
        # true positive was fixed, not baselined.
        import repro
        src = repro.__file__.rsplit("/", 2)[0]
        assert main([src]) == 0
        assert "clean" in capsys.readouterr().out


class TestRegistry:
    def test_all_five_checkers_registered(self):
        assert set(rule_ids()) >= {"lock-discipline", "lock-ordering",
                                   "fork-safety", "crash-ordering",
                                   "exception-hygiene",
                                   "suppression-hygiene"}

    def test_real_annotations_are_parsed(self):
        # Guard against vacuous passes: the shipped GUARDED_BY maps and
        # the worker entrypoint marker must actually be visible to the
        # checkers.
        import repro
        src = repro.__file__.rsplit("/", 2)[0]
        project, errors = load_project([src])
        assert errors == []
        ingest = [m for m in project.modules
                  if m.relpath.endswith("restore/ingest.py")][0]
        service = [m for m in project.modules
                   if m.relpath.endswith("restore/service.py")][0]
        assert "GUARDED_BY" in ingest.text
        assert service.entrypoint_lines

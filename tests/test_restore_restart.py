"""A restart keeps every stored output.

The repository outlives the process that filled it (paper Sections 1
and 5): a second process reloads it and serves later workflows from
files the first one wrote. Every name that reaches the DFS is therefore
a function of the computation, never of what else ran in the process.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import PigSystem
from repro.dfs import DistributedFileSystem
from repro.mapreduce import WorkflowExecutor
from repro.pigmix.datagen import PigMixConfig, PigMixData
from repro.pigmix.queries import query_text
from repro.restore import AggressiveHeuristic, ReStore

from tests.helpers import (
    compile_query,
    make_cost_model,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)

#: submitted by the first process, which then closes its manager
BEFORE = ["L3", "L2"]
#: submitted by the second process over the reloaded repository
AFTER = ["L4", "L3a", "L3", "L2", "L3b", "L3c"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: each half of the stream runs in a fresh interpreter, as a restart does
FIRST = textwrap.dedent("""
    import pickle, sys
    from tests.test_restore_restart import BEFORE, pigmix_system, submit_all
    system = pigmix_system()
    with system.restore(persistence=True) as manager:
        submit_all(system, manager, BEFORE)
    with open(sys.argv[1], "wb") as handle:
        pickle.dump(system, handle)
""")
SECOND = textwrap.dedent("""
    import json, pickle, sys
    from repro.restore import load_repository
    from tests.test_restore_restart import AFTER, submit_all
    with open(sys.argv[1], "rb") as handle:
        system = pickle.load(handle)
    repository = load_repository(system.dfs)
    with system.restore(repository=repository, persistence=True) as manager:
        outputs = submit_all(system, manager, AFTER)
    print(json.dumps(outputs))
""")


def pigmix_system():
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=300, num_users=30,
                            num_power_users=6)).install(system.dfs)
    return system


def submit_all(system, manager, names):
    """Submit the named PigMix queries; each one's output lines."""
    outputs = []
    for name in names:
        manager.submit(system.compile(query_text(name), name))
        outputs.append(system.dfs.read_lines(f"/out/{name}_out"))
    return outputs


def run_child(script, saved):
    """Run ``script`` in a fresh interpreter; its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    child = subprocess.run([sys.executable, "-c", script, saved], cwd=ROOT,
                           env=env, capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr[-3000:]
    return child.stdout


def dfs_contents(dfs):
    return {path: dfs.read_lines(path) for path in dfs.list_files()}


class TestRestart:
    def test_second_process_continues_the_stream(self, tmp_path):
        twin = pigmix_system()
        with twin.restore() as manager:
            expected = submit_all(twin, manager, BEFORE + AFTER)[len(BEFORE):]

        saved = str(tmp_path / "system.pickle")
        run_child(FIRST, saved)
        assert json.loads(run_child(SECOND, saved)) == expected

    def test_same_stream_writes_the_same_bytes(self):
        """Two runs of one stream in one process: every file on the
        DFS, repository and materialized outputs included, is equal."""
        runs = []
        for _ in range(2):
            system = pigmix_system()
            with system.restore(persistence=True) as manager:
                submit_all(system, manager, BEFORE + AFTER[:2])
            runs.append(dfs_contents(system.dfs))
        assert runs[0] == runs[1]


PAGE_VIEWS = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
"""
#: two identical filters joined to each other: one fingerprint, twice
SELF_JOIN = PAGE_VIEWS + """
B = filter A by timestamp > 20000;
C = filter A by timestamp > 20000;
D = join B by user, C by user;
store D into '/out/self_join';
"""
#: reads the filter the self-join materializes, and nothing else of it
FILTER_GROUP = PAGE_VIEWS + """
B = filter A by timestamp > 20000;
G = group B by user;
H = foreach G generate group, COUNT(B);
store H into '/out/filter_group';
"""
#: reads the projection Q1 materializes, and nothing else of Q1
PROJECT_GROUP = PAGE_VIEWS + """
B = foreach A generate user, est_revenue;
C = group B by user;
D = foreach C generate group, COUNT(B);
store D into '/out/project_group';
"""


def seeded_dfs():
    dfs = DistributedFileSystem()
    seed_page_views(dfs)
    seed_users(dfs, include=range(6))
    return dfs


def baseline_output(text, out_path):
    """``text``'s output on a fresh, identical cluster without reuse."""
    dfs = seeded_dfs()
    WorkflowExecutor(dfs, make_cost_model()).execute(
        compile_query(text, "baseline", dfs))
    return dfs.read_lines(out_path)


def manager_on(dfs, **kwargs):
    return ReStore(dfs, make_cost_model(), heuristic=AggressiveHeuristic(),
                   **kwargs)


def materialized(dfs):
    return dfs.list_files(ReStore.MATERIALIZED_PREFIX)


class TestMaterializedPaths:
    @pytest.mark.parametrize("ingest", ["inline", "async"])
    def test_sub_job_entries_are_named_by_their_fingerprint(self, ingest):
        dfs = seeded_dfs()
        with manager_on(dfs, ingest=ingest) as manager:
            for index, text in enumerate((Q1_TEXT, Q2_TEXT, PROJECT_GROUP)):
                manager.submit(compile_query(text, f"q{index}", dfs))
            manager.flush()
            sub_jobs = [entry for entry in manager.repository
                        if entry.origin == "sub-job"]
        assert sub_jobs
        for entry in sub_jobs:
            assert entry.output_path == \
                f"{ReStore.MATERIALIZED_PREFIX}/{entry.fingerprint}"

    def test_missing_file_is_materialized_again_at_its_own_path(self):
        dfs = seeded_dfs()
        manager = manager_on(dfs)
        manager.submit(compile_query(Q1_TEXT, "q1", dfs))
        [projection] = [entry for entry in manager.repository
                        if entry.origin == "sub-job"
                        and entry.output_path in materialized(dfs)
                        and "/data/page_views" in entry.input_versions]
        dfs.delete(projection.output_path)

        manager.submit(compile_query(PROJECT_GROUP, "again", dfs))
        report = manager.last_report
        assert report.match_counters.skipped_missing_output == 1
        assert report.injected_stores[0][2] == projection.output_path
        # The re-registration is a duplicate at the entry's own path:
        # the submit's discards spare the file and the entry stays.
        assert dfs.exists(projection.output_path)
        assert manager.repository.entry(projection.entry_id) is projection

        manager.submit(compile_query(PROJECT_GROUP, "reuse", dfs))
        assert manager.last_report.rewrites
        assert dfs.read_lines("/out/project_group") == \
            baseline_output(PROJECT_GROUP, "/out/project_group")

    def test_equal_operators_in_one_job_share_one_file(self):
        dfs = seeded_dfs()
        manager = manager_on(dfs)
        manager.submit(compile_query(SELF_JOIN, "self-join", dfs))
        paths = [path for _, kind, path in manager.last_report.injected_stores
                 if kind == "filter"]
        assert len(paths) == 1
        assert materialized(dfs) == [paths[0]]
        assert [entry.output_path for entry in manager.repository
                if entry.origin == "sub-job"] == [paths[0]]
        assert dfs.read_lines("/out/self_join") == \
            baseline_output(SELF_JOIN, "/out/self_join")

        manager.submit(compile_query(FILTER_GROUP, "filter-group", dfs))
        assert manager.last_report.rewrites
        assert dfs.read_lines("/out/filter_group") == \
            baseline_output(FILTER_GROUP, "/out/filter_group")

    def test_two_managers_on_one_dfs_write_one_file(self):
        dfs = seeded_dfs()
        manager_on(dfs).submit(compile_query(Q1_TEXT, "first", dfs))
        first = {path: dfs.status(path) for path in materialized(dfs)}
        manager_on(dfs).submit(compile_query(Q1_TEXT, "second", dfs))
        second = {path: dfs.status(path) for path in materialized(dfs)}
        assert first and set(second) == set(first)
        # The second manager rewrote each file with the same bytes: the
        # content-stable DFS kept its version.
        for path, status in first.items():
            assert second[path].version == status.version
            assert second[path].size_bytes == status.size_bytes

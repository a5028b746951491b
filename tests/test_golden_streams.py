"""Golden streams: three submit streams' outcomes, pinned by digest.

Builds the ``ingest_churn``, ``hot_probe`` and ``pigmix_reuse`` streams of
the e2e benchmark (``benchmarks/e2e/workload.py``, imported read-only) at a
tenth of its nominal ``--seconds 20``, seed 7, and submits each one the
way the benchmark's measured window does. Three SHA-256 digests pin what
a stream did:

* **decisions** — every submit's rewrites, eliminated jobs, registered
  entries and evicted entries, in a canonical form (not ``describe()``
  text);
* **outputs** — every DFS file outside the repository's own files: its
  path, version and lines;
* **durable** — the repository files after ``close()`` (a snapshot saved
  then, for a stream without a log, as the benchmark's recovery does).

A stream's whole outcome is a function of its inputs, so the digests hold
under any ``PYTHONHASHSEED``. A change that moves one names which one
moved and why: a deletion or a refactor moves none, a change to the
durable format moves **durable** only. ``python tests/test_golden_streams.py``
prints the digests of the tree it runs on.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.pigmix.datagen import PAGE_VIEWS_SCHEMA
from repro.restore import save_repository

# benchmarks/e2e is a directory of scripts, not a package.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks", "e2e"))
import workload

SEED = 7
SECONDS = 2.0
GOLDEN = {
    "ingest_churn": {
        "decisions":
            "aa25557b6b6091a12eaab180f218bb958a648a5ba79bd60359dcfb4fdc321f3b",
        "outputs":
            "b245b23fa45d64d463b7b1a6c73d75dd9d3c150b266be3c3588efd21d4eea5ae",
        "durable":
            "7a398e71eebc9bee0b23fe0aca580c580e9b8c7457717a4d68965ff351bff0d9",
    },
    "hot_probe": {
        "decisions":
            "08e4b63cc0df92807dfcd788621c3e67b8a7682f84b4d977f8a9708363708a50",
        "outputs":
            "a872c64c2d1c11b637abdb85fd23e81957f070b609440705b6a042a8aef9fa02",
        "durable":
            "42d7c68ae64fd22b6e4ae44586c0755a6ce5b63618d4481c8782111f50cc96fe",
    },
    "pigmix_reuse": {
        "decisions":
            "e7798180e5b11f16c7b89d320cd77ece2da139509f55f163914622415e544dfd",
        "outputs":
            "c66cce7d4d56000b0b3ef0a30cce1fb6b2f04f7a3880d7695dc9dddbcd2199b5",
        "durable":
            "f9cf1120b416281fb04882a08b8b3f5d82771c1de965b416395dfe9478df3b95",
    },
}


def _decision(report):
    return {"rewrites": [list(pair) for pair in report.rewrites],
            "eliminated": list(report.eliminated_jobs),
            "registered": list(report.registered_entries),
            "evicted": list(report.evicted_entries)}


def _files(dfs, paths):
    return [[path, dfs.status(path).version, dfs.read_lines(path)]
            for path in paths]


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stream_digests(name):
    """Run one stream to ``close()``; its three digests."""
    spec = workload.SPECS[name]
    stream = workload.Stream(spec, SEED, SECONDS)
    system, restore, _, _ = workload.set_up(spec, stream)
    decisions = []
    for position, pick in enumerate(stream.picks):
        overwrite = stream.overwrites.get(position)
        if overwrite is not None:
            system.write_table(overwrite[0], overwrite[1], PAGE_VIEWS_SCHEMA)
        query = stream.pool[pick]
        restore.submit(system.compile(query.text, f"q{query.index}"))
        decisions.append(_decision(restore.last_report))
    restore.flush()
    restore.close()
    if restore.persistence is None:
        save_repository(restore.repository, system.dfs)
    dfs = system.dfs
    durable = dfs.list_files(workload.REPOSITORY_FILES)
    outputs = [path for path in dfs.list_files()
               if not path.startswith(workload.REPOSITORY_FILES)]
    return {"decisions": _digest(decisions),
            "outputs": _digest(_files(dfs, outputs)),
            "durable": _digest(_files(dfs, durable))}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stream_outcome_is_pinned(name):
    assert stream_digests(name) == GOLDEN[name]


if __name__ == "__main__":
    for stream_name in GOLDEN:
        print(stream_name, json.dumps(stream_digests(stream_name), indent=4))

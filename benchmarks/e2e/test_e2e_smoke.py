"""Tier-1 smoke test of the e2e benchmark (see README.md).

Every workload runs at ``--smoke`` size, untraced and traced; every metric
``BENCHMARK.json`` declares must come out present, finite and well named,
and what is counted must repeat exactly on the serial workloads.
"""

import json
import math
import os
import re

import pytest

import run
import workload

SEED = 7
with open(os.path.join(run.HERE, os.pardir, os.pardir, "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
SERIAL = [name for name, spec in workload.SPECS.items() if not spec.fabric]
#: counted, not timed: identical from run to run when nothing is asynchronous
COUNTED = ["sim_speedup", "stored_bytes_ratio", "mapreduce.jobs_run",
           "mapreduce.jobs_eliminated", "mapreduce.sim_time_s",
           "repository.inserts", "repository.removes", "matcher.calls"]


@pytest.fixture(autouse=True)
def two_rounds(monkeypatch):
    """The least a traced run needs: an untraced round before the traced
    one. A round's fixed cost (data generation) is most of a smoke run."""
    for spec in workload.SPECS.values():
        monkeypatch.setattr(spec, "rounds", 2)


def check(result, declared):
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        measured = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert measured["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(measured["value"]), metric["name"]


def test_benchmark_json_names_the_workloads():
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(
        workload.SPECS)
    assert DECLARED["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", SERIAL)
def test_serial_workload_is_complete_and_repeats(name):
    counted = []
    for _ in range(2):
        plain = workload.run_workload(name, SEED, run.SMOKE_SECONDS, False)
        traced = workload.run_workload(name, SEED, run.SMOKE_SECONDS, True)
        check(plain, DECLARED["end_to_end"])
        check(traced, DECLARED["per_layer"])
        for metric in DECLARED["end_to_end"]:
            assert plain["metrics"][metric["name"]]["value"] > 0, metric
        both = {**plain["metrics"], **traced["metrics"]}
        counted.append([both[metric]["value"] for metric in COUNTED])
    assert counted[0] == counted[1]


def test_fabric_stream_is_complete():
    for trace, declared in ((0, DECLARED["end_to_end"]),
                            (1, DECLARED["per_layer"])):
        result, err = run.run_child("fabric_stream", SEED, run.SMOKE_SECONDS,
                                    trace, ceiling=60)
        if not result["metrics"] and "killed" in err:
            # The stall of ROADMAP item 1 is this region's known fault and
            # not the benchmark's; the containment did its job.
            pytest.skip(f"{err}; stack in results/hang-fabric_stream.txt")
        check(result, declared)

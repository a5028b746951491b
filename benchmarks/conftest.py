"""Shared benchmark fixtures: result recording for the figures README.md
indexes."""

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable aggregate of every ablation arm, written at the
#: repo root so CI can upload it as a build artifact
ABLATION_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_ablation.json")


@pytest.fixture(scope="session")
def record_experiment():
    """Write an ExperimentResult's table under benchmarks/results/; fold
    ablation results into ``BENCH_ablation.json`` at the repo root
    (merged per exp_id, so partial runs update rather than clobber)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def record(result):
        path = os.path.join(RESULTS_DIR, f"{result.exp_id}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(result.format() + "\n")
        if result.exp_id.startswith("ablation"):
            aggregate = {}
            if os.path.exists(ABLATION_JSON):
                with open(ABLATION_JSON, "r", encoding="utf-8") as handle:
                    aggregate = json.load(handle)
            aggregate[result.exp_id] = {
                "title": result.title,
                "headers": result.headers,
                "rows": result.rows,
                "notes": result.notes,
            }
            with open(ABLATION_JSON, "w", encoding="utf-8") as handle:
                json.dump(aggregate, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print()
        print(result.format())
        return result

    return record

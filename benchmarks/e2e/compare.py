"""Compare two suite results: ``python3 benchmarks/e2e/compare.py A.json B.json``.

A and B are files ``run.py`` wrote (``results/suite.json`` or ``--out``).
For every (workload, end-to-end metric) this prints the base median, the
new median, new / base, and one of

* ``within-bound`` — B's median is no worse than A's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``regressed``    — it is worse by more than the bound;
* ``unresolved``   — the run-to-run spread of either side, (max - min) /
  median over its repeats, is wider than the bound, so the runs cannot
  tell.

A workload whose ``ops_failed_share`` is not 0 in B is ``regressed``.
Exits 1 when anything regressed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(summary):
    return (summary["max"] - summary["min"]) / abs(summary["median"])


def verdict(base, new, better, bound):
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    change = (new["median"] - base["median"]) / abs(base["median"])
    worsening = change if better == "lower" else -change
    return "regressed" if worsening > bound else "within-bound"


def compare(base_document, new_document, declared):
    """Rows of (workload, metric, base, new, ratio, verdict)."""
    rows = []
    for name, new in new_document["workloads"].items():
        base = base_document["workloads"].get(name)
        if base is None:
            continue
        failed = new["ops_failed_share"]
        rows.append((name, "ops_failed_share", base["ops_failed_share"],
                     failed, None,
                     "regressed" if failed > 0 else "within-bound"))
        for metric in declared:
            old = base["end_to_end"].get(metric["name"])
            now = new["end_to_end"].get(metric["name"])
            if old is None or now is None:
                rows.append((name, metric["name"], None, None, None,
                             "regressed"))  # a run that printed no result
                continue
            rows.append((name, metric["name"], old["median"], now["median"],
                         now["median"] / old["median"],
                         verdict(old, now, metric["better"],
                                 metric["bound"])))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = _load(BENCHMARK_JSON)["end_to_end"]
    rows = compare(_load(argv[0]), _load(argv[1]), declared)

    def number(value):
        return "-" if value is None else f"{value:.6g}"

    print(f"{'workload':14s} {'metric':24s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  verdict")
    for name, metric, old, now, ratio, outcome in rows:
        print(f"{name:14s} {metric:24s} {number(old):>12s} {number(now):>12s} "
              f"{number(ratio):>9s}  {outcome}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

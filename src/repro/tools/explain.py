"""EXPLAIN for the Pig dialect: show every compilation stage of a query.

Usage from code::

    from repro.tools import explain
    print(explain(query_text))

or from a shell::

    python -m repro.tools.explain "A = load '/d' as (x:int); store A into '/o';"
"""

import sys

from repro.logical import build_logical_plan
from repro.mrcompiler import compile_to_workflow
from repro.physical import logical_to_physical
from repro.piglatin import parse_query


def explain(query_text, dataset_versions=None):
    """Render the logical plan, physical plan, and MapReduce workflow."""
    logical = build_logical_plan(parse_query(query_text))
    physical = logical_to_physical(logical, dataset_versions or {})
    workflow = compile_to_workflow(physical, "explain")
    return "\n".join([
        "-- logical plan " + "-" * 40, logical.describe(),
        "-- physical plan " + "-" * 39, physical.describe(),
        "-- mapreduce workflow " + "-" * 34, workflow.describe(),
    ])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] != "-":
        query = " ".join(argv)
    else:
        query = sys.stdin.read()
    print(explain(query))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

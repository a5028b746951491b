"""repro — a full reproduction of *ReStore: Reusing Results of MapReduce
Jobs* (Elghandour & Aboulnaga, PVLDB 5(6), 2012).

The package contains a complete, executing substrate — a simulated HDFS, a
MapReduce engine with a calibrated cost model, and a Pig-like dataflow
compiler — plus ReStore itself: the plan matcher & rewriter, the sub-job
enumerator with its heuristics, and the repository/selector.

Quick start::

    from repro import PigSystem
    from repro.restore import ReStore

    system = PigSystem()
    system.write_table("/data/t", rows, schema)
    restore = system.restore()
    restore.submit(system.compile(query_one))   # executes + stores outputs
    restore.submit(system.compile(query_two))   # rewritten to reuse them

See README.md for the package map and the benchmark–figure index, and
docs/ARCHITECTURE.md for the restore subsystem end to end.
"""

from repro.api import PigSystem
from repro.common.errors import ReproError

__version__ = "1.0.0"

__all__ = ["PigSystem", "ReproError", "__version__"]

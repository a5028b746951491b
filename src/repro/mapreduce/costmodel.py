"""Deterministic cost model: counters -> simulated seconds.

Implements the paper's Equation 2 literally:

    ET(Job) = Tload + sum_i ET(OPi) + Tsort + Tstore

over the byte/record counters the engine measures, with slot-wave
parallelism from the cluster topology. The ``scale`` knob interprets one
actual byte (we execute scaled-down data) as ``scale`` bytes, which is how
the harness realizes the paper's 15 GB and 150 GB instances.

The constants are Hadoop-0.20-era rates (sequential disk reads ~tens of
MB/s per slot; replicated writes ~3x dearer than reads; multi-second task
startup). They are deliberately NOT fitted per-query to the paper — the
benchmarks in README.md's benchmark–figure index compare *shapes*, not
absolute minutes.
"""

import math

from repro.common.errors import ExecutionError
from repro.common.units import MB
from repro.mapreduce.cluster import ClusterConfig

#: Per-operator CPU throughput (bytes/sec per slot). Hadoop-era costs are
#: byte-dominated; Join/Group/CoGroup are the "known to be expensive"
#: operators of Section 4 (lowest throughput).
DEFAULT_CPU_RATES = {
    "load": 12 * MB,       # deserialization
    "store": 16 * MB,      # serialization (disk I/O charged separately)
    "foreach": 40 * MB,
    "filter": 60 * MB,
    "join": 8 * MB,
    "group": 9 * MB,
    "cogroup": 8 * MB,
    "distinct": 10 * MB,
    "union": 120 * MB,
    "sort": 10 * MB,
    "limit": 200 * MB,
    "split": 200 * MB,
}

#: CPU throughput charged to operator kinds missing from ``cpu_rates``.
FALLBACK_CPU_RATE = 50 * MB


class CostModelConfig:
    """Tunable constants for the cost model."""

    def __init__(
        self,
        scale=1.0,
        hdfs_block_bytes=64 * MB,
        read_bytes_per_sec=4 * MB,        # per slot; 6 tasks share one SCSI disk
        write_bytes_per_sec=2 * MB,       # per slot, per replica (x3 charged)
        shuffle_bytes_per_sec=3 * MB,     # spill + network + merge, per slot
        bytes_per_reducer=256 * MB,
        task_startup_sec=2.0,
        job_startup_sec=6.0,
        store_file_overhead_sec=5.0,
        cpu_rates=None,
        replication=3,
    ):
        if scale <= 0:
            raise ExecutionError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.hdfs_block_bytes = hdfs_block_bytes
        self.read_bytes_per_sec = read_bytes_per_sec
        self.write_bytes_per_sec = write_bytes_per_sec
        self.shuffle_bytes_per_sec = shuffle_bytes_per_sec
        self.bytes_per_reducer = bytes_per_reducer
        self.task_startup_sec = task_startup_sec
        self.job_startup_sec = job_startup_sec
        self.store_file_overhead_sec = store_file_overhead_sec
        self.cpu_rates = dict(DEFAULT_CPU_RATES)
        if cpu_rates:
            self.cpu_rates.update(cpu_rates)
        self.replication = replication

    def with_scale(self, scale):
        """A copy of this config at a different data scale."""
        return CostModelConfig(
            scale=scale,
            hdfs_block_bytes=self.hdfs_block_bytes,
            read_bytes_per_sec=self.read_bytes_per_sec,
            write_bytes_per_sec=self.write_bytes_per_sec,
            shuffle_bytes_per_sec=self.shuffle_bytes_per_sec,
            bytes_per_reducer=self.bytes_per_reducer,
            task_startup_sec=self.task_startup_sec,
            job_startup_sec=self.job_startup_sec,
            store_file_overhead_sec=self.store_file_overhead_sec,
            cpu_rates=self.cpu_rates,
            replication=self.replication,
        )


class CostBreakdown:
    """Equation 2 components for one job, in simulated seconds."""

    __slots__ = ("t_startup", "t_load", "t_ops", "t_sort", "t_store",
                 "num_map_tasks", "num_reducers")

    def __init__(self, t_startup, t_load, t_ops, t_sort, t_store,
                 num_map_tasks, num_reducers):
        self.t_startup = t_startup
        self.t_load = t_load
        self.t_ops = t_ops
        self.t_sort = t_sort
        self.t_store = t_store
        self.num_map_tasks = num_map_tasks
        self.num_reducers = num_reducers

    @property
    def total(self):
        return self.t_startup + self.t_load + self.t_ops + self.t_sort + self.t_store

    def __repr__(self):
        return (
            f"CostBreakdown(total={self.total:.1f}s: startup={self.t_startup:.1f}, "
            f"load={self.t_load:.1f}, ops={self.t_ops:.1f}, sort={self.t_sort:.1f}, "
            f"store={self.t_store:.1f})"
        )


class CostModel:
    """Evaluates Equation 2 for a job's :class:`JobStats`."""

    def __init__(self, config=None, cluster=None):
        self.config = config or CostModelConfig()
        self.cluster = cluster or ClusterConfig()

    def choose_num_reducers(self, map_output_bytes, parallel=None):
        """Reducer count: explicit PARALLEL wins, else sized by shuffle volume."""
        if parallel is not None:
            return max(1, min(parallel, self.cluster.reduce_capacity))
        effective = map_output_bytes * self.config.scale
        by_size = math.ceil(effective / self.config.bytes_per_reducer)
        return max(1, min(by_size, self.cluster.reduce_capacity))

    def estimate_load_time(self, num_bytes):
        """Simulated time for a map-only job that just loads ``num_bytes``.

        Used by retention Rule 2: reusing an entry pays this instead of
        the producing job's full execution time.
        """
        cfg = self.config
        effective = num_bytes * cfg.scale
        num_tasks = max(1, math.ceil(effective / cfg.hdfs_block_bytes))
        concurrency = min(self.cluster.map_capacity, num_tasks)
        waves = math.ceil(num_tasks / self.cluster.map_capacity)
        return (
            cfg.job_startup_sec
            + waves * cfg.task_startup_sec
            + effective / cfg.read_bytes_per_sec / concurrency
        )

    def job_time(self, stats):
        """Equation 2: simulated execution time breakdown for one job."""
        cfg = self.config
        eff = cfg.scale

        map_input = stats.map_input_bytes * eff
        num_map_tasks = max(1, math.ceil(map_input / cfg.hdfs_block_bytes))
        map_conc = min(self.cluster.map_capacity, num_map_tasks)

        num_reducers = stats.num_reducers
        reduce_conc = max(1, min(self.cluster.reduce_capacity, num_reducers))

        # Startup: job submission plus task-launch waves.
        map_waves = math.ceil(num_map_tasks / self.cluster.map_capacity)
        reduce_waves = math.ceil(num_reducers / self.cluster.reduce_capacity) if num_reducers else 0
        t_startup = (
            cfg.job_startup_sec
            + map_waves * cfg.task_startup_sec
            + reduce_waves * cfg.task_startup_sec
        )

        # Tload: reading input off HDFS through the map slots.
        t_load = map_input / cfg.read_bytes_per_sec / map_conc

        # Sum of ET(OPi): per-operator CPU over the bytes each processed,
        # divided by stage concurrency.
        t_ops = 0.0
        for (kind, stage), (_, nbytes) in stats.op_charges.items():
            conc = map_conc if stage == "map" else reduce_conc
            rate = cfg.cpu_rates.get(kind, FALLBACK_CPU_RATE)
            t_ops += nbytes * eff / rate / conc

        # Tsort: map-side spill/sort plus shuffle/merge into reducers.
        shuffle = stats.map_output_bytes * eff
        t_sort = 0.0
        if shuffle:
            t_sort += shuffle / cfg.shuffle_bytes_per_sec / map_conc      # spill+sort
            t_sort += shuffle / cfg.shuffle_bytes_per_sec / reduce_conc   # fetch+merge

        # Tstore: replicated writes through the slots that execute them.
        write_rate = cfg.write_bytes_per_sec
        t_store = 0.0
        if stats.map_store_bytes:
            t_store += stats.map_store_bytes * eff * cfg.replication / write_rate / map_conc
        if stats.reduce_store_bytes:
            t_store += (
                stats.reduce_store_bytes * eff * cfg.replication / write_rate / reduce_conc
            )
        t_store += (
            stats.num_map_side_stores + stats.num_reduce_side_stores
        ) * cfg.store_file_overhead_sec

        return CostBreakdown(t_startup, t_load, t_ops, t_sort, t_store,
                             num_map_tasks, num_reducers)

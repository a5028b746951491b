"""Unit tests for the Equation 1/2 cost model and the cluster config."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.units import GB, MB
from repro.mapreduce import ClusterConfig, CostModel, CostModelConfig, JobStats
from repro.mapreduce.costmodel import CostBreakdown


def stats_with(map_input=0, shuffle=0, reducers=0, map_store=0, reduce_store=0,
               charges=()):
    stats = JobStats("test")
    stats.map_input_bytes = map_input
    stats.map_output_bytes = shuffle
    stats.num_reducers = reducers
    stats.map_store_bytes = map_store
    stats.reduce_store_bytes = reduce_store
    if map_store:
        stats.num_map_side_stores = 1
    if reduce_store:
        stats.num_reduce_side_stores = 1
    for kind, stage, records, nbytes in charges:
        stats.charge_op(kind, stage, records, nbytes)
    return stats


class TestClusterConfig:
    def test_paper_topology_defaults(self):
        cluster = ClusterConfig()
        assert cluster.num_workers == 14
        assert cluster.map_capacity == 56
        assert cluster.reduce_capacity == 28

    def test_rejects_bad_values(self):
        with pytest.raises(ExecutionError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ExecutionError):
            ClusterConfig(map_slots_per_worker=0)


class TestEquation2:
    def test_breakdown_components_sum(self):
        breakdown = CostBreakdown(1, 2, 3, 4, 5, 10, 2)
        assert breakdown.total == 15

    def test_map_only_job_has_no_sort(self):
        model = CostModel()
        breakdown = model.job_time(stats_with(map_input=100 * MB))
        assert breakdown.t_sort == 0
        assert breakdown.t_load > 0

    def test_load_time_linear_in_input(self):
        model = CostModel()
        small = model.job_time(stats_with(map_input=100 * GB)).t_load
        large = model.job_time(stats_with(map_input=200 * GB)).t_load
        assert large == pytest.approx(2 * small)

    def test_scale_multiplies_bytes(self):
        config = CostModelConfig(scale=10.0)
        scaled = CostModel(config).job_time(stats_with(map_input=10 * GB))
        plain = CostModel(CostModelConfig()).job_time(stats_with(map_input=100 * GB))
        assert scaled.t_load == pytest.approx(plain.t_load)

    def test_store_cost_includes_replication(self):
        replicated = CostModel(CostModelConfig(replication=3))
        single = CostModel(CostModelConfig(replication=1))
        stats = stats_with(reduce_store=10 * GB, reducers=10)
        t3 = replicated.job_time(stats).t_store
        t1 = single.job_time(stats).t_store
        # Fixed per-store overhead aside, the byte term scales 3x.
        fixed = replicated.config.store_file_overhead_sec
        assert (t3 - fixed) == pytest.approx(3 * (t1 - fixed))

    def test_few_reducers_slow_the_store(self):
        model = CostModel()
        few = model.job_time(stats_with(reduce_store=10 * GB, reducers=2))
        many = model.job_time(stats_with(reduce_store=10 * GB, reducers=28))
        assert few.t_store > many.t_store

    def test_op_charges_priced_by_kind(self):
        # Same bytes, same concurrency: the expensive operator costs more.
        model = CostModel()
        join = model.job_time(stats_with(
            map_input=100 * GB,
            charges=[("join", "map", 1000, 1 * GB)]))
        union = model.job_time(stats_with(
            map_input=100 * GB,
            charges=[("union", "map", 1000, 1 * GB)]))
        assert join.t_ops > union.t_ops

    def test_startup_grows_with_waves(self):
        model = CostModel()
        one_wave = model.job_time(stats_with(map_input=1 * GB))
        many_waves = model.job_time(stats_with(map_input=500 * GB))
        assert many_waves.t_startup > one_wave.t_startup
        assert many_waves.num_map_tasks > one_wave.num_map_tasks

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ExecutionError):
            CostModelConfig(scale=0)

    def test_with_scale_preserves_other_knobs(self):
        config = CostModelConfig(read_bytes_per_sec=99, replication=2)
        clone = config.with_scale(7.5)
        assert clone.scale == 7.5
        assert clone.read_bytes_per_sec == 99
        assert clone.replication == 2


class TestReducerChoice:
    def test_parallel_hint_wins(self):
        model = CostModel()
        assert model.choose_num_reducers(100 * GB, parallel=40) == 28  # capped
        assert model.choose_num_reducers(100 * GB, parallel=5) == 5

    def test_sized_by_shuffle_volume(self):
        model = CostModel()
        assert model.choose_num_reducers(0) == 1
        assert model.choose_num_reducers(10 * GB) > 1

    def test_capped_at_cluster_capacity(self):
        model = CostModel()
        assert model.choose_num_reducers(10_000 * GB) == 28

    def test_scale_affects_choice(self):
        scaled = CostModel(CostModelConfig(scale=1000.0))
        plain = CostModel()
        assert scaled.choose_num_reducers(1 * GB) > plain.choose_num_reducers(1 * GB)


class TestLoadEstimate:
    def test_monotone_in_bytes(self):
        model = CostModel()
        assert model.estimate_load_time(10 * GB) < model.estimate_load_time(100 * GB)

    def test_has_startup_floor(self):
        model = CostModel()
        assert model.estimate_load_time(0) >= model.config.job_startup_sec


class TestJobStatsMerge:
    def test_merge_accumulates(self):
        a = stats_with(map_input=100, shuffle=10,
                       charges=[("join", "reduce", 5, 50)])
        b = stats_with(map_input=200, shuffle=20,
                       charges=[("join", "reduce", 7, 70)])
        a.merge(b)
        assert a.map_input_bytes == 300
        assert a.map_output_bytes == 30
        assert a.op_charges[("join", "reduce")] == [12, 120]

    def test_summary_mentions_key_counters(self):
        stats = stats_with(map_input=100)
        assert "in=100B" in stats.summary()

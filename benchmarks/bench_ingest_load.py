"""Async ingest under load: submit latency must stay flat (PR 8).

The scenario the ingest front-end exists for: registrations arrive
faster than the registrar drains them. Inline registration would put
the clone + dedup + index-insert + sweep on every submitter's critical
path; async registration makes the submit-side cost one bounded-queue
append, whatever the backlog. The enforced bar: with **>= 1000
registrations queued** and the registrar actively catching up, the p99
submit (enqueue) latency is **<= 1.5x** the single-submitter baseline
measured against an empty queue.

Methodology notes (this is a GIL-bound process, so the measurement is
arranged to isolate the enqueue path):

* both the baseline and the loaded probes are timed on the main thread
  — the comparison is empty-queue vs deep-queue, not
  thread-scheduling noise;
* the backlog is built with the registrar paused, probes are timed
  right after resume, and the queue depth is re-checked *after* the
  probe window so every timed put demonstrably ran against >= 1000
  queued records with the drain running;
* the GC is disabled inside the timed windows and each phase keeps the
  best of 3 passes, mirroring the repo's other contention benchmarks.

Every record is applied by the real manager sink (clone, dedup,
insert into an 8-shard repository, grouped flushes), and the run ends
with a drained queue and every distinct plan registered — throughput
is deferred, never dropped.
"""

import gc
import time

import pytest

from repro import PigSystem
from repro.harness.reporting import ExperimentResult
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import ReStoreReport, ShardedRepository
from repro.restore.ingest import RegistrationRecord
from repro.restore.persistence import SkeletonOp

_SHARDS = 8
_POOL = 64            # distinct load paths (shard + leaf-index spread)
_BASELINE = 300       # single-submitter puts per pass, empty queue
_BACKLOG = 1600       # records queued before each loaded pass
_PROBES = 200         # timed puts per pass while the backlog drains
_PASSES = 3           # best-of-3 per phase
_REQUIRED_DEPTH = 1000
_LATENCY_BAR = 1.5


def _fabricated_record(index, report):
    """A distinct single-chain registration (the bench_ablation idiom):
    unique filter predicate per record, load paths drawn from a small
    pool so the shard hash and leaf-load index both have real work."""
    load = POLoad(f"/data/d{index % _POOL}", None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", [load])
    plan = PhysicalPlan([POStore(chain, f"/stored/s{index}")])
    return RegistrationRecord(
        job_plan=plan, frontier_op=chain,
        output_path=f"/stored/s{index}", owns_file=False,
        origin="whole-job", report=report,
        input_bytes=1000 + (index % 7) * 500,
        output_bytes=10 + (index % 5) * 30,
        producing_job_time=1.0 + (index % 11),
        map_time=0.5, reduce_time=0.5, created_tick=1)


def _percentile(samples, fraction):
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered)) - 1))
    return ordered[rank]


def _timed_puts(ingest, records):
    """Enqueue each record, returning per-put seconds (GC parked)."""
    samples = []
    gc.collect()
    gc.disable()
    try:
        for record in records:
            start = time.perf_counter()
            ingest.submit(record)
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return samples


@pytest.mark.benchmark(group="ablation-ingest")
def test_submit_latency_flat_under_backlog(benchmark, record_experiment):
    """The acceptance bar for PR 8: enqueue p99 with >= 1000 records
    queued (registrar draining) <= 1.5x the empty-queue baseline."""
    system = PigSystem()
    manager = system.restore(
        repository=ShardedRepository(num_shards=_SHARDS, executor="serial"),
        heuristic=None, ingest="async", ingest_queue_size=1 << 16,
        ingest_batch_size=64)
    report = ReStoreReport("bench-ingest")
    total = _PASSES * (_BASELINE + _BACKLOG + _PROBES)
    records = iter([_fabricated_record(index, report)
                    for index in range(total)])
    ingest = manager._ingest
    registrar = ingest.registrar

    def take(count):
        return [next(records) for _ in range(count)]

    def measure():
        phases = {"single": [], "loaded": []}
        depths = []
        for _ in range(_PASSES):
            # Baseline: one submitter, empty queue, registrar running.
            ingest.flush()
            phases["single"].append(_timed_puts(ingest, take(_BASELINE)))
            # Load: build the backlog with the registrar paused, then
            # time the probes while it catches up.
            registrar.pause()
            for record in take(_BACKLOG):
                ingest.submit(record)
            registrar.resume()
            probes = _timed_puts(ingest, take(_PROBES))
            depth_after = len(ingest.queue)
            depths.append(depth_after)
            phases["loaded"].append(probes)
        return phases, depths

    (phases, depths), _ = benchmark.pedantic(
        lambda: (measure(), manager.flush()), rounds=1, iterations=1)

    # Every loaded pass demonstrably probed a deep queue: the depth
    # *after* the probe window still exceeded the floor, so each timed
    # put ran against >= _REQUIRED_DEPTH queued records mid-drain.
    assert min(depths) >= _REQUIRED_DEPTH, depths
    assert ingest.stats.max_queue_depth >= _REQUIRED_DEPTH

    single_p99 = min(_percentile(passes, 0.99)
                     for passes in phases["single"])
    loaded_p99 = min(_percentile(passes, 0.99)
                     for passes in phases["loaded"])
    single_p50 = min(_percentile(passes, 0.50)
                     for passes in phases["single"])
    loaded_p50 = min(_percentile(passes, 0.50)
                     for passes in phases["loaded"])
    ratio = loaded_p99 / max(single_p99, 1e-9)

    # Deferred, never dropped: every distinct fabricated plan ended up
    # registered once the queue drained.
    assert len(manager.repository) == total
    assert ingest.stats.applied == total
    assert ingest.stats.rejected == 0
    drain_p99 = ingest.stats.drain_p99
    batches = ingest.stats.batches
    manager.close()

    record_experiment(ExperimentResult(
        "ablation_ingest",
        f"Async ingest submit latency, empty queue vs >= "
        f"{_REQUIRED_DEPTH}-record backlog ({total} registrations, "
        f"{_SHARDS}-shard repository, batch=64, best of {_PASSES})",
        ["arm", "p50_us", "p99_us", "vs_single_p99"],
        [
            {"arm": "single submitter (empty queue)",
             "p50_us": round(single_p50 * 1e6, 2),
             "p99_us": round(single_p99 * 1e6, 2),
             "vs_single_p99": 1.0},
            {"arm": f"probe under >= {_REQUIRED_DEPTH} backlog "
                    f"(registrar draining)",
             "p50_us": round(loaded_p50 * 1e6, 2),
             "p99_us": round(loaded_p99 * 1e6, 2),
             "vs_single_p99": round(ratio, 2)},
        ],
        notes=[
            "submit cost is one bounded-queue append — independent of "
            "queue depth and of the clone/dedup/insert work behind it",
            f"loaded vs single p99: {ratio:.2f}x (bar <= "
            f"{_LATENCY_BAR}x); min probe-window depth "
            f"{min(depths)}; drain p99 "
            f"{(drain_p99 or 0) * 1e3:.2f}ms over {batches} batch(es)",
        ],
    ))
    assert ratio <= _LATENCY_BAR, (
        f"submit p99 must stay flat under a {_REQUIRED_DEPTH}+ backlog, "
        f"got {ratio:.2f}x (single {single_p99 * 1e6:.1f}us, "
        f"loaded {loaded_p99 * 1e6:.1f}us)"
    )

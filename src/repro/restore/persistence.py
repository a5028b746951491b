"""Repository persistence: survive a ReStore restart.

The paper's repository is durable state ("Facebook stores the result of
any query ... for seven days"); this module saves/loads it through the
DFS itself.

Plan matching needs only operator **signatures and DAG structure** — not
executable closures — so entries are serialized as *skeleton plans*: one
record per operator carrying its kind, canonical signature, schema, and
input edges. A reloaded repository matches and rewrites exactly like the
original (rewriting takes its schema from the *input* plan's frontier, so
skeletons never need to execute). Statistics, input versions, ownership,
provenance, and the plan fingerprint round-trip too; Load records are
rebuilt as real :class:`~repro.physical.operators.POLoad` operators (the
path and version are recovered from the canonical signature) so a
reloaded repository rebuilds its leaf-load and fingerprint indexes
identically to the original's.

File formats (spec in ``docs/ARCHITECTURE.md``):

* **v1 (legacy, unsharded)** — one JSON entry record per line, in scan
  order. Written for plain :class:`Repository` instances; reloading by
  sequential insert reproduces the scan order exactly (the order is a
  pure function of the entry set with ties broken by insertion
  sequence).

* **v2 (sharded)** — a **manifest** header line
  (``{"restore-manifest": 2, "num_shards": N, "sections": [...]}``)
  followed by one JSONL **section per shard** (catch-all shard id
  ``-1``). Each section line wraps an entry record with its global scan
  ``position`` so the loader can re-insert in the original global
  priority order even though the file is grouped by shard.

* **v3 (incremental, legacy)** — a **snapshot** in the v2 sectioned
  shape (the manifest says ``"restore-manifest": 3`` and additionally
  points at a sibling **append-only change log** via
  ``"log"``/``"base_seq"``; each body record also carries the entry's
  stable log ``key``). The log holds one JSONL record per mutation
  (insert / remove / use-stamp), tagged with a monotonic sequence
  number and the owning shard id; the loader replays snapshot-then-log,
  skipping records at or below the snapshot's ``base_seq`` and
  tolerating a torn final log line (a crash mid-append drops the
  partial record instead of failing the restart). Still written by
  :func:`save_snapshot` and fully loadable, but
  :class:`~repro.restore.wal.RepositoryLog` now writes v4.

* **v4 (segmented, legacy)** — the incremental format partitioned along
  the shard layout. The file at ``path`` holds only the **manifest**:
  the global scan order (stable key + tie-break sequence per entry,
  valid at the manifest's ``last_seq``) and one descriptor per partition
  pointing at that shard's immutable, generation-suffixed snapshot
  **section file** and its append-only **segment file**, with a
  per-section ``base_seq`` watermark. Each shard appends and compacts
  independently: a compaction rewrites only the sections of *dirty*
  shards (new generation files), re-points the manifest, and truncates
  just those shards' segments — clean sections are reused at the file
  level.

* **v5 (order-delta)** — what
  :class:`~repro.restore.wal.RepositoryLog` writes: v4's sections and
  segments, but the manifest no longer embeds the full scan order (the
  one remaining O(repository) write per compaction). Instead it points
  at an append-only **order log** (``order_log``/``order_gen``): full
  order records on (re)base, per-compaction **deltas** (keys removed,
  keys spliced in at recorded positions) otherwise. The loader
  reconstructs the order by replaying the log up to the manifest's
  ``order_gen`` — later records are orphans from a crashed compaction
  and are skipped, counted, and healed on the next attach. The full
  spec lives in ``docs/PERSISTENCE.md``.

``load_repository`` sniffs the format: a v2-v5 manifest loads into
a :class:`~repro.restore.sharding.ShardedRepository` of the manifest's
shard count (a v3/v4 snapshot of an unsharded repository says
``num_shards: 0`` and loads into a plain :class:`Repository`), a v1
file into a plain :class:`Repository` — unless the caller passes an
explicit ``repository`` target, which is how a pre-shard v1 file
migrates into a sharded deployment (the shard layout is recomputed from
the stable load-key hash, so no rewrite is needed). Whatever the
format, the loader attaches a :class:`LoaderReport` to the returned
repository (``repository.loader_report``) with its counters — replayed
/ stale / dangling log records, torn-tail drops, and saved-fingerprint
mismatches — and the replay state a
:class:`~repro.restore.wal.RepositoryLog` needs to resume appending.
"""

import gc
import json
import warnings

from repro.common.errors import RepositoryError
from repro.data.schema import Field, Schema
from repro.data.types import DataType
from repro.physical.operators import PhysOp, POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore.index import parse_load_signature
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.sharding import ShardedRepository
from repro.restore.stats import EntryStats


class SkeletonOp(PhysOp):
    """A deserialized operator: fixed signature, no executable payload."""

    def __init__(self, kind, signature, schema, inputs):
        super().__init__(inputs, schema)
        self.kind = kind
        self._signature = signature

    def signature(self):
        return self._signature

    def copy_with_inputs(self, inputs):
        return self._carry(
            SkeletonOp(self.kind, self._signature, self.schema, list(inputs))
        )


# --- Schema (de)serialization ---------------------------------------------------


def schema_to_json(schema):
    if schema is None:
        return None
    return [
        {
            "name": field.name,
            "dtype": field.dtype.value,
            "element": schema_to_json(field.element),
        }
        for field in schema.fields
    ]


def schema_from_json(data):
    if data is None:
        return None
    fields = [
        Field(item["name"], DataType(item["dtype"]),
              schema_from_json(item["element"]))
        for item in data
    ]
    return Schema(fields)


# --- Plan (de)serialization -----------------------------------------------------


def plan_to_json(plan):
    """Topologically-ordered operator records with input indices."""
    operators = plan.operators()
    index = {id(op): position for position, op in enumerate(operators)}
    records = []
    for op in operators:
        records.append(
            {
                "kind": op.kind,
                "signature": op.signature(),
                "schema": schema_to_json(op.schema),
                "inputs": [index[id(parent)] for parent in op.inputs],
                "store_path": op.path if isinstance(op, POStore) else None,
            }
        )
    return records


def plan_from_json(records):
    operators = []
    for record in records:
        inputs = [operators[i] for i in record["inputs"]]
        if record["store_path"] is not None:
            op = POStore(inputs[0], record["store_path"])
        else:
            op = _operator_from_record(record, inputs)
        operators.append(op)
    sinks = [op for op in operators if isinstance(op, POStore)]
    if len(sinks) != 1:
        raise RepositoryError(
            f"a serialized entry plan must have exactly one Store, got {len(sinks)}"
        )
    return PhysicalPlan(sinks)


def _operator_from_record(record, inputs):
    """Rebuild one non-Store operator.

    Loads come back as real POLoads (path/version recovered from the
    canonical signature) so the repository's leaf-load index can key a
    reloaded entry exactly as it keyed the original; everything else is a
    signature-preserving skeleton.
    """
    if record["kind"] == "load" and not inputs:
        parsed = parse_load_signature(record["signature"])
        if parsed is not None:
            path, version = parsed
            return POLoad(path, schema_from_json(record["schema"]), version)
    return SkeletonOp(record["kind"], record["signature"],
                      schema_from_json(record["schema"]), inputs)


# --- Repository (de)serialization ---------------------------------------------------


def entry_to_json(entry):
    """One entry as a JSON-able dict — the ``entry`` payload of section
    records. Every field except three is fixed at insert time, which is
    what lets a shard worker serialize its *own* replica under
    worker-owned compaction and still emit exactly the bytes the
    front-end would: the mutable pair (``use_count``,
    ``last_used_tick``) and ``sequence`` (which :func:`entry_from_json`
    deliberately does not restore — it is minted per process) are
    patched in from compact-time coordinator state riding the request
    (see :meth:`~repro.restore.service.ShardWorkerState.write_section`),
    so replica staleness in those fields cannot reach the durable
    bytes."""
    stats = entry.stats
    return {
        "plan": plan_to_json(entry.plan),
        "fingerprint": entry.fingerprint,
        # The insertion sequence is the scan order's final tie-break.
        # It must round-trip: re-insertion mints sequences in scan-
        # position order, but a subsumption-edge-constrained scan order
        # can invert metric-tied entries relative to insertion order —
        # a post-reload recompute would then break those ties
        # differently than the live repository.
        "sequence": getattr(entry, "_sequence", None),
        "output_path": entry.output_path,
        "input_versions": entry.input_versions,
        "owns_file": entry.owns_file,
        "origin": entry.origin,
        "stats": {
            "input_bytes": stats.input_bytes,
            "output_bytes": stats.output_bytes,
            "producing_job_time": stats.producing_job_time,
            "map_time": stats.map_time,
            "reduce_time": stats.reduce_time,
            "created_tick": stats.created_tick,
            "last_used_tick": stats.last_used_tick,
            "use_count": stats.use_count,
        },
    }


def entry_from_json(data, report=None):
    raw = data["stats"]
    stats = EntryStats(
        raw["input_bytes"], raw["output_bytes"], raw["producing_job_time"],
        map_time=raw["map_time"], reduce_time=raw["reduce_time"],
        created_tick=raw["created_tick"],
    )
    stats.last_used_tick = raw["last_used_tick"]
    stats.use_count = raw["use_count"]
    entry = RepositoryEntry(
        plan_from_json(data["plan"]),
        data["output_path"],
        stats,
        input_versions=data["input_versions"],
        owns_file=data["owns_file"],
        origin=data["origin"],
    )
    # The saved fingerprint is derivable state: the plan round-trips its
    # signatures, so the recomputed hash is authoritative. A stale saved
    # value (e.g. after a signature-canonicalization change in a newer
    # release) must not brick the restart — the recomputed fingerprint
    # wins, and the repository re-indexes with it. But the drift itself
    # must be observable, not invisible: verify the saved value and
    # surface mismatches through the loader counter and a warning.
    saved_fingerprint = data.get("fingerprint")
    if saved_fingerprint is not None and saved_fingerprint != entry.fingerprint:
        if report is not None:
            # Count only: the loader emits one aggregated warning at the
            # end (a drift hits every entry of a large repository at
            # once) through a path that cannot brick the restart.
            report.fingerprint_mismatches += 1
        else:
            warnings.warn(
                f"saved fingerprint for entry {entry.output_path!r} does "
                f"not match the recomputed one (signature "
                f"canonicalization drift since the save?); the "
                f"recomputed value wins",
                RuntimeWarning, stacklevel=2)
    return entry


DEFAULT_REPOSITORY_PATH = "/restore/repository.jsonl"

#: manifest marker key; its value is the format version
MANIFEST_KEY = "restore-manifest"
MANIFEST_VERSION = 2
#: the single-file incremental snapshot+log format (legacy; still
#: written by save_snapshot and fully loadable)
LOG_MANIFEST_VERSION = 3
#: the segmented format: per-shard section + segment files coordinated
#: through the manifest; its manifest embeds the full global scan order
#: (legacy — still fully loadable)
SEGMENT_MANIFEST_VERSION = 4
#: the order-delta format (what RepositoryLog writes): v4's sections and
#: segments, but the global scan order lives in a sibling append-only
#: **order log** — full records on (re)base, per-compaction deltas
#: otherwise — so a dirty-shard compaction writes O(changes), never the
#: O(repository) full order
DELTA_MANIFEST_VERSION = 5

#: section/segment file name of the catch-all partition (and of a plain
#: repository, whose single partition is the catch-all)
CATCHALL_LABEL = "catchall"


def shard_label(shard_id):
    """The file-name label of one partition: ``"0"``, ``"1"``, … for
    regular shards, :data:`CATCHALL_LABEL` for the catch-all (sharded
    id ``-1``) and for a plain repository's single partition (``None``).
    """
    if shard_id is None or shard_id < 0:
        return CATCHALL_LABEL
    return str(shard_id)


def section_file_path(path, label, generation):
    """The immutable v4 section file for one partition: generation-
    suffixed so a dirty-shard compaction writes a *new* file and
    re-points the manifest instead of overwriting in place (a crash
    between the two leaves the old manifest's files intact)."""
    return f"{path}.sec-{label}.g{generation}"


def section_file_prefix(path):
    """Every v4 section file of ``path`` starts with this prefix —
    compaction garbage-collects unreferenced generations under it."""
    return f"{path}.sec-"


def segment_file_path(log_base, label):
    """The append-only v4 segment file of one partition, derived from
    the manifest's ``log`` base path (default ``<path>.log``)."""
    return f"{log_base}.{label}"


def order_log_path(path, generation):
    """The v5 order-log file: generation-suffixed like section files, so
    a rebase writes a *new* file and re-points the manifest instead of
    rewriting the referenced one in place (a crash in between leaves the
    old manifest's order log intact)."""
    return f"{path}.order.g{generation}"


def order_log_prefix(path):
    """Every v5 order-log file of ``path`` starts with this prefix —
    compaction garbage-collects unreferenced generations under it."""
    return f"{path}.order.g"


def encode_order_delta(old_order, new_order):
    """The v5 order-delta between two recorded scan orders, or None.

    Both orders are ``[[key, sequence], ...]``. The delta says which
    keys left and where new keys were spliced in
    (``[key, sequence, position]`` with ``position`` indexing the *new*
    order, ascending); it is only expressible when the surviving
    entries kept their relative order and tie-break sequences — the
    overwhelmingly common case, since scan-order recomputation preserves
    the relative order of untouched entries. When survivors moved (e.g.
    a use-stamp re-ranked entries under a non-greedy history) the writer
    falls back to a full order record, signalled here by None.
    """
    new_keys = {key for key, _ in new_order}
    old_keys = {key for key, _ in old_order}
    old_survivors = [(key, seq) for key, seq in old_order if key in new_keys]
    new_survivors = [(key, seq) for key, seq in new_order if key in old_keys]
    if old_survivors != new_survivors:
        return None
    removed = [key for key, _ in old_order if key not in new_keys]
    inserted = [[key, seq, position]
                for position, (key, seq) in enumerate(new_order)
                if key not in old_keys]
    return {"removed": removed, "inserted": inserted}


def apply_order_delta(order, record):
    """Apply one v5 order-delta record to a reconstructed order.

    Removals first, then splices at their recorded positions in
    ascending order — each position indexes the final order, and because
    earlier splices land at strictly smaller positions, inserting
    sequentially reproduces it exactly.
    """
    removed = set(record.get("removed", ()))
    result = [[key, seq] for key, seq in order if key not in removed]
    for item in record.get("inserted", ()):
        key, seq, position = item
        if not 0 <= position <= len(result):
            raise RepositoryError(
                f"corrupt order-delta record: splice position "
                f"{position} outside the reconstructed order "
                f"(length {len(result)})")
        result.insert(position, [key, seq])
    return result


class LoaderReport:
    """What ``load_repository`` observed while rebuilding a repository.

    Attached to every returned repository as ``loader_report``. The
    counters make restart anomalies observable instead of silent —
    ``fingerprint_mismatches`` flags signature-canonicalization drift
    between the saving and loading release, ``torn_tail_dropped`` /
    ``stale_records`` / ``dangling_records`` account for every v3 log
    record that was not replayed — and ``last_seq`` / ``keys`` are the
    replay state a :class:`~repro.restore.wal.RepositoryLog` resumes
    from when it re-attaches after a restart.
    """

    def __init__(self, path, dfs=None):
        self.snapshot_path = path
        #: the filesystem the load read from — resume checks compare it
        #: by identity, so a report cannot vouch for a different DFS
        #: that merely shares the path string
        self.dfs = dfs
        self.format_version = None     # 1..4 (None: no file found)
        #: v3: the change-log file; v4: the segment *base* path (each
        #: partition's segment is ``<base>.<label>``)
        self.log_path = None
        self.entries_loaded = 0        # entries in the final repository
        self.log_records = 0           # lines found in the change log(s)
        self.replayed_records = 0      # log records applied
        self.stale_records = 0         # records at or below base_seq
        self.dangling_records = 0      # records whose target was gone
        self.torn_tail_dropped = 0     # partial final line from a crash
        self.orphaned_log_records = 0  # sibling log a v1/v2 load ignores
        self.fingerprint_mismatches = 0
        self.last_seq = 0              # highest sequence number seen
        self.keys = {}                 # entry_id -> stable log key (v3/v4)
        #: v4 resume state: manifest num_shards, plus one descriptor per
        #: partition label ({"shard", "file", "entries", "base_seq",
        #: "segment"}) and the count of complete records per segment —
        #: what a re-attaching RepositoryLog needs to keep appending and
        #: to reuse clean sections at the next compaction.
        self.num_shards = None
        self.section_state = {}        # label -> section descriptor
        self.segment_records = {}      # label -> complete records
        #: v5 resume state: the order-log file the manifest points at,
        #: its authoritative generation, the reconstructed recorded
        #: order at that generation ([[key, seq], ...]), how many
        #: applicable records the log held (the writer's rebase
        #: counter), and how many records were *orphaned* — complete
        #: records above ``order_gen``, left by a compaction that
        #: crashed before its manifest swap. Orphans are never applied;
        #: a re-attaching RepositoryLog heals them with a full rebase.
        self.order_log_path = None
        self.order_gen = 0
        self.order_records = 0
        self.orphan_order_records = 0
        self.recorded_order = None
        #: (use_count, last_used_tick) per entry at load time — lets a
        #: re-attaching RepositoryLog detect use-stamps applied between
        #: load and attach (which its listener never saw) and heal with
        #: a compaction instead of silently losing them.
        self.use_stats = {}
        # The replay state (last_seq/keys) is only valid until the first
        # RepositoryLog attaches — it describes the repository *as
        # loaded*, not as later mutated — so attach() consumes it.
        self.replay_state_consumed = False

    def as_dict(self):
        return {
            "snapshot_path": self.snapshot_path,
            "format_version": self.format_version,
            "log_path": self.log_path,
            "entries_loaded": self.entries_loaded,
            "log_records": self.log_records,
            "replayed_records": self.replayed_records,
            "stale_records": self.stale_records,
            "dangling_records": self.dangling_records,
            "torn_tail_dropped": self.torn_tail_dropped,
            "orphaned_log_records": self.orphaned_log_records,
            "orphan_order_records": self.orphan_order_records,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "last_seq": self.last_seq,
        }

    def describe(self):
        return (
            f"loaded {self.entries_loaded} entr(ies) from "
            f"{self.snapshot_path!r} (format v{self.format_version}): "
            f"{self.replayed_records} log record(s) replayed, "
            f"{self.stale_records} stale, {self.dangling_records} dangling, "
            f"{self.torn_tail_dropped} torn-tail dropped, "
            f"{self.fingerprint_mismatches} fingerprint mismatch(es)"
        )

    def __repr__(self):
        return f"LoaderReport({self.describe()})"


def save_repository(repository, dfs, path=DEFAULT_REPOSITORY_PATH,
                    ranker=None):
    """Persist the repository through the DFS.

    A plain :class:`Repository` is written in the v1 single-file format
    (one entry record per line, scan order); a
    :class:`~repro.restore.sharding.ShardedRepository` is written in the
    v2 format: a manifest header followed by per-shard sections whose
    lines carry each entry's global scan position.

    ``ranker`` (a :class:`~repro.restore.ranking.CandidateRanker` or its
    name) is recorded in the v2 manifest as deployment metadata — a
    restarted service can see which candidate ranking the saved
    repository was operated under. It does not affect the entries
    themselves (ranking reorders probes, never state), and the v1 format
    has no header to carry it.

    A full save is the authoritative state: any change log the file
    being overwritten pointed at — plus the conventional ``<path>.log``
    sibling — is subsumed and deleted, because the v1/v2 manifest
    carries no log pointer and leaving a log behind would strand records
    the loader never replays. Records checkpointed *after* this save go
    to a log the saved file cannot reference; the loader flags the
    conventional sibling loudly, custom log paths only until this save
    erases their pointer — prefer :class:`~repro.restore.wal.RepositoryLog`
    compaction over mixing both APIs on one path.
    """
    stale_logs = _pointed_log_paths(dfs, path)
    ranker_name = getattr(ranker, "name", ranker)
    if isinstance(repository, ShardedRepository):
        status = _save_sharded(repository, dfs, path, ranker_name)
    else:
        lines = [json.dumps(entry_to_json(entry), sort_keys=True)
                 for entry in repository.scan()]
        status = dfs.write_lines(path, lines, overwrite=True)
    for stale in stale_logs:
        dfs.delete_if_exists(stale)
    return status


def _pointed_log_paths(dfs, path):
    """Durable files a full save at ``path`` supersedes: the
    conventional sibling log, whatever log the v3 manifest being
    overwritten points at (it may be custom), and — for a v4 manifest —
    every section, segment and order-log file it references, plus
    orphaned section/order-log generations under the conventional
    prefixes (crash leftovers)."""
    log_paths = {f"{path}.log"}
    manifest = read_manifest_line(dfs, path)
    if manifest is not None:
        for field in ("log", "order_log"):
            if isinstance(manifest.get(field), str):
                log_paths.add(manifest[field])
        for section in manifest.get("sections", ()):
            if not isinstance(section, dict):
                continue
            for field in ("file", "segment"):
                if isinstance(section.get(field), str):
                    log_paths.add(section[field])
    log_paths.update(dfs.list_files(prefix=section_file_prefix(path)))
    log_paths.update(dfs.list_files(prefix=order_log_prefix(path)))
    log_paths.discard(path)
    return log_paths


def read_manifest_line(dfs, path):
    """The manifest dict on ``path``'s first line, or None (missing or
    empty file, unparseable first line, or a v1 file with no manifest).

    Reads only the file's first block — line 0 always lives there — so
    sniffing the format of a large snapshot costs O(block), not O(file).
    """
    if not dfs.exists(path):
        return None
    lines = dfs.read_block_lines(path, 0)
    if not lines:
        return None
    try:
        first = json.loads(lines[0])
    except ValueError:
        return None
    if isinstance(first, dict) and MANIFEST_KEY in first:
        return first
    return None


def _sectioned_body(repository, keys=None):
    """``(sections, body_lines)``: entries grouped by owning partition,
    each line carrying the entry's global scan position (and, when
    ``keys`` is given — the v3 snapshot — its stable change-log key)."""
    positions = {entry.entry_id: position
                 for position, entry in enumerate(repository.scan())}
    if isinstance(repository, ShardedRepository):
        groups = [(shard.shard_id,
                   sorted(shard, key=lambda entry: positions[entry.entry_id]))
                  for shard in repository.partitions()]
    else:
        # An unsharded repository is one partition (shard id null).
        groups = [(None, list(repository.scan()))]
    sections = []
    body = []
    for shard_id, members in groups:
        if not members:
            continue
        sections.append({"shard": shard_id, "entries": len(members)})
        for entry in members:
            record = {"position": positions[entry.entry_id],
                      "entry": entry_to_json(entry)}
            if keys is not None:
                record["key"] = keys.get(entry.entry_id,
                                         f"s{positions[entry.entry_id]}")
            body.append(json.dumps(record, sort_keys=True))
    return sections, body


def _save_sharded(repository, dfs, path, ranker_name=None):
    sections, body = _sectioned_body(repository)
    header = {MANIFEST_KEY: MANIFEST_VERSION,
              "num_shards": repository.num_shards,
              "entries": len(repository),
              "sections": sections}
    if ranker_name is not None:
        header["ranker"] = ranker_name
    manifest = json.dumps(header, sort_keys=True)
    return dfs.write_lines(path, [manifest] + body, overwrite=True)


def save_snapshot(repository, dfs, path=DEFAULT_REPOSITORY_PATH,
                  log_path=None, base_seq=0, keys=None, ranker=None,
                  truncate_log=True):
    """Write a v3 snapshot: the sectioned v2 shape plus the change-log
    pointer (``log``/``base_seq``) and per-entry stable log keys.

    This is the compaction half of the incremental format — normally
    called by :meth:`~repro.restore.wal.RepositoryLog.compact`, which
    owns the key assignment and the sequence counter. Unlike
    :func:`save_repository` it writes the same format for sharded and
    unsharded repositories (an unsharded one records ``num_shards: 0``
    and a single null-shard section).

    The snapshot subsumes every change-log record up to ``base_seq``, so
    by default the log is truncated *after* the snapshot lands (the
    crash-safe order: a crash in between leaves only records the new
    ``base_seq`` marks stale). Without the truncation, a direct call
    with the default ``base_seq=0`` next to a non-empty log would make
    the loader replay records the snapshot already contains —
    duplicating entries. Pass ``truncate_log=False`` only when the
    caller manages the log file itself.
    """
    ranker_name = getattr(ranker, "name", ranker)
    if log_path is None:
        log_path = f"{path}.log"
    # A v3 snapshot is authoritative for everything the overwritten
    # manifest referenced: segment/section files of a v4 deployment at
    # this path are subsumed and must not linger (their records would be
    # invisible to the v3 loader).
    stale = _pointed_log_paths(dfs, path) - {log_path}
    sections, body = _sectioned_body(repository, keys=keys or {})
    header = {MANIFEST_KEY: LOG_MANIFEST_VERSION,
              "num_shards": getattr(repository, "num_shards", 0),
              "entries": len(repository),
              "sections": sections,
              "log": log_path,
              "base_seq": base_seq}
    if ranker_name is not None:
        header["ranker"] = ranker_name
    manifest = json.dumps(header, sort_keys=True)
    status = dfs.write_lines(path, [manifest] + body, overwrite=True)
    if truncate_log:
        dfs.write_lines(log_path, [], overwrite=True)
    for old in stale:
        dfs.delete_if_exists(old)
    return status


def load_repository(dfs, path=DEFAULT_REPOSITORY_PATH, repository=None):
    """Rebuild a repository from a saved file; missing file -> empty.

    ``repository`` is the target to load into. When omitted, the file
    format decides: a v2 manifest builds a
    :class:`~repro.restore.sharding.ShardedRepository` with the
    manifest's shard count, a v1 file builds a plain
    :class:`Repository`. Passing an explicit target migrates across
    formats in either direction — in particular, a pre-shard v1 file
    loads into a ``ShardedRepository`` with identical scan order and
    match decisions (the shard layout is a pure function of the entries'
    load keys).

    The cyclic garbage collector is suspended for the duration of the
    load (and put back as it was): a reload allocates tens of thousands
    of objects that all stay alive, so every collection it triggers
    walks a growing heap and frees nothing — and whether a full pass
    happened to land inside the load moved its time by a quarter from
    one run to the next. The switch is the interpreter's, not this
    thread's: other threads (ingest, gateway) also run uncollected until
    the load returns, and cyclic garbage already on the heap stays there
    under the loaded repository until the next collection after it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_repository(dfs, path, repository)
    finally:
        if was_enabled:
            gc.enable()


def _load_repository(dfs, path, repository):
    report = LoaderReport(path, dfs)
    lines = dfs.read_lines(path) if dfs.exists(path) else []
    if not lines:
        repository = repository if repository is not None else Repository()
        repository.loader_report = report
        # The snapshot is gone (or empty) but change-log/segment files
        # are not: records there cannot be replayed without the
        # snapshot's manifest, and silence would hide the loss.
        report.orphaned_log_records = _orphaned_log_lines(dfs, path)
        if report.orphaned_log_records:
            _warn_unbrickable(
                f"no repository snapshot at {path!r}, but sibling "
                f"change-log file(s) hold "
                f"{report.orphaned_log_records} record(s) that cannot "
                f"be replayed without it; loading empty")
        return repository
    first = json.loads(lines[0])
    if isinstance(first, dict) and MANIFEST_KEY in first:
        version = first[MANIFEST_KEY]
        if version == MANIFEST_VERSION:
            repository = _load_sharded(first, lines[1:], repository, report)
        elif version == LOG_MANIFEST_VERSION:
            repository = _load_incremental(dfs, first, lines[1:], repository,
                                           report)
        elif version in (SEGMENT_MANIFEST_VERSION, DELTA_MANIFEST_VERSION):
            repository = _load_segmented(dfs, first, lines[1:], repository,
                                         report)
        else:
            raise RepositoryError(
                f"unsupported repository format version {version!r}")
        # Surface the manifest (format version, shard count, ranker
        # metadata) to the caller; harmless no-op on a plain Repository
        # target, which simply gains the attribute.
        repository.manifest_metadata = dict(first)
    else:
        report.format_version = 1
        if repository is None:
            repository = Repository()
        records = [json.loads(line) for line in lines]
        loaded = [repository.insert(entry_from_json(record, report))
                  for record in records]
        _restore_saved_order(repository, loaded,
                             [record.get("sequence") for record in records])
    report.entries_loaded = len(repository)
    repository.loader_report = report
    if report.format_version in (1, 2):
        # A v1/v2 manifest carries no log pointer, so non-empty sibling
        # change-log or segment files mean mutations were checkpointed
        # after the last full save — they cannot be replayed, and
        # silence here would hide the loss.
        report.orphaned_log_records = _orphaned_log_lines(dfs, path)
        if report.orphaned_log_records:
            _warn_unbrickable(
                f"found {report.orphaned_log_records} change-log "
                f"record(s) next to the v{report.format_version} "
                f"snapshot at {path!r}, which cannot reference them; "
                f"they were NOT replayed (mutations checkpointed after "
                f"the last full save are lost)")
    if report.fingerprint_mismatches:
        _warn_unbrickable(
            f"{report.fingerprint_mismatches} saved fingerprint(s) in "
            f"{path!r} did not match the recomputed ones (signature "
            f"canonicalization drift since the save?); recomputed "
            f"values won — see loader_report.fingerprint_mismatches")
    return repository


def _warn_unbrickable(message):
    """Warn loudly without ever bricking the restart: forces print-only
    so an escalating filter (``-W error``) cannot turn the documented
    recovery path into a load failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        # 4: this helper, _load_repository, load_repository, its caller.
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def _load_sharded(manifest, body, repository, report):
    report.format_version = MANIFEST_VERSION
    if repository is None:
        repository = ShardedRepository(num_shards=manifest["num_shards"])
    _load_snapshot_body(manifest, body, repository, report)
    return repository


def _load_snapshot_body(manifest, body, repository, report):
    """Insert a v2/v3 sectioned snapshot body into ``repository``.

    Sections group lines by shard; the saved global scan order is the
    recorded positions, so records are sorted by them before inserting,
    then the exact order and tie-break sequences are restored. Returns
    the stable-key map (``key`` -> entry; empty for v2 bodies, which
    carry no keys) for the caller's log replay.
    """
    expected = manifest.get("entries", len(body))
    if len(body) != expected:
        raise RepositoryError(
            f"repository snapshot truncated: manifest promises {expected} "
            f"entr(ies), file holds {len(body)}")
    records = [json.loads(line) for line in body]
    records.sort(key=lambda record: record["position"])
    by_key = {}
    loaded = []
    for record in records:
        entry = repository.insert(entry_from_json(record["entry"], report))
        loaded.append(entry)
        key = record.get("key")
        if key is not None:
            by_key[key] = entry
    # The snapshot order (and tie-break sequences) are the live history
    # at save time — possibly non-greedy after removals; restore them
    # exactly, so later mutations (incl. log replay) start from the same
    # state the live repository was in.
    _restore_saved_order(
        repository, loaded,
        [record["entry"].get("sequence") for record in records])
    return by_key


def _restore_saved_order(repository, loaded, sequences=None):
    """Pin the reloaded scan order — and insertion sequences — to the
    saved ones.

    Sequential insertion re-derives the *greedy* order of the entry set,
    but a repository saved after removals can legitimately be in a
    non-greedy order ("previous order minus the removed entries") — the
    recorded order is the live history and must win for the reload to be
    bit-identical. Likewise re-insertion mints tie-break sequences in
    scan-position order, while the live tie-break is *insertion* order;
    the saved sequences are restored so later order recomputes resolve
    metric ties exactly as the live repository would. No-op for targets
    without the primitives (the frozen seed baseline) or partial loads
    into a pre-populated repository.
    """
    if len(loaded) != len(repository):
        return
    force = getattr(repository, "force_scan_order", None)
    if force is not None:
        force(loaded)
    if (sequences is not None
            and all(sequence is not None for sequence in sequences)
            and len(set(sequences)) == len(sequences)):
        for entry, sequence in zip(loaded, sequences):
            entry._sequence = sequence
        repository._sequence = max(sequences, default=-1) + 1


def _load_incremental(dfs, manifest, body, repository, report):
    """Rebuild a v3 repository: snapshot first, then replay the change
    log past the snapshot's ``base_seq``."""
    report.format_version = LOG_MANIFEST_VERSION
    report.log_path = manifest.get("log")
    if repository is None:
        num_shards = manifest.get("num_shards", 0)
        repository = (ShardedRepository(num_shards=num_shards)
                      if num_shards >= 1 else Repository())
    # Log-replayed inserts mint fresh sequences above the snapshot's
    # restored maximum, preserving relative order (the live counter was
    # at least that high when they happened).
    by_key = _load_snapshot_body(manifest, body, repository, report)
    base_seq = manifest.get("base_seq", 0)
    report.last_seq = base_seq
    if report.log_path is not None and dfs.exists(report.log_path):
        _replay_log(dfs.read_lines(report.log_path), base_seq, repository,
                    by_key, report)
    report.keys = {entry.entry_id: key for key, entry in by_key.items()}
    report.use_stats = {
        entry.entry_id: (entry.stats.use_count, entry.stats.last_used_tick)
        for entry in by_key.values()}
    return repository


def _replay_log(lines, base_seq, repository, by_key, report):
    report.log_records = len(lines)
    for record in _parse_segment(lines, report.log_path, report):
        if record["seq"] <= base_seq:
            # Pre-compaction history: a crash between the snapshot
            # rewrite and the log truncation leaves the old records
            # behind; the snapshot already reflects them.
            report.stale_records += 1
            continue
        _apply_log_record(record, repository, by_key, report)
        report.last_seq = max(report.last_seq, record["seq"])


def _apply_log_record(record, repository, by_key, report):
    op = record["op"]
    if op == "insert":
        entry = repository.insert(entry_from_json(record["entry"], report))
        key = record.get("key")
        if key is not None:
            by_key[key] = entry
        report.replayed_records += 1
    elif op == "remove":
        if record.get("key") is None:
            # Legacy '"key": null' remove records (written for entries
            # that were never keyed, before the writer learned to skip
            # them) reference nothing durable by construction — they are
            # no-ops, not dangling anomalies.
            return
        entry = by_key.pop(record["key"], None)
        if entry is None:
            # The target is already gone (e.g. a duplicated record, or a
            # remove whose insert never made the log): count, don't die.
            report.dangling_records += 1
            return
        # No dfs argument: the live removal already deleted any owned
        # file — replay only restores the in-memory state.
        repository.remove(entry)
        report.replayed_records += 1
    elif op == "use":
        if record.get("key") is None:
            return  # legacy unkeyed use-stamp: a no-op, like the remove
        entry = by_key.get(record["key"])
        if entry is None:
            report.dangling_records += 1
            return
        # Use-stamps are absolute values, so replay is idempotent and a
        # record for an already-stamped entry converges to live state.
        entry.stats.use_count = record["use_count"]
        entry.stats.last_used_tick = record["last_used_tick"]
        report.replayed_records += 1
    else:
        # An op from a newer release: skip it rather than brick the
        # restart (the counter keeps it observable).
        report.dangling_records += 1


def _orphaned_log_lines(dfs, path):
    """Lines in change-log files next to ``path`` that a v1/v2 snapshot
    (or a missing one) cannot reference: the conventional v3 sibling
    plus every v4 segment file under its prefix."""
    sibling = f"{path}.log"
    files = set(dfs.list_files(prefix=f"{sibling}."))
    if dfs.exists(sibling):
        files.add(sibling)
    return sum(dfs.status(file).num_lines for file in sorted(files))


# --- The segmented (v4/v5) loader ------------------------------------------------


def _load_segmented(dfs, manifest, body, repository, report):
    """Rebuild a v4/v5 repository from per-shard section + segment files.

    The two formats differ only in where the recorded global scan order
    lives: embedded in the manifest (v4's ``order``) or reconstructed
    from the sibling order log (v5's ``order_log``/``order_gen`` — see
    :func:`_read_order_log` for the replay rule). Reconstruction runs in
    two phases around that recorded order (valid at the manifest's
    ``last_seq``):

    1. insert every section entry, then replay each segment's records
       with ``base_seq < seq <= last_seq`` merged across segments in
       global sequence order — this rebuilds exactly the entry set that
       was live when the manifest was written — and pin the scan order
       and tie-break sequences to the manifest's recorded ones;
    2. replay the remaining records (``seq > last_seq``) in sequence
       order, exactly like the v3 log replay.

    Records at or below a section's ``base_seq`` watermark are *stale*
    (a crash between that shard's section rewrite and its segment
    truncation leaves them behind); each segment independently tolerates
    a torn final line. Segments can therefore be read in any order — the
    per-record sequence numbers, not file order, define the replay.
    """
    report.format_version = manifest[MANIFEST_KEY]
    report.log_path = manifest.get("log")
    report.num_shards = manifest.get("num_shards", 0)
    if body:
        raise RepositoryError(
            f"a v{report.format_version} manifest file must hold only "
            f"the manifest line, found {len(body)} extra line(s)")
    if repository is None:
        repository = (ShardedRepository(num_shards=report.num_shards)
                      if report.num_shards >= 1 else Repository())
    # A partial load into a pre-populated explicit target cannot adopt
    # the manifest's global order (it is not a permutation of the union)
    # — mirror the v1-v3 loaders, which skip order restoration there.
    preexisting = len(repository)
    order_seq = manifest.get("last_seq", 0)
    # Sections: the compacted state of each partition, immutable files.
    section_records = []
    for section in manifest.get("sections", ()):
        label = shard_label(section.get("shard"))
        file = section.get("file")
        lines = (dfs.read_lines(file)
                 if file is not None and dfs.exists(file) else [])
        expected = section.get("entries", len(lines))
        if len(lines) != expected:
            raise RepositoryError(
                f"repository section {file!r} truncated: manifest "
                f"promises {expected} entr(ies), file holds {len(lines)}")
        section_records.extend(json.loads(line) for line in lines)
        report.section_state[label] = {
            "shard": section.get("shard"),
            "file": file,
            "entries": expected,
            "base_seq": section.get("base_seq", 0),
            "segment": section.get("segment"),
        }
    # Segments: parse each independently (torn tails are per-file),
    # classify every record against its section's watermark and the
    # manifest's order watermark, then merge by global sequence number.
    phase1, phase2 = [], []
    for label in sorted(report.section_state):
        state = report.section_state[label]
        segment = state.get("segment")
        lines = (dfs.read_lines(segment)
                 if segment is not None and dfs.exists(segment) else [])
        report.log_records += len(lines)
        records = _parse_segment(lines, segment, report)
        report.segment_records[label] = len(records)
        for record in records:
            if record["seq"] <= state["base_seq"]:
                report.stale_records += 1
            elif record["seq"] <= order_seq:
                phase1.append(record)
            else:
                phase2.append(record)
    # Phase 1: the repository as the manifest saw it. The insertion
    # order here is only a deterministic staging order (recorded
    # insertion sequence, a total key) — for a normal load the scan
    # order and tie-breaks are pinned from the manifest below; for a
    # partial load into a pre-populated target, where pinning is
    # skipped, it reproduces the original insertion history as closely
    # as the file allows.
    by_key = {}
    section_records.sort(key=lambda record:
                         record["entry"].get("sequence") or 0)
    for record in section_records:
        entry = repository.insert(entry_from_json(record["entry"], report))
        key = record.get("key")
        if key is not None:
            by_key[key] = entry
    phase1.sort(key=lambda record: record["seq"])
    for record in phase1:
        _apply_log_record(record, repository, by_key, report)
    if report.format_version == DELTA_MANIFEST_VERSION:
        order = _read_order_log(dfs, manifest.get("order_log"),
                                manifest.get("order_gen", 0), report)
    else:
        order = manifest.get("order", ())
    _force_recorded_order(repository, order, by_key,
                          partial=preexisting > 0)
    # Phase 2: everything appended since the manifest was written.
    phase2.sort(key=lambda record: record["seq"])
    report.last_seq = order_seq
    for record in phase2:
        _apply_log_record(record, repository, by_key, report)
        report.last_seq = max(report.last_seq, record["seq"])
    report.keys = {entry.entry_id: key for key, entry in by_key.items()}
    report.use_stats = {
        entry.entry_id: (entry.stats.use_count, entry.stats.last_used_tick)
        for entry in by_key.values()}
    return repository


def _parse_segment(lines, segment, report):
    """Complete records of one segment file, dropping a torn final line
    (a crash mid-append) and failing on mid-file corruption."""
    records = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict)
                and isinstance(record.get("seq"), int) and "op" in record):
            if index == last:
                report.torn_tail_dropped += 1
                break
            raise RepositoryError(
                f"corrupt repository segment {segment!r}: unreadable "
                f"record at line {index} is not the final line")
        records.append(record)
    return records


def _read_order_log(dfs, order_log, order_gen, report):
    """Reconstruct a v5 manifest's recorded scan order from its order
    log, applying the replay rule:

    * records are JSONL, each carrying its writing compaction's ``gen``:
      either a **full** order (``{"gen", "full": [[key, seq], ...]}`` —
      written on rebase) or a **delta** against the previous record's
      reconstruction (``{"gen", "removed", "inserted"}``);
    * a torn final line (a crash mid-append) is dropped, like a torn
      segment tail;
    * records with ``gen > order_gen`` are **orphans** — appended by a
      compaction that crashed before its manifest swap made them
      authoritative — and are *skipped*, never applied (they describe an
      order the manifest's sections do not match); the count lands on
      ``report.orphan_order_records`` so attach() can heal with a
      rebase;
    * the reconstruction is the latest applicable full record with every
      later applicable delta applied in file order.
    """
    report.order_log_path = order_log
    report.order_gen = order_gen
    lines = (dfs.read_lines(order_log)
             if order_log is not None and dfs.exists(order_log) else [])
    records = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict)
                and isinstance(record.get("gen"), int)
                and ("full" in record or "removed" in record
                     or "inserted" in record)):
            if index == last:
                report.torn_tail_dropped += 1
                break
            raise RepositoryError(
                f"corrupt repository order log {order_log!r}: unreadable "
                f"record at line {index} is not the final line")
        records.append(record)
    applicable = [record for record in records if record["gen"] <= order_gen]
    report.orphan_order_records = len(records) - len(applicable)
    report.order_records = len(applicable)
    base = None
    for index, record in enumerate(applicable):
        if "full" in record:
            base = index
    if base is None:
        if applicable:
            raise RepositoryError(
                f"corrupt repository order log {order_log!r}: delta "
                f"record(s) at or below generation {order_gen} with no "
                f"full base record")
        report.recorded_order = []
        return []
    order = [list(pair) for pair in applicable[base]["full"]]
    for record in applicable[base + 1:]:
        order = apply_order_delta(order, record)
    report.recorded_order = [list(pair) for pair in order]
    return order


def _force_recorded_order(repository, order, by_key, partial=False):
    """Pin the phase-1 state to the manifest's recorded scan order and
    tie-break sequences.

    ``order`` is ``[[key, sequence], ...]`` over every entry live when
    the manifest was written; after phase 1 the repository must hold
    exactly that set (the compaction protocol flushes every record at or
    below ``last_seq`` before the manifest lands), so a mismatch means
    the durable files are corrupt, not merely stale. ``partial`` marks a
    load into a pre-populated explicit target: the recorded order is
    not a permutation of the union, so — exactly like the v1-v3
    loaders' ``_restore_saved_order`` no-op — pinning is skipped (key
    resolution is still checked: the keys come from this file alone).
    """
    entries = []
    sequences = []
    for key, sequence in order:
        entry = by_key.get(key)
        if entry is None:
            raise RepositoryError(
                f"corrupt repository manifest: scan order references "
                f"key {key!r}, which no section or segment defines")
        entries.append(entry)
        sequences.append(sequence)
    if partial:
        return
    if len(entries) != len(repository):
        raise RepositoryError(
            f"corrupt repository manifest: scan order lists "
            f"{len(entries)} entr(ies), sections+segments rebuilt "
            f"{len(repository)}")
    if not entries:
        return
    for entry, sequence in zip(entries, sequences):
        entry._sequence = sequence
    repository._sequence = max(sequences) + 1
    repository.force_scan_order(entries)

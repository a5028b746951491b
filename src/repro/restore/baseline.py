"""The seed's linear-scan repository, frozen as a reference oracle.

This is a verbatim-behavior copy of the repository the reproduction
shipped with before indexing (PR 1): ``insert`` re-derives the partial
order with Kahn's algorithm over all entry pairs (O(n^2) containment
tests), ``find_equivalent`` walks every entry with a full
mutual-containment check, and ``match_candidates`` is simply the full
scan — the paper's sequential scan, taken literally.

It exists for two reasons:

* the property suite proves that the indexed
  :class:`repro.restore.Repository` produces *bit-identical* scan orders,
  equivalence lookups, and match/rewrite decisions on randomized workflow
  streams (the indexed rewrite is an optimization, not a semantic
  change);
* ``benchmarks/bench_ablation_repository.py`` measures the speedup the
  indexes buy, which is the flip side of the matching overhead the paper
  reports in Figs. 11/14.

Do not "improve" this module: its value is that it stays exactly what the
seed did, with one deliberate exception. The seed's ``remove`` kept the
previous order minus the removed entry, which is not the paper's order
of the remaining set when the entry held a dependent back; ``remove``
re-sorts, so the oracle is the Section 3 order of the *current* entry
set after every operation. It reuses
:class:`repro.restore.RepositoryEntry` — entries are plain records and
identical in both implementations, and both name an admitted entry after
its insertion sequence.
"""

from repro.common.errors import RepositoryError
from repro.restore.matcher import contains


class LinearScanRepository:
    """The seed's ordered collection of repository entries."""

    def __init__(self):
        self._entries = []
        self._sequence = 0
        self._subsumption_cache = {}

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def scan(self):
        """Entries in the order the matcher must try them."""
        return list(self._entries)

    def match_candidates(self, plan, digest=None):
        """The seed had no index: every entry is a candidate. ``digest``
        (the plan's, from a manager that looks candidates up by it) is
        accepted and ignored."""
        return self.scan()

    def entry(self, entry_id):
        for entry in self._entries:
            if entry.entry_id == entry_id:
                return entry
        raise RepositoryError(f"no entry {entry_id!r}")

    def total_stored_bytes(self):
        return sum(entry.stats.output_bytes for entry in self._entries)

    # Insertion ------------------------------------------------------------

    def insert(self, entry):
        entry._sequence = self._sequence
        entry.entry_id = f"e{entry._sequence}"
        self._sequence += 1
        self._entries.append(entry)
        self._resort()
        return entry

    def _subsumes(self, a, b):
        key = (a.entry_id, b.entry_id)
        cached = self._subsumption_cache.get(key)
        if cached is None:
            cached = contains(b.plan, a.plan) and not contains(a.plan, b.plan)
            self._subsumption_cache[key] = cached
        return cached

    def _resort(self):
        """Kahn's algorithm over subsumption edges, metric-prioritized."""
        entries = self._entries
        blockers = {entry.entry_id: 0 for entry in entries}
        dependents = {entry.entry_id: [] for entry in entries}
        for a in entries:
            for b in entries:
                if a is not b and self._subsumes(a, b):
                    blockers[b.entry_id] += 1
                    dependents[a.entry_id].append(b)

        def priority(entry):
            return (-entry.stats.reduction_ratio,
                    -entry.stats.producing_job_time,
                    entry._sequence)

        ready = sorted(
            (entry for entry in entries if blockers[entry.entry_id] == 0),
            key=priority,
        )
        ordered = []
        while ready:
            entry = ready.pop(0)
            ordered.append(entry)
            changed = False
            for dependent in dependents[entry.entry_id]:
                blockers[dependent.entry_id] -= 1
                if blockers[dependent.entry_id] == 0:
                    ready.append(dependent)
                    changed = True
            if changed:
                ready.sort(key=priority)
        if len(ordered) != len(entries):
            raise RepositoryError("subsumption relation is cyclic (bug)")
        self._entries = ordered

    def find_equivalent(self, plan):
        """An entry computing exactly ``plan`` (mutual containment), if any."""
        for entry in self._entries:
            if contains(entry.plan, plan) and contains(plan, entry.plan):
                return entry
        return None

    # Removal --------------------------------------------------------------------

    def remove(self, entry, dfs=None):
        """Drop ``entry`` and re-sort the rest; delete its file when
        ReStore owns it."""
        try:
            self._entries.remove(entry)
        except ValueError as exc:
            raise RepositoryError(f"{entry!r} is not in the repository") from exc
        self._resort()
        if dfs is not None and entry.owns_file:
            dfs.delete_if_exists(entry.output_path)

    def describe(self):
        lines = [f"Repository: {len(self._entries)} entr(ies)"]
        lines.extend(f"- {entry.describe()}" for entry in self._entries)
        return "\n".join(lines)

"""The enumerated sub-job selector: keep/evict decisions (paper Section 5).

A job output earns its place in the repository when (1) reusing it can
reduce execution time and (2) it will actually be reused. The paper's
rules:

1. keep only if the output is smaller than the input (reduces Tload);
2. keep only if Equation 1 predicts a time reduction (the producing job
   costs more than loading its output);
3. evict when not reused within a window of time;
4. evict when an input dataset was deleted or modified.

The paper's own experiments store everything (:class:`KeepEverythingPolicy`,
the default); :class:`HeuristicRetentionPolicy` implements Rules 1-4.
"""


class RetentionPolicy:
    """Admission (Rules 1-2) and eviction (Rules 3-4) decisions."""

    def should_keep(self, entry, cost_model):
        """Admission check for a freshly produced candidate entry."""
        raise NotImplementedError

    def sweep(self, repository, dfs, clock):
        """Evict stale entries; returns the list of evicted entries."""
        raise NotImplementedError


class KeepEverythingPolicy(RetentionPolicy):
    """Store all candidates, evict nothing (the paper's experimental mode,
    Section 5: "we store the outputs of all candidate jobs and sub-jobs")."""

    def should_keep(self, entry, cost_model):
        return True

    def sweep(self, repository, dfs, clock):
        return []


class HeuristicRetentionPolicy(RetentionPolicy):
    """The paper's four rules.

    ``window_ticks`` is Rule 3's reuse window measured on ReStore's
    logical clock (one tick per submitted workflow).
    """

    def __init__(self, window_ticks=10, require_reduction=True,
                 require_benefit=True):
        self.window_ticks = window_ticks
        self.require_reduction = require_reduction
        self.require_benefit = require_benefit

    # Admission ----------------------------------------------------------

    def should_keep(self, entry, cost_model):
        stats = entry.stats
        if self.require_reduction and stats.output_bytes >= stats.input_bytes:
            return False  # Rule 1
        if self.require_benefit:
            reload_time = cost_model.estimate_load_time(stats.output_bytes)
            if reload_time >= stats.producing_job_time:
                return False  # Rule 2 (Equation 1 predicts no reduction)
        return True

    # Eviction -------------------------------------------------------------

    def sweep(self, repository, dfs, clock):
        """Batched eviction to a fixpoint, in one pass over the entries.

        The seed restarted a full scan after every single removal
        (evicting an entry deletes its owned file, which can invalidate
        entries that read it — Rule 4 cascades). Both eviction conditions
        are monotone in the set of deleted files, so the fixpoint can be
        reached in rounds instead: evict *everything* currently evictable
        in one pass over the entries (in the repository's iteration
        order, sequence order), then re-check only the entries
        whose ``input_versions`` mention a just-deleted path — exactly
        the set whose Rule 4 check can have changed (Rule 3 expiry is
        time-invariant within one sweep, so round 1 settled it for
        everyone). The evicted *set* is identical to the seed's
        one-at-a-time sweep; rounds are bounded by the depth of the
        stored-output dependency chains, not the entry count.

        Round 1 is the only pass over the repository. Rule 3 is one
        comparison against a horizon; Rule 4 reads each input path's
        version once per sweep (a memo whose entry is dropped when the
        sweep deletes that path); later rounds find their candidates in
        a path -> readers index over round 1's entries, so they visit
        only the readers of the deleted paths, still in that order.
        """
        horizon = clock.now() - self.window_ticks
        versions = {}
        order = tuple(repository)
        doomed = [entry for entry in order
                  if max(entry.stats.last_used_tick,
                         entry.stats.created_tick) < horizon  # Rule 3
                  or _inputs_gone(entry, dfs, versions)]
        evicted = []
        evicted_ids = set()
        readers = None
        while doomed:
            deleted_paths = []
            for entry in doomed:
                repository.remove(entry, dfs)
                evicted.append(entry)
                evicted_ids.add(entry.entry_id)
                if entry.owns_file:
                    deleted_paths.append(entry.output_path)
                    versions.pop(entry.output_path, None)
            if not deleted_paths:
                break  # nothing cascaded: no other entry can newly expire
            if readers is None:
                readers = _readers_by_path(order)
            positions = set()
            for path in deleted_paths:
                positions.update(readers.get(path, ()))
            doomed = [order[position] for position in sorted(positions)
                      if order[position].entry_id not in evicted_ids
                      and _inputs_gone(order[position], dfs, versions)]
        return evicted


#: memo value of an input path that does not exist: unequal to every
#: recorded version, None included
_GONE = object()


def _inputs_gone(entry, dfs, versions):
    """Rule 4: was an input of ``entry`` deleted or modified? ``versions``
    memoizes each path's current version (or :data:`_GONE`) for one
    sweep."""
    for path, version in entry.input_versions.items():
        if path not in versions:
            versions[path] = (dfs.status(path).version
                              if dfs.exists(path) else _GONE)
        if versions[path] != version:
            return True
    return False


def _readers_by_path(order):
    """path -> positions in ``order`` of the entries that read it,
    ascending."""
    readers = {}
    for position, entry in enumerate(order):
        for path in entry.input_versions:
            readers.setdefault(path, []).append(position)
    return readers

"""Indexing structures for the ReStore repository.

The paper's repository matcher is a *sequential scan* in priority order
(Section 3): every ``find_equivalent`` walks all entries with a full
mutual-containment check, and every insert re-derives the subsumption
partial order with O(n^2) containment tests. That is faithful — and it is
exactly the overhead Figs. 11/14 measure. Two keys remove the linear
factors without changing a single matching decision:

* **plan fingerprints** — a canonical structural hash over operator
  signatures and DAG edges. The hash and the per-plan
  :class:`~repro.restore.matcher.PlanDigest` built from it live in
  :mod:`repro.restore.matcher`, next to the equivalence test they
  mirror; :func:`plan_fingerprint` here is the digest's fingerprint of a
  plan's match frontier. Two mutually-contained single-Store plans always
  hash identically, so the fingerprint never produces a false negative.
  The repository files its entries under it, which makes
  ``find_equivalent`` a dict lookup plus an exact confirmation of the
  (tiny) bucket, and makes every containment search — the matcher's
  probe and both directions of subsumption discovery on insert — a
  lookup keyed by the digest's site fingerprints.

* **leaf-load keys** (:func:`leaf_loads`, :class:`LoadIndex`) — the
  frozenset of ``(path, version)`` pairs a plan reads, recorded by the
  digest's walk. Containment maps every repository Load onto an
  input-plan Load with an identical signature (``LOAD[path@vN]``), so an
  entry can only match a job whose load set is a superset of the
  entry's. Sharding places entries by these keys, and under
  ``executor="processes"`` each shard worker filters its slice with an
  inverted index over them (:mod:`repro.restore.service`).

Both accept skeleton plans reloaded from persistence: a skeleton Load
carries no ``path``/``version`` attributes, but its canonical signature
embeds them and :func:`parse_load_signature` recovers the pair.
"""

# parse_load_signature stays importable from here, beside the keys it
# recovers.
from repro.restore.matcher import parse_load_signature, PlanDigest


def leaf_loads(plan):
    """The frozenset of ``(path, version)`` pairs ``plan`` reads
    (:attr:`PlanDigest.loads <repro.restore.matcher.PlanDigest>`).

    Returns None when any leaf Load cannot be keyed (no path/version
    attributes and an unparseable signature) — callers must then treat
    the plan as matchable against anything, which preserves correctness
    at the cost of indexing that one entry.
    """
    return PlanDigest(plan).loads


def plan_fingerprint(plan):
    """Canonical structural hash of ``plan``'s match frontier — the
    operator feeding its single Store (ValueError otherwise). See
    :func:`~repro.restore.matcher.operator_fingerprint` for the hash's
    equivalence guarantees."""
    return PlanDigest(plan).fingerprint


class LoadIndex:
    """Inverted index from leaf-load keys to entry ids.

    ``candidate_ids(job_loads)`` answers "which entries could possibly be
    contained in a plan reading exactly these datasets" — entries whose
    load set is a subset of ``job_loads``, plus any entry whose loads
    could not be keyed (conservatively always a candidate). Shard
    workers filter their slices with it.
    """

    def __init__(self):
        self._postings = {}    # (path, version) -> set of entry ids
        self._loads = {}       # entry id -> frozenset of keys, or None
        self._unindexed = set()  # ids with unknown (or empty) load sets

    def add(self, entry):
        keys = entry.digest.loads
        self._loads[entry.entry_id] = keys
        if not keys:  # None (unparseable) or empty: always a candidate
            self._unindexed.add(entry.entry_id)
            return
        for key in keys:
            self._postings.setdefault(key, set()).add(entry.entry_id)

    def discard(self, entry):
        keys = self._loads.pop(entry.entry_id, None)
        self._unindexed.discard(entry.entry_id)
        for key in keys or ():
            postings = self._postings.get(key)
            if postings is not None:
                postings.discard(entry.entry_id)
                if not postings:
                    del self._postings[key]

    def candidate_ids(self, job_loads):
        """Ids of entries whose load set is a subset of ``job_loads``.

        ``job_loads`` of None (unkeyable plan) means "no filtering":
        returns None, and the caller must fall back to the full scan.
        """
        if job_loads is None:
            return None
        touched = set(self._unindexed)
        for key in job_loads:
            touched |= self._postings.get(key, _EMPTY)
        return {
            entry_id for entry_id in touched
            if self._loads[entry_id] is None or self._loads[entry_id] <= job_loads
        }


_EMPTY = frozenset()

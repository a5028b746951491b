"""Plan containment matching — the core of the plan matcher & rewriter.

A repository plan *matches* an input MapReduce job if it is **contained**
in the job's physical plan (paper Section 3). Containment is built on
operator equivalence:

    two operators are equivalent iff (1) their inputs are pipelined from
    equivalent operators or the same data sets, and (2) they perform
    functions that produce the same output data.

(1) is the recursive input check; (2) is signature equality — signatures
are canonical and position-based (see :mod:`repro.physical.operators`), so
names chosen by different queries do not matter. Load signatures embed the
dataset path *and version*, which realizes "the same data sets".

Containment is decided from **Merkle subtree fingerprints**
(:func:`operator_fingerprint`), a hash over exactly the structure operator
equivalence recurses over. A :class:`PlanDigest` fingerprints every
operator of a plan in one walk; "entry ⊆ job" is then a dict lookup of the
entry's frontier fingerprint in the job's digest, confirmed by the exact
recursive test. Callers that test one plan many times (the manager's scan
pass, subsumption discovery) build its digest once and pass that instead.
The repository runs the same lookup the other way round: it files its
entries by frontier fingerprint, so the entries a plan may contain are
the ones filed under its digest's site fingerprints.

Two entry points:

* :func:`find_containment` — the containment test used by ReStore proper;
  returns the input-plan frontier on success.
* :func:`pairwise_plan_traversal` — a faithful transcription of the
  paper's Algorithm 1 (simultaneous depth-first traversal over successor
  sets), which never looks at a fingerprint. It is equivalent on the plans
  ReStore produces and is kept both as executable documentation and as
  the independent oracle :func:`find_containment` is property-tested
  against.
"""

import hashlib

from repro.physical.operators import POStore


class Match:
    """A successful containment of ``entry_plan`` in an input plan."""

    __slots__ = ("frontier",)

    def __init__(self, frontier):
        #: the input-plan operator equivalent to the repo plan's last
        #: operator before its Store — the point whose output the stored
        #: file materializes.
        self.frontier = frontier


def skip_splits(op):
    """Splits are transparent for equivalence (pure pass-through)."""
    while op.kind == "split":
        op = op.inputs[0]
    return op


def _fingerprint(op, memo):
    op = skip_splits(op)
    cached = memo.get(id(op))
    if cached is None:
        signature = op.signature()
        node = hashlib.sha256(f"[{len(signature)}:{signature}".encode("utf-8"))
        for parent in op.inputs:
            node.update(_fingerprint(parent, memo).encode("ascii"))
        node.update(b"]")
        cached = memo[id(op)] = node.hexdigest()
    return cached


def operator_fingerprint(op):
    """Canonical structural hash of the subtree rooted at ``op``.

    The fingerprint is a SHA-256 Merkle hash over (signature, child
    fingerprints) with Split operators skipped — precisely the structure
    :func:`find_containment`'s exact test recurses over. Equivalent
    operators have equal fingerprints, so unequal fingerprints prove
    non-equivalence; equal ones fall short of it only on a collision or
    when the repository-side subtree holds an interior Split (skipped
    here, equivalent to nothing there). Child *digests* are combined
    rather than child serializations, so shared subplans cost O(nodes),
    not O(paths). Stable across processes, so it round-trips through
    persistence.

    Because the hash covers the frontier subtree only (never the Store),
    an uncloned sub-plan operator and the cloned entry plan built from it
    fingerprint identically — which is what lets the async ingest queue
    coalesce duplicate registrations without cloning on the hot path.
    """
    return _fingerprint(op, {})


_NOT_SINGLE_STORE = "repository plans must have exactly one Store"


def parse_load_signature(signature):
    """Recover ``(path, version)`` from a canonical Load signature.

    Load signatures are ``LOAD[{path}@v{version}]`` with an integer
    version (``POLoad.signature``). Returns None when ``signature`` does
    not have that shape (a foreign skeleton operator, say).
    """
    if not (signature.startswith("LOAD[") and signature.endswith("]")):
        return None
    body = signature[len("LOAD["):-1]
    path, sep, version = body.rpartition("@v")
    if not sep:
        return None
    try:
        return path, int(version)
    except ValueError:
        return None


def load_key(op):
    """The ``(path, version)`` pair a Load reads: its attributes, or its
    signature parsed when it is a skeleton reloaded from persistence
    (None when neither works)."""
    path = getattr(op, "path", None)
    version = getattr(op, "version", None)
    if path is None or version is None:
        return parse_load_signature(op.signature())
    return path, version


class PlanDigest:
    """What containment asks of one plan, gathered in a single walk.

    ``sites`` maps a fingerprint to the operators carrying it that may
    be a match frontier, in topological order: Stores and bare Loads
    never are (reusing a stored output to replace a plain Load would be
    a no-op rewrite), nor are Splits. An entry is contained in the plan
    only if its frontier fingerprint is a key of ``sites``. ``loads`` is
    the frozenset of :func:`load_key` pairs the plan reads, None when a
    Load cannot be keyed. ``frontier`` and ``fingerprint`` read the plan
    as a repository entry and raise ValueError unless it has exactly one
    Store. A digest describes the plan as it was when walked; a
    rewritten plan needs a new one.
    """

    __slots__ = ("sites", "loads", "_frontier", "_fingerprint")

    def __init__(self, plan):
        memo = {}
        self.sites = sites = {}
        stores = []
        keys = []
        for op in plan.operators():
            if isinstance(op, POStore):
                stores.append(op)
            elif op.kind == "load":
                keys.append(load_key(op))
            elif op.kind != "split":
                sites.setdefault(_fingerprint(op, memo), []).append(op)
        self.loads = None if None in keys else frozenset(keys)
        self._frontier = self._fingerprint = None
        if len(stores) == 1:
            self._frontier = skip_splits(stores[0].inputs[0])
            self._fingerprint = _fingerprint(self._frontier, memo)

    @property
    def frontier(self):
        """The last operator before the plan's Store — the point whose
        output a repository entry materializes, and the root of the
        structure all matching (and fingerprinting) recurses over."""
        if self._frontier is None:
            raise ValueError(_NOT_SINGLE_STORE)
        return self._frontier

    @property
    def fingerprint(self):
        """:func:`operator_fingerprint` of :attr:`frontier`."""
        if self._fingerprint is None:
            raise ValueError(_NOT_SINGLE_STORE)
        return self._fingerprint


def _equivalent(repo_op, input_op, memo):
    input_op = skip_splits(input_op)
    key = (id(repo_op), id(input_op))
    cached = memo.get(key)
    if cached is not None:
        return cached
    if repo_op.signature() != input_op.signature():
        memo[key] = False
        return False
    if len(repo_op.inputs) != len(input_op.inputs):
        memo[key] = False
        return False
    result = all(
        _equivalent(repo_parent, input_parent, memo)
        for repo_parent, input_parent in zip(repo_op.inputs, input_op.inputs)
    )
    memo[key] = result
    return result


def _digest(plan):
    return plan if isinstance(plan, PlanDigest) else PlanDigest(plan)


def find_containment(entry_plan, input_plan):
    """Test whether ``entry_plan`` is contained in ``input_plan``.

    Returns a :class:`Match` (the input-plan frontier operator) or None.
    Only the input operators whose fingerprint equals the entry
    frontier's can be equivalent to it; they are confirmed with
    the exact test in topological order, so the result is deterministic
    and no decision rests on the hash. Either argument may be the plan's
    :class:`PlanDigest` instead of the plan.
    """
    entry, target = _digest(entry_plan), _digest(input_plan)
    frontier = entry.frontier
    memo = {}
    for site in target.sites.get(entry.fingerprint, ()):
        if _equivalent(frontier, site, memo):
            return Match(site)
    return None


def contains(entry_plan, input_plan):
    """Boolean form of :func:`find_containment` (used for subsumption)."""
    return find_containment(entry_plan, input_plan) is not None


# --- Algorithm 1, transcribed -------------------------------------------------


def pairwise_plan_traversal(input_plan, entry_plan):
    """The paper's Algorithm 1 as a containment predicate.

    Algorithm 1 traverses both plans simultaneously from their Load
    operators, pairing each repository operator with an equivalent input
    operator (``findEquivalentOP``), and declares a match when *all*
    repository operators have equivalents. Operator equivalence already
    recurses over inputs ("inputs pipelined from equivalent operators or
    the same data sets"), so the traversal's success criterion reduces to:
    every non-Store repository operator has an input-consistent equivalent
    somewhere downstream of a matching input Load — which is what this
    implementation checks. It is property-tested to agree with
    :func:`find_containment`.
    """
    memo = {}
    input_ops = [
        op for op in input_plan.operators() if not isinstance(op, POStore)
    ]
    for repo_op in entry_plan.operators():
        if isinstance(repo_op, POStore):
            continue  # the repo Store is the materialization point
        if repo_op.kind == "split":
            # Splits are pure pass-throughs ("Unix tee") and transparent
            # for equivalence; findEquivalentOP skips them on the input
            # side, so the traversal must not demand a literal Split
            # twin for one sitting in the repository plan either. (The
            # differential fuzz suite caught this: an entry with a Split
            # under its Store matched via find_containment — whose
            # match_frontier skips it — but failed here.)
            continue
        if not any(_equivalent(repo_op, candidate, memo) for candidate in input_ops):
            return False
    return True

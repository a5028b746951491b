"""Physical operators.

Blocking operators (Join, Group, CoGroup, Distinct, Sort) force a shuffle
and therefore a reduce stage — the reason the Pig compiler splits a query
into multiple MapReduce jobs (paper Section 2). Each operator exposes a
canonical ``signature()``; two operators with equal signatures "perform
functions that produce the same output data" given equivalent inputs, which
is the paper's operator-equivalence definition (Section 3).
"""

import itertools

from repro.common.errors import PlanError

_ids = itertools.count(1)

MAP_STAGE = "map"
REDUCE_STAGE = "reduce"


class PhysOp:
    """Base physical operator."""

    kind = "abstract"
    #: Blocking operators start a reduce stage (need a shuffle).
    is_blocking = False

    def __init__(self, inputs, schema, alias=None):
        self.op_id = next(_ids)
        self.inputs = list(inputs)
        self.schema = schema
        self.alias = alias
        self.stage = None
        #: Marks operators injected by ReStore's sub-job enumerator.
        self.injected = False

    def signature(self):
        raise NotImplementedError

    def copy_with_inputs(self, inputs):
        """A fresh instance of this operator wired to ``inputs``.

        Compiled closures are shared (they are immutable); identity,
        stage, and injected-flags are *not* carried over.
        """
        raise NotImplementedError

    def _carry(self, clone):
        clone.alias = self.alias
        clone.injected = self.injected
        return clone

    def describe(self):
        return self.signature()

    def __repr__(self):
        return f"<{type(self).__name__} #{self.op_id} {self.signature()}>"


class POLoad(PhysOp):
    """Read a DFS dataset. Equivalence = same path AND same version.

    The version pins the dataset's content: when an input is overwritten
    the version changes, old repository entries stop matching, and eviction
    Rule 4 reclaims them.
    """

    kind = "load"

    def __init__(self, path, schema, version=0, alias=None):
        super().__init__([], schema, alias)
        self.path = path
        self.version = version

    def signature(self):
        return f"LOAD[{self.path}@v{self.version}]"

    def copy_with_inputs(self, inputs):
        if inputs:
            raise PlanError("LOAD takes no inputs")
        return self._carry(POLoad(self.path, self.schema, self.version, self.alias))


class POStore(PhysOp):
    """Write to a DFS path. The path is deliberately NOT in the signature:

    two jobs computing the same result into different files are equivalent
    for reuse; the repository keeps the materialized location separately.
    """

    kind = "store"

    def __init__(self, input_op, path, alias=None, temporary=False):
        super().__init__([input_op], input_op.schema, alias)
        self.path = path
        self.temporary = temporary

    def signature(self):
        return "STORE"

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POStore(input_op, self.path, self.alias, self.temporary))


class POForEach(PhysOp):
    """Per-row projection/transformation (Pig's FOREACH ... GENERATE).

    ``items`` are the compiled GENERATE items
    (:class:`~repro.piglatin.expressions.ForEachItem`); ``inner_ops``
    (from a nested FOREACH block) extend each row with virtual bag fields
    before the GENERATE items are evaluated.
    """

    kind = "foreach"

    def __init__(self, input_op, items, schema, alias=None, inner_ops=()):
        super().__init__([input_op], schema, alias)
        self.items = tuple(items)
        self.inner_ops = tuple(inner_ops)

    def signature(self):
        body = ";".join(item.canonical() for item in self.items)
        if self.inner_ops:
            inner = "|".join(op.canonical for op in self.inner_ops)
            return f"FOREACH[inner({inner});{body}]"
        return f"FOREACH[{body}]"

    def eval_row(self, row):
        if self.inner_ops:
            extended = list(row)
            for inner in self.inner_ops:
                extended.append(inner.fn(extended))
            row = tuple(extended)
        values = []
        for item in self.items:
            if item.compiled is not None:
                values.append(item.compiled.fn(row))
            else:
                values.extend(row[pos] for pos in item.flatten_positions)
        return tuple(values)

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POForEach(input_op, self.items, self.schema,
                                     self.alias, self.inner_ops))


class POFilter(PhysOp):
    kind = "filter"

    def __init__(self, input_op, predicate, alias=None):
        super().__init__([input_op], input_op.schema, alias)
        self.predicate = predicate

    def signature(self):
        return f"FILTER[{self.predicate.canonical}]"

    def eval_row(self, row):
        return self.predicate.fn(row) is True

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POFilter(input_op, self.predicate, self.alias))


class POJoin(PhysOp):
    """Inner equi-join of two inputs (shuffle join: rearrange + package)."""

    kind = "join"
    is_blocking = True

    def __init__(self, left, right, left_keys, right_keys, schema, alias=None,
                 parallel=None):
        super().__init__([left, right], schema, alias)
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.parallel = parallel

    def signature(self):
        left = ",".join(key.canonical for key in self.left_keys)
        right = ",".join(key.canonical for key in self.right_keys)
        return f"JOIN[{left}|{right}]"

    def key_functions(self):
        """Per-input-branch shuffle key extractors."""
        return [_key_fn(self.left_keys), _key_fn(self.right_keys)]

    def copy_with_inputs(self, inputs):
        left, right = inputs
        return self._carry(
            POJoin(left, right, self.left_keys, self.right_keys, self.schema,
                   self.alias, self.parallel)
        )


class POGroup(PhysOp):
    """GROUP BY keys / GROUP ALL; output = key fields + one bag."""

    kind = "group"
    is_blocking = True

    def __init__(self, input_op, keys, schema, alias=None, parallel=None):
        super().__init__([input_op], schema, alias)
        self.keys = None if keys is None else tuple(keys)
        self.parallel = parallel

    @property
    def is_group_all(self):
        return self.keys is None

    def signature(self):
        if self.is_group_all:
            return "GROUP[ALL]"
        return f"GROUP[{','.join(key.canonical for key in self.keys)}]"

    def key_functions(self):
        if self.is_group_all:
            return [lambda row: "all"]
        return [_key_fn(self.keys)]

    @property
    def num_key_fields(self):
        return 1 if (self.is_group_all or len(self.keys) == 1) else len(self.keys)

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(
            POGroup(input_op, self.keys, self.schema, self.alias, self.parallel)
        )


class POCoGroup(PhysOp):
    """COGROUP over n inputs; output = key fields + one bag per input."""

    kind = "cogroup"
    is_blocking = True

    def __init__(self, input_ops, key_lists, schema, alias=None, parallel=None):
        super().__init__(list(input_ops), schema, alias)
        self.key_lists = tuple(tuple(keys) for keys in key_lists)
        self.parallel = parallel

    def signature(self):
        sides = "|".join(
            ",".join(key.canonical for key in keys) for keys in self.key_lists
        )
        return f"COGROUP[{sides}]"

    def key_functions(self):
        return [_key_fn(keys) for keys in self.key_lists]

    @property
    def num_key_fields(self):
        return 1 if len(self.key_lists[0]) == 1 else len(self.key_lists[0])

    def copy_with_inputs(self, inputs):
        return self._carry(
            POCoGroup(list(inputs), self.key_lists, self.schema, self.alias,
                      self.parallel)
        )


class PODistinct(PhysOp):
    kind = "distinct"
    is_blocking = True

    def __init__(self, input_op, alias=None, parallel=None):
        super().__init__([input_op], input_op.schema, alias)
        self.parallel = parallel

    def signature(self):
        return "DISTINCT"

    def key_functions(self):
        return [lambda row: row]

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(PODistinct(input_op, self.alias, self.parallel))


class POUnion(PhysOp):
    """Bag union of n inputs; map-side (non-blocking)."""

    kind = "union"

    def __init__(self, input_ops, schema, alias=None):
        super().__init__(list(input_ops), schema, alias)

    def signature(self):
        return f"UNION[{len(self.inputs)}]"

    def copy_with_inputs(self, inputs):
        return self._carry(POUnion(list(inputs), self.schema, self.alias))


class POSort(PhysOp):
    """ORDER BY (total order; executed with a single reducer)."""

    kind = "sort"
    is_blocking = True

    def __init__(self, input_op, keys, schema, alias=None, parallel=None):
        # keys: tuple of (CompiledExpr, 'asc'|'desc')
        super().__init__([input_op], schema, alias)
        self.keys = tuple(keys)
        self.parallel = parallel

    def signature(self):
        body = ",".join(f"{key.canonical}:{direction}" for key, direction in self.keys)
        return f"SORT[{body}]"

    def key_functions(self):
        key_fn = _key_fn([key for key, _ in self.keys])
        return [key_fn]

    @property
    def directions(self):
        return tuple(direction for _, direction in self.keys)

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POSort(input_op, self.keys, self.schema, self.alias,
                                  self.parallel))


class POLimit(PhysOp):
    kind = "limit"

    def __init__(self, input_op, count, alias=None):
        super().__init__([input_op], input_op.schema, alias)
        self.count = count

    def signature(self):
        return f"LIMIT[{self.count}]"

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POLimit(input_op, self.count, self.alias))


class POSplit(PhysOp):
    """Branch a stream to several consumers (Pig's Split; the paper's
    "Unix tee" used to materialize sub-job outputs, Section 4)."""

    kind = "split"

    def __init__(self, input_op, alias=None):
        super().__init__([input_op], input_op.schema, alias)

    def signature(self):
        return "SPLIT"

    def copy_with_inputs(self, inputs):
        (input_op,) = inputs
        return self._carry(POSplit(input_op, self.alias))


def _key_fn(compiled_keys):
    """Shuffle-key extractor: scalar for one key, tuple for composites."""
    if len(compiled_keys) == 1:
        fn = compiled_keys[0].fn
        return fn
    fns = [key.fn for key in compiled_keys]

    def composite(row):
        return tuple(fn(row) for fn in fns)

    return composite

"""Logical operators: schema-aware nodes holding their compiled expressions.

Each node compiles its expressions once, against its inputs' schemas, to
type-check them and infer its own schema, and keeps what it compiled:
physical translation passes those pieces straight to the physical
operators.
"""

import itertools

from repro.common.errors import PlanError
from repro.data.schema import Field, Schema
from repro.data.types import DataType
from repro.piglatin import ast
from repro.piglatin.expressions import (
    BOOLEAN,
    compile_expression,
    compile_predicate,
    ForEachItem,
)
from repro.piglatin.nested import compile_inner_pipeline

_ids = itertools.count(1)

GROUP_FIELD = "group"

_NUMERIC = (DataType.INT, DataType.DOUBLE)


def _check_key_types(statement, keys, other_keys):
    """Paired shuffle keys must compare: equal types, or both numeric."""
    for a, b in zip(keys, other_keys):
        if not (a.dtype == b.dtype or (a.dtype in _NUMERIC and b.dtype in _NUMERIC)):
            raise PlanError(
                f"{statement} key type mismatch: {a.canonical}:{a.dtype} vs "
                f"{b.canonical}:{b.dtype}"
            )


class LogicalOp:
    """Base logical operator: ``inputs`` are upstream LogicalOps."""

    kind = "abstract"

    def __init__(self, inputs, alias=None):
        self.op_id = next(_ids)
        self.inputs = list(inputs)
        self.alias = alias
        self.schema = None  # set by subclasses

    def describe(self):
        return f"{self.kind}({self.alias or ''})"

    def __repr__(self):
        return f"<{type(self).__name__} #{self.op_id} {self.alias or ''}>"


class LOLoad(LogicalOp):
    kind = "load"

    def __init__(self, path, schema, alias=None):
        super().__init__([], alias)
        self.path = path
        self.schema = schema


class LOForEach(LogicalOp):
    """FOREACH ... GENERATE, optionally with a nested inner block.

    ``inner_ops`` are the compiled inner statements and ``items`` the
    compiled GENERATE items (:class:`ForEachItem`).
    """

    kind = "foreach"

    def __init__(self, input_op, items, alias=None, inner=()):
        super().__init__([input_op], alias)
        item_schema = input_op.schema
        self.inner_ops = ()
        if inner:
            item_schema, self.inner_ops = compile_inner_pipeline(item_schema, inner)
        self.items = []
        fields = []
        used_names = set()
        for index, item in enumerate(items):
            if item.flatten:
                positions = self._flatten_positions(item, item_schema)
                self.items.append(ForEachItem(flatten_positions=positions))
                for position in positions:
                    field = item_schema.field_at(position)
                    fields.append(field.renamed(field.short_name))
                used_names.update(field.name for field in fields)
                continue
            compiled = compile_expression(item.expr, item_schema)
            if compiled.dtype is DataType.BAG or compiled.is_bag_projection:
                raise PlanError(
                    f"GENERATE item {index} produces a bag; wrap it in an "
                    "aggregate or FLATTEN"
                )
            if compiled.dtype is BOOLEAN:
                raise PlanError(f"GENERATE item {index} is a bare boolean predicate")
            self.items.append(ForEachItem(compiled=compiled, name=item.alias))
            name = item.alias or compiled.name_hint or f"f{index}"
            if name in used_names:
                name = f"{name}_{index}"
            used_names.add(name)
            fields.append(Field(name, compiled.dtype))
        self.schema = Schema(fields)

    @staticmethod
    def _flatten_positions(item, schema):
        if not isinstance(item.expr, ast.FieldRef) or item.expr.name != GROUP_FIELD:
            raise PlanError("only FLATTEN(group) is supported in this dialect")
        positions = tuple(
            position
            for position, field in enumerate(schema.fields)
            if field.name == GROUP_FIELD or field.name.startswith(GROUP_FIELD + "::")
        )
        if not positions:
            raise PlanError("FLATTEN(group) requires a grouped input")
        return positions


class LOFilter(LogicalOp):
    kind = "filter"

    def __init__(self, input_op, condition, alias=None):
        super().__init__([input_op], alias)
        self.predicate = compile_predicate(condition, input_op.schema)
        self.schema = input_op.schema


class LOJoin(LogicalOp):
    kind = "join"

    def __init__(self, left, right, left_keys, right_keys, alias=None, parallel=None):
        super().__init__([left, right], alias)
        if len(left_keys) != len(right_keys):
            raise PlanError("JOIN key lists must have equal length")
        self.left_keys = [compile_expression(key, left.schema) for key in left_keys]
        self.right_keys = [compile_expression(key, right.schema) for key in right_keys]
        self.parallel = parallel
        _check_key_types("join", self.left_keys, self.right_keys)
        self.schema = Schema.join(
            left.schema, right.schema, left.alias or "L", right.alias or "R"
        )


def _key_fields(compiled_keys):
    """The group-key fields of a GROUP or COGROUP output schema."""
    if len(compiled_keys) == 1:
        return [Field(GROUP_FIELD, compiled_keys[0].dtype)]
    return [
        Field(f"{GROUP_FIELD}::{key.name_hint or f'k{index}'}", key.dtype)
        for index, key in enumerate(compiled_keys)
    ]


class LOGroup(LogicalOp):
    """GROUP BY (keys) or GROUP ALL (keys=None)."""

    kind = "group"

    def __init__(self, input_op, keys, alias=None, parallel=None):
        super().__init__([input_op], alias)
        self.parallel = parallel
        bag_field = Field(input_op.alias or "bag", DataType.BAG, input_op.schema)
        if keys is None:
            self.keys = None
            self.schema = Schema([Field(GROUP_FIELD, DataType.CHARARRAY), bag_field])
        else:
            self.keys = [compile_expression(key, input_op.schema) for key in keys]
            self.schema = Schema(_key_fields(self.keys) + [bag_field])


class LOCoGroup(LogicalOp):
    """COGROUP input1 BY keys1, input2 BY keys2, ..."""

    kind = "cogroup"

    def __init__(self, input_ops, key_lists, alias=None, parallel=None):
        super().__init__(list(input_ops), alias)
        if len({len(keys) for keys in key_lists}) != 1:
            raise PlanError("COGROUP key lists must all have the same length")
        self.key_lists = [
            [compile_expression(key, input_op.schema) for key in keys]
            for input_op, keys in zip(self.inputs, key_lists)
        ]
        self.parallel = parallel
        for keys in self.key_lists[1:]:
            _check_key_types("cogroup", self.key_lists[0], keys)
        bag_fields = []
        seen = set()
        for position, input_op in enumerate(self.inputs):
            name = input_op.alias or f"in{position}"
            if name in seen:
                name = f"{name}_{position}"
            seen.add(name)
            bag_fields.append(Field(name, DataType.BAG, input_op.schema))
        self.schema = Schema(_key_fields(self.key_lists[0]) + bag_fields)


class LODistinct(LogicalOp):
    kind = "distinct"

    def __init__(self, input_op, alias=None, parallel=None):
        super().__init__([input_op], alias)
        self.parallel = parallel
        self.schema = input_op.schema


class LOUnion(LogicalOp):
    kind = "union"

    def __init__(self, input_ops, alias=None):
        super().__init__(list(input_ops), alias)
        first = self.inputs[0].schema
        for other in self.inputs[1:]:
            if len(other.schema) != len(first):
                raise PlanError(
                    f"UNION inputs must have the same arity: "
                    f"{len(first)} vs {len(other.schema)}"
                )
            for a, b in zip(first.fields, other.schema.fields):
                if a.dtype != b.dtype:
                    raise PlanError(
                        f"UNION field type mismatch: {a.canonical()} vs {b.canonical()}"
                    )
        self.schema = first


class LOSort(LogicalOp):
    """ORDER BY; ``keys`` are (compiled expression, direction) pairs."""

    kind = "sort"

    def __init__(self, input_op, keys, alias=None, parallel=None):
        super().__init__([input_op], alias)
        self.keys = []
        for expr, direction in keys:
            if direction not in ("asc", "desc"):
                raise PlanError(f"bad sort direction {direction!r}")
            self.keys.append((compile_expression(expr, input_op.schema), direction))
        self.parallel = parallel
        self.schema = input_op.schema


class LOLimit(LogicalOp):
    kind = "limit"

    def __init__(self, input_op, count, alias=None):
        super().__init__([input_op], alias)
        if count < 0:
            raise PlanError(f"LIMIT must be non-negative, got {count}")
        self.count = count
        self.schema = input_op.schema


class LOStore(LogicalOp):
    kind = "store"

    def __init__(self, input_op, path, alias=None):
        super().__init__([input_op], alias)
        self.path = path
        self.schema = input_op.schema

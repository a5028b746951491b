"""Compile expression ASTs against schemas into evaluable closures.

``compile_expression`` resolves field names to positions, type-checks, and
returns a :class:`CompiledExpr` carrying:

* ``fn(row) -> value`` — the evaluator,
* ``dtype`` — a :class:`DataType`, or :data:`BOOLEAN` for predicates,
* ``canonical`` — a stable, *positional* text form. Two expressions with the
  same canonical form compute the same function of their input rows; this is
  the basis of ReStore's operator equivalence (Section 3: "perform functions
  that produce the same output data"),
* ``name_hint`` — the output field name Pig would derive.

Null semantics follow Pig: comparisons and arithmetic involving null yield
null; FILTER keeps a row only when the predicate is true (null is not true).
"""

from repro.common.errors import DataError, PlanError
from repro.data.schema import Field, Schema
from repro.data.types import coerce_value, DataType, infer_type, numeric_result_type
from repro.piglatin import ast
from repro.piglatin.builtins import lookup_builtin

#: Pseudo-dtype of predicates; not storable in a schema.
BOOLEAN = "boolean"

_CAST_TYPES = {
    "int": DataType.INT,
    "long": DataType.INT,
    "float": DataType.DOUBLE,
    "double": DataType.DOUBLE,
    "chararray": DataType.CHARARRAY,
}


class CompiledExpr:
    """A resolved, type-checked, evaluable expression."""

    __slots__ = ("fn", "dtype", "canonical", "name_hint", "element", "is_bag_projection")

    def __init__(self, fn, dtype, canonical, name_hint=None, element=None,
                 is_bag_projection=False):
        self.fn = fn
        self.dtype = dtype
        self.canonical = canonical
        self.name_hint = name_hint
        self.element = element  # row schema when dtype is BAG
        self.is_bag_projection = is_bag_projection

    def __repr__(self):
        return f"CompiledExpr({self.canonical})"


class ForEachItem:
    """One GENERATE output: either a scalar expression or FLATTEN(group)."""

    __slots__ = ("compiled", "flatten_positions", "name")

    def __init__(self, compiled=None, flatten_positions=None, name=None):
        if (compiled is None) == (flatten_positions is None):
            raise PlanError("a ForEachItem is an expression XOR a flatten")
        self.compiled = compiled
        self.flatten_positions = flatten_positions
        self.name = name

    def canonical(self):
        if self.compiled is not None:
            return self.compiled.canonical
        positions = ",".join(f"${pos}" for pos in self.flatten_positions)
        return f"flatten({positions})"


def compile_expression(node, schema):
    """Compile ``node`` against ``schema``; raises DataError on bad refs."""
    if isinstance(node, ast.Literal):
        return _compile_literal(node)
    if isinstance(node, ast.FieldRef):
        return _compile_field(schema, schema.position_of(node.name))
    if isinstance(node, ast.PositionalRef):
        if not 0 <= node.index < len(schema):
            raise DataError(
                f"positional reference ${node.index} out of range "
                f"(schema has {len(schema)} fields)"
            )
        return _compile_field(schema, node.index)
    if isinstance(node, ast.Deref):
        return _compile_deref(node, schema)
    if isinstance(node, ast.Cast):
        return _compile_cast(node, schema)
    if isinstance(node, ast.UnaryOp):
        return _compile_unary(node, schema)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, schema)
    if isinstance(node, ast.IsNull):
        return _compile_is_null(node, schema)
    if isinstance(node, ast.FuncCall):
        return _compile_call(node, schema)
    raise DataError(f"cannot compile expression node {node!r}")


def compile_predicate(node, schema):
    """Compile a FILTER/condition expression; must be boolean-typed."""
    compiled = compile_expression(node, schema)
    if compiled.dtype is not BOOLEAN:
        raise DataError(f"filter condition must be boolean, got {compiled.canonical}")
    return compiled


def _compile_literal(node):
    value = node.value
    dtype = infer_type(value)
    if isinstance(value, str):
        canonical = f"'{value}'"
    else:
        canonical = repr(value)
    return CompiledExpr(lambda row: value, dtype, canonical)


def _compile_field(schema, position):
    field = schema.field_at(position)
    fn = _field_getter(position)
    return CompiledExpr(
        fn,
        field.dtype,
        f"${position}",
        name_hint=field.short_name,
        element=field.element,
    )


def _field_getter(position):
    def fn(row):
        return row[position]

    return fn


def _compile_deref(node, schema):
    position = schema.position_of(node.base)
    field = schema.field_at(position)
    if field.dtype is not DataType.BAG:
        raise DataError(f"cannot dereference non-bag field {node.base!r} with '.'")
    if field.element is None:
        raise DataError(f"bag field {node.base!r} has no element schema")
    inner = field.element.position_of(node.field)
    inner_dtype = field.element.field_at(inner).dtype

    def fn(row):
        bag = row[position]
        if bag is None:
            return ()
        return tuple(inner_row[inner] for inner_row in bag)

    return CompiledExpr(
        fn,
        inner_dtype,
        f"${position}.{inner}",
        name_hint=node.field,
        is_bag_projection=True,
    )


def _compile_cast(node, schema):
    target = _CAST_TYPES.get(node.typename)
    if target is None:
        raise DataError(f"unknown cast type {node.typename!r}")
    operand = compile_expression(node.operand, schema)
    if operand.dtype is BOOLEAN or operand.dtype is DataType.BAG:
        raise DataError(f"cannot cast {operand.canonical} to {node.typename}")
    inner = operand.fn

    def fn(row):
        return coerce_value(inner(row), target)

    return CompiledExpr(
        fn, target, f"cast[{target.value}]({operand.canonical})", operand.name_hint
    )


def _compile_unary(node, schema):
    operand = compile_expression(node.operand, schema)
    inner = operand.fn
    if node.op == "neg":
        if operand.dtype not in (DataType.INT, DataType.DOUBLE):
            raise DataError(f"cannot negate {operand.canonical}")

        def fn(row):
            value = inner(row)
            return None if value is None else -value

        return CompiledExpr(fn, operand.dtype, f"neg({operand.canonical})")
    if node.op == "not":
        if operand.dtype is not BOOLEAN:
            raise DataError(f"NOT requires a boolean, got {operand.canonical}")

        def fn(row):
            value = inner(row)
            return None if value is None else not value

        return CompiledExpr(fn, BOOLEAN, f"not({operand.canonical})")
    raise DataError(f"unknown unary operator {node.op!r}")


_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISON = {"==", "!=", "<", "<=", ">", ">="}


def _compile_binary(node, schema):
    left = compile_expression(node.left, schema)
    right = compile_expression(node.right, schema)
    if node.op in _ARITHMETIC:
        return _compile_arithmetic(node.op, left, right)
    if node.op in _COMPARISON:
        return _compile_comparison(node.op, left, right)
    if node.op in ("and", "or"):
        return _compile_logical(node.op, left, right)
    raise DataError(f"unknown binary operator {node.op!r}")


def _compile_arithmetic(op, left, right):
    for side in (left, right):
        if side.dtype not in (DataType.INT, DataType.DOUBLE):
            raise DataError(f"arithmetic needs numeric operands, got {side.canonical}")
    dtype = numeric_result_type(left.dtype, right.dtype)
    lfn, rfn = left.fn, right.fn
    int_division = op in ("/", "%") and dtype is DataType.INT

    def fn(row):
        a = lfn(row)
        b = rfn(row)
        if a is None or b is None:
            return None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            return None  # Pig yields null on division by zero
        if op == "/":
            return a // b if int_division else a / b
        return a % b

    return CompiledExpr(fn, dtype, f"{op}({left.canonical},{right.canonical})")


def _compile_comparison(op, left, right):
    numeric = (DataType.INT, DataType.DOUBLE)
    comparable = (
        (left.dtype in numeric and right.dtype in numeric)
        or (left.dtype is DataType.CHARARRAY and right.dtype is DataType.CHARARRAY)
    )
    if not comparable:
        raise DataError(
            f"cannot compare {left.canonical} ({left.dtype}) with "
            f"{right.canonical} ({right.dtype})"
        )
    lfn, rfn = left.fn, right.fn

    def fn(row):
        a = lfn(row)
        b = rfn(row)
        if a is None or b is None:
            return None
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b

    return CompiledExpr(fn, BOOLEAN, f"{op}({left.canonical},{right.canonical})")


def _compile_logical(op, left, right):
    for side in (left, right):
        if side.dtype is not BOOLEAN:
            raise DataError(f"{op.upper()} requires boolean operands, got {side.canonical}")
    lfn, rfn = left.fn, right.fn

    if op == "and":
        def fn(row):
            a = lfn(row)
            if a is False:
                return False
            b = rfn(row)
            if a is None or b is None:
                return None if b is not False else False
            return a and b
    else:
        def fn(row):
            a = lfn(row)
            if a is True:
                return True
            b = rfn(row)
            if a is None or b is None:
                return None if b is not True else True
            return a or b

    return CompiledExpr(fn, BOOLEAN, f"{op}({left.canonical},{right.canonical})")


def _compile_is_null(node, schema):
    operand = compile_expression(node.operand, schema)
    inner = operand.fn
    negated = node.negated

    def fn(row):
        value = inner(row)
        return (value is not None) if negated else (value is None)

    suffix = "isnotnull" if negated else "isnull"
    return CompiledExpr(fn, BOOLEAN, f"{suffix}({operand.canonical})")


def _compile_call(node, schema):
    builtin = lookup_builtin(node.name)
    if len(node.args) != builtin.arity:
        raise DataError(
            f"{builtin.name} takes {builtin.arity} argument(s), got {len(node.args)}"
        )
    args = [compile_expression(arg, schema) for arg in node.args]
    if builtin.is_aggregate:
        return _compile_aggregate(builtin, args)
    for arg in args:
        if arg.dtype is BOOLEAN or arg.dtype is DataType.BAG or arg.is_bag_projection:
            raise DataError(f"{builtin.name} takes scalar arguments, got {arg.canonical}")
    dtype = builtin.result_dtype([arg.dtype for arg in args])
    arg_fns = [arg.fn for arg in args]
    impl = builtin.fn

    def fn(row):
        return impl(*[arg_fn(row) for arg_fn in arg_fns])

    canonical = f"{builtin.name}({','.join(arg.canonical for arg in args)})"
    return CompiledExpr(fn, dtype, canonical, name_hint=builtin.name.lower())


def _compile_aggregate(builtin, args):
    (arg,) = args
    if arg.dtype is DataType.BAG:
        # COUNT(C) over the whole bag: values are the rows themselves.
        if builtin.name not in ("COUNT",):
            raise DataError(f"{builtin.name} needs a bag projection like C.field")
        bag_fn = arg.fn

        def values_fn(row):
            bag = bag_fn(row)
            return () if bag is None else bag

        arg_dtype = DataType.INT
    elif arg.is_bag_projection:
        values_fn = arg.fn
        arg_dtype = arg.dtype
    else:
        raise DataError(
            f"{builtin.name} is an aggregate; its argument must come from a "
            f"grouped bag (e.g. {builtin.name}(C.field)), got {arg.canonical}"
        )
    dtype = builtin.result_dtype([arg_dtype])
    impl = builtin.fn

    def fn(row):
        return impl(values_fn(row))

    canonical = f"{builtin.name}({arg.canonical})"
    return CompiledExpr(fn, dtype, canonical, name_hint=builtin.name.lower())


def schema_from_load_fields(field_specs, default_type=DataType.CHARARRAY):
    """Build a Schema from LOAD ... AS field specs."""
    fields = []
    for spec in field_specs:
        if spec.typename is None:
            dtype = default_type
        else:
            dtype = _CAST_TYPES.get(spec.typename)
            if dtype is None:
                raise DataError(f"unknown field type {spec.typename!r}")
        fields.append(Field(spec.name, dtype))
    return Schema(fields)

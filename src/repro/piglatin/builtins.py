"""Builtin functions: aggregates over bags plus a few scalar helpers.

Aggregate semantics follow Pig: nulls are skipped; SUM/MIN/MAX of an empty
or all-null input is null; COUNT counts rows. COUNT_DISTINCT is this
dialect's flat replacement for PigMix's nested ``distinct`` inside FOREACH
(the nested form is supported too: see README.md's package map and
:mod:`repro.piglatin.nested`).
"""

from repro.common.errors import DataError
from repro.data.types import DataType


class Builtin:
    """Descriptor for one builtin function."""

    __slots__ = ("name", "arity", "is_aggregate", "_result_dtype", "fn")

    def __init__(self, name, arity, is_aggregate, result_dtype, fn):
        self.name = name
        self.arity = arity
        self.is_aggregate = is_aggregate
        self._result_dtype = result_dtype
        self.fn = fn

    def result_dtype(self, arg_dtypes):
        if callable(self._result_dtype):
            return self._result_dtype(arg_dtypes)
        return self._result_dtype


def _non_null(values):
    return [value for value in values if value is not None]


def _agg_count(values):
    # COUNT works on a bag (rows) or a bag projection (scalars) alike.
    return len(values)


def _agg_sum(values):
    kept = _non_null(values)
    return sum(kept) if kept else None


def _agg_avg(values):
    kept = _non_null(values)
    return sum(kept) / len(kept) if kept else None


def _agg_min(values):
    kept = _non_null(values)
    return min(kept) if kept else None


def _agg_max(values):
    kept = _non_null(values)
    return max(kept) if kept else None


def _agg_count_distinct(values):
    return len(set(_non_null(values)))


def _sum_dtype(arg_dtypes):
    return DataType.DOUBLE if arg_dtypes[0] is DataType.DOUBLE else DataType.INT


def _same_dtype(arg_dtypes):
    return arg_dtypes[0]


def _scalar_round(value):
    return None if value is None else int(round(value))


def _scalar_abs(value):
    return None if value is None else abs(value)


def _scalar_upper(value):
    return None if value is None else value.upper()


def _scalar_lower(value):
    return None if value is None else value.lower()


def _scalar_strlen(value):
    return None if value is None else len(value)


def _scalar_concat(left, right):
    if left is None or right is None:
        return None
    return left + right


_BUILTINS = {
    builtin.name: builtin
    for builtin in [
        Builtin("COUNT", 1, True, DataType.INT, _agg_count),
        Builtin("SUM", 1, True, _sum_dtype, _agg_sum),
        Builtin("AVG", 1, True, DataType.DOUBLE, _agg_avg),
        Builtin("MIN", 1, True, _same_dtype, _agg_min),
        Builtin("MAX", 1, True, _same_dtype, _agg_max),
        Builtin("COUNT_DISTINCT", 1, True, DataType.INT, _agg_count_distinct),
        Builtin("ROUND", 1, False, DataType.INT, _scalar_round),
        Builtin("ABS", 1, False, _same_dtype, _scalar_abs),
        Builtin("UPPER", 1, False, DataType.CHARARRAY, _scalar_upper),
        Builtin("LOWER", 1, False, DataType.CHARARRAY, _scalar_lower),
        Builtin("STRLEN", 1, False, DataType.INT, _scalar_strlen),
        Builtin("CONCAT", 2, False, DataType.CHARARRAY, _scalar_concat),
    ]
}


def lookup_builtin(name):
    """Resolve a builtin by (case-insensitive) name; raises DataError."""
    builtin = _BUILTINS.get(name.upper())
    if builtin is None:
        known = ", ".join(sorted(_BUILTINS))
        raise DataError(f"unknown function {name!r}; builtins are: {known}")
    return builtin

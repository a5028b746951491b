"""Tuple/schema data model shared by the dataflow and MapReduce layers.

Rows are plain Python tuples for speed; schemas are carried by operators,
not by rows. Bags (the result of grouping) are tuples of rows. The codec
serializes batches of rows to a TSV-like text format with exact byte
accounting, which is what the simulated DFS stores and what the cost model
charges for.
"""

from repro.data.codec import (
    decode_lines,
    decode_row,
    encode_row,
    encode_rows,
    encoded_size,
)
from repro.data.comparators import key_sort_key
from repro.data.schema import Field, Schema
from repro.data.types import DataType, coerce_value, parse_value, render_value

__all__ = [
    "coerce_value",
    "DataType",
    "decode_lines",
    "decode_row",
    "encode_row",
    "encode_rows",
    "encoded_size",
    "Field",
    "key_sort_key",
    "parse_value",
    "render_value",
    "Schema",
]

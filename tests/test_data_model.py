"""Unit + property tests for repro.data: types, schema, codec, comparators."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from helpers import outcome, reference_decode_row, reference_encode_row
from repro.common.errors import DataError
from repro.data import (
    DataType,
    decode_lines,
    decode_row,
    encode_row,
    encode_rows,
    encoded_size,
    Field,
    key_sort_key,
    parse_value,
    render_value,
    Schema,
)
from repro.data.types import coerce_value, infer_type, numeric_result_type


class TestTypes:
    def test_parse_render_roundtrip_int(self):
        assert parse_value(render_value(42, DataType.INT), DataType.INT) == 42

    def test_parse_render_roundtrip_double(self):
        for value in (0.1, -3.75, 1e300, 2.0):
            text = render_value(value, DataType.DOUBLE)
            assert parse_value(text, DataType.DOUBLE) == value

    def test_null_round_trips(self):
        for dtype in (DataType.INT, DataType.DOUBLE, DataType.CHARARRAY):
            assert parse_value(render_value(None, dtype), dtype) is None

    def test_parse_bad_int_raises(self):
        with pytest.raises(DataError):
            parse_value("abc", DataType.INT)

    def test_coerce(self):
        assert coerce_value("5", DataType.INT) == 5
        assert coerce_value(5, DataType.DOUBLE) == 5.0
        assert coerce_value(5, DataType.CHARARRAY) == "5"
        assert coerce_value(None, DataType.INT) is None

    def test_coerce_failure(self):
        with pytest.raises(DataError):
            coerce_value("xyz", DataType.DOUBLE)

    def test_infer_type(self):
        assert infer_type(1) is DataType.INT
        assert infer_type(1.0) is DataType.DOUBLE
        assert infer_type("x") is DataType.CHARARRAY
        assert infer_type(((1,),)) is DataType.BAG

    def test_numeric_result_type(self):
        assert numeric_result_type(DataType.INT, DataType.INT) is DataType.INT
        assert numeric_result_type(DataType.INT, DataType.DOUBLE) is DataType.DOUBLE


def make_schema():
    return Schema(
        [
            Field("user", DataType.CHARARRAY),
            Field("timestamp", DataType.INT),
            Field("est_revenue", DataType.DOUBLE),
        ]
    )


class TestSchema:
    def test_lookup_by_name_and_position(self):
        schema = make_schema()
        assert schema.position_of("timestamp") == 1
        assert schema.field_at(2).name == "est_revenue"

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Schema([Field("a", DataType.INT), Field("a", DataType.INT)])

    def test_unknown_field_raises(self):
        with pytest.raises(DataError):
            make_schema().position_of("nope")

    def test_project(self):
        schema = make_schema().project([2, 0])
        assert schema.names == ("est_revenue", "user")

    def test_prefixed_and_short_name_lookup(self):
        schema = make_schema().prefixed("A")
        assert schema.names == ("A::user", "A::timestamp", "A::est_revenue")
        # Short names still resolve when unambiguous.
        assert schema.position_of("timestamp") == 1

    def test_join_schema_disambiguates(self):
        left = Schema([Field("name", DataType.CHARARRAY)])
        right = Schema([Field("name", DataType.CHARARRAY), Field("x", DataType.INT)])
        joined = Schema.join(left, right, "l", "r")
        assert joined.names == ("l::name", "r::name", "r::x")
        with pytest.raises(DataError):
            joined.position_of("name")  # ambiguous short name
        assert joined.position_of("x") == 2

    def test_canonical_is_stable(self):
        assert make_schema().canonical() == (
            "user:chararray, timestamp:int, est_revenue:double"
        )

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())


class TestCodec:
    def test_simple_roundtrip(self):
        schema = make_schema()
        row = ("alice", 123, 4.5)
        assert decode_row(encode_row(row, schema), schema) == row

    def test_null_fields_roundtrip(self):
        schema = make_schema()
        row = (None, None, None)
        assert decode_row(encode_row(row, schema), schema) == row

    def test_structural_characters_escape(self):
        schema = Schema([Field("s", DataType.CHARARRAY)])
        for nasty in ("a\tb", "a\nb", "a\\b", "a|b", "a,b", "({})", "\\t"):
            line = encode_row((nasty,), schema)
            assert "\t" not in line.replace("\\t", "")
            assert decode_row(line, schema) == (nasty,)

    def test_bag_roundtrip(self):
        element = Schema([Field("u", DataType.CHARARRAY), Field("n", DataType.INT)])
        schema = Schema([Field("g", DataType.CHARARRAY), Field("b", DataType.BAG, element)])
        # Note: empty-string chararray is indistinguishable from null in the
        # TSV encoding (same as Pig); avoid it here.
        bag = (("x", 1), ("y|z", None), (None, 3))
        row = ("grp", bag)
        assert decode_row(encode_row(row, schema), schema) == row

    def test_empty_bag_roundtrip(self):
        element = Schema([Field("n", DataType.INT)])
        schema = Schema([Field("b", DataType.BAG, element)])
        assert decode_row(encode_row(((),), schema), schema) == ((),)

    def test_wrong_arity_raises(self):
        schema = make_schema()
        with pytest.raises(DataError):
            encode_row(("only-one",), schema)
        with pytest.raises(DataError):
            decode_row("a\tb", schema)

    def test_encoded_size_counts_newline(self):
        assert encoded_size("abc") == 4
        assert encoded_size("") == 1

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.text(max_size=30)),
                st.one_of(st.none(), st.integers(-(10**9), 10**9)),
                st.one_of(
                    st.none(),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                ),
            ),
            max_size=20,
        )
    )
    def test_property_roundtrip(self, rows):
        schema = make_schema()
        for row in rows:
            # Null chararray and empty string collapse (documented TSV
            # ambiguity, same as Pig) — skip empty strings.
            if row[0] == "":
                continue
            assert decode_row(encode_row(row, schema), schema) == row


# Compiled codec vs the per-field reference ----------------------------------

_SCALAR_TYPES = [DataType.INT, DataType.DOUBLE, DataType.CHARARRAY]
# Every structural character, the escape letters, non-ASCII, digits.
_TEXT = st.text(alphabet="\\\t\n|,(){}tnpclraz q1-.é\u4e2d\x00", max_size=8)
_VALUES = {
    DataType.INT: st.one_of(
        st.none(), st.integers(-10**20, 10**20), st.booleans(),
        st.floats(-1e6, 1e6), st.sampled_from(["7", "x"])),
    DataType.DOUBLE: st.one_of(
        st.none(), st.floats(), st.integers(-10**6, 10**6), st.booleans(),
        st.sampled_from(["1.5", "x"])),
    DataType.CHARARRAY: st.one_of(st.none(), _TEXT, st.integers(0, 9)),
}


@st.composite
def _schemas(draw, depth=0):
    fields = []
    for position in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(_SCALAR_TYPES + [DataType.BAG]))
        element = None
        if dtype is DataType.BAG:
            if depth:
                # A bag inside a bag row: only its null can be written.
                element = Schema([Field("x", DataType.INT)])
            else:
                element = draw(_schemas(depth=1))
        fields.append(Field(f"f{position}", dtype, element))
    return Schema(fields)


def _rows_of(schema, depth=0):
    columns = []
    for field in schema.fields:
        if field.dtype is not DataType.BAG:
            columns.append(_VALUES[field.dtype])
        elif depth:
            columns.append(st.one_of(st.none(), st.just(((1,),))))
        else:
            inner = _rows_of(field.element, depth=1)
            ragged = inner.map(lambda row: row[:-1])
            columns.append(st.one_of(
                st.none(),
                st.lists(st.one_of(inner, inner, ragged), max_size=3)
                .map(tuple)))
    return st.tuples(*columns)


@st.composite
def _schema_and_rows(draw):
    schema = draw(_schemas())
    return schema, draw(st.lists(_rows_of(schema), min_size=1, max_size=6))


def _mangle(draw, line):
    """One of the ways a stored line goes bad."""
    cut = draw(st.integers(0, len(line)))
    junk = draw(st.sampled_from(
        ["\\", "\\q", "\t", "|", ",", "(", ")", "{", "}", "x", ""]))
    if draw(st.booleans()):
        return line[:cut] + junk + line[cut:]
    return line[:cut] + junk + line[cut + 1:]


class TestCompiledCodecAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_schema_and_rows())
    def test_rows_encode_and_decode_alike(self, schema_and_rows):
        schema, rows = schema_and_rows
        expected = [outcome(reference_encode_row, row, schema) for row in rows]
        assert [outcome(encode_row, row, schema) for row in rows] == expected
        failures = [result for result in expected if result[0] != "ok"]
        if failures:
            # A batch fails like its first bad row.
            assert outcome(encode_rows, rows, schema) == failures[0]
            rows = [row for row, result in zip(rows, expected)
                    if result[0] == "ok"]
        lines = [reference_encode_row(row, schema) for row in rows]
        assert encode_rows(rows, schema) == lines
        # (A line holding a bag row with a bag field decodes to an error.)
        decoded = [outcome(reference_decode_row, line, schema)
                   for line in lines]
        assert [outcome(decode_row, line, schema) for line in lines] == decoded
        if all(kind == "ok" for kind, _ in decoded):
            assert (repr(decode_lines(lines, schema))
                    == "[" + ", ".join(text for _, text in decoded) + "]")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bad_lines_fail_alike(self, data):
        schema, rows = data.draw(_schema_and_rows())
        lines = []
        for row in rows:
            kind, text = outcome(reference_encode_row, row, schema)
            if kind == "ok":
                lines.append(reference_encode_row(row, schema))
        lines = [_mangle(data.draw, line) if data.draw(st.booleans()) else line
                 for line in lines]
        lines.append(data.draw(_TEXT))
        expected = [outcome(reference_decode_row, line, schema)
                    for line in lines]
        assert [outcome(decode_row, line, schema) for line in lines] == expected
        for number, (kind, text) in enumerate(expected, 1):
            if kind != "ok":
                # The batch names the first bad line and says what it says.
                assert outcome(decode_lines, lines, schema) == (
                    kind, f"line {number}: {text}")
                break
        else:
            assert repr(decode_lines(lines, schema)) == repr(
                [reference_decode_row(line, schema) for line in lines])

    def test_empty_string_and_null_collapse_as_ever(self):
        schema = Schema([Field("s", DataType.CHARARRAY), Field("n", DataType.INT)])
        assert encode_rows([("", 1), (None, 1)], schema) == ["\t1", "\t1"]
        assert decode_lines(["\t1"], schema) == [(None, 1)]

    def test_batches_take_any_iterable(self):
        schema = make_schema()
        rows = [("a", 1, 2.0), ("b", 2, 2.5)]
        lines = encode_rows(iter(rows), schema)
        assert lines == [encode_row(row, schema) for row in rows]
        assert decode_lines(iter(lines), schema) == rows
        assert encode_rows([], schema) == [] == decode_lines([], schema)


class TestCompiledSchemaStaysAValue:
    """The compiled codec rides in a slot of the schema; it must not leak
    into what a schema *is* — nor into a pickle (worker queues pickle
    whatever the service sends, and the codec is made of closures)."""

    def compiled(self):
        element = Schema([Field("n", DataType.INT)])
        schema = Schema([Field("s", DataType.CHARARRAY),
                         Field("b", DataType.BAG, element)])
        encode_row(("x", ((1,),)), schema)
        assert schema._codec is not None
        return schema, Schema([Field("s", DataType.CHARARRAY),
                               Field("b", DataType.BAG, element)])

    def test_equal_and_hash_equal_to_a_fresh_twin(self):
        schema, twin = self.compiled()
        assert twin._codec is None
        assert schema == twin and hash(schema) == hash(twin)
        assert schema.canonical() == twin.canonical()
        assert {schema: 1}[twin] == 1

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, copy.copy,
        lambda schema: pickle.loads(pickle.dumps(schema)),
    ])
    def test_copies_drop_the_compiled_slot(self, clone):
        schema, twin = self.compiled()
        copied = clone(schema)
        assert copied == twin and copied._codec is None
        assert copied.position_of("b") == 1
        row = ("x", ((1,), (2,)))
        assert encode_row(row, copied) == encode_row(row, schema)


class TestComparators:
    def test_orders_nulls_first(self):
        values = ["b", None, "a"]
        assert sorted(values, key=key_sort_key) == [None, "a", "b"]

    def test_orders_mixed_numbers(self):
        values = [3, 1.5, 2]
        assert sorted(values, key=key_sort_key) == [1.5, 2, 3]

    def test_numbers_before_strings(self):
        values = ["a", 10, None]
        assert sorted(values, key=key_sort_key) == [None, 10, "a"]

    def test_composite_keys(self):
        keys = [("b", 1), ("a", 2), ("a", None)]
        assert sorted(keys, key=key_sort_key) == [("a", None), ("a", 2), ("b", 1)]

    def test_unorderable_type_raises(self):
        with pytest.raises(TypeError):
            key_sort_key(object())

    @given(st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=5))))
    def test_property_total_order(self, values):
        ordered = sorted(values, key=key_sort_key)
        assert sorted(ordered, key=key_sort_key) == ordered

"""Text codec for rows: a TSV dialect with full escaping and exact sizes.

Files in the simulated DFS hold lines produced by :func:`encode_rows`. The
format is tab-separated scalars; bag fields are rendered as
``{(f|f|f),(f|f|f)}``. All structural characters occurring inside values are
backslash-escaped, so arbitrary strings round-trip (property-tested).

The codec is **compiled per schema**: the first use of a
:class:`~repro.data.schema.Schema` builds one encoder and one decoder per
column (or finds the pair built for an earlier schema with the same column
types) and parks it in the schema's ``_codec`` slot, so no row ever
dispatches on a ``DataType`` again. Both directions work a *batch* at a
time, column by column — a column of ints is ``map(str, column)``, a
column of strings is swept for structural characters once, as one joined
text — and :func:`encode_row` / :func:`decode_row` are batches of one.
When a batch fails it is re-run one item at a time, so the error raised
is the first bad row's (or bag row's) own: the one a row-at-a-time walk
would have hit first.

Byte accounting: the cost model charges for ``len(line.encode()) + 1`` per
row (the newline), mirroring what Hadoop's TextOutputFormat would write.
"""

import re
from itertools import chain, islice, repeat
from operator import contains

from repro.common.errors import DataError
from repro.data.types import DataType

_ESCAPES = {
    "\\": "\\\\",
    "\t": "\\t",
    "\n": "\\n",
    "|": "\\p",
    ",": "\\c",
    "(": "\\l",
    ")": "\\r",
    "{": "\\a",
    "}": "\\z",
}
_UNESCAPES = {escaped[1]: raw for raw, escaped in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_needs_escape = re.compile("[" + re.escape("".join(_ESCAPES)) + "]").search
# Joins a column into one text to sweep it for structural characters; any
# character would do, a structural one in the glue only costs time.
_COLUMN_GLUE = "\x00"


def _escape(text):
    return text.translate(_ESCAPE_TABLE) if _needs_escape(text) else text


def _unescape(text):
    if "\\" not in text:
        return text
    out = []
    chars = iter(text)
    for char in chars:
        if char != "\\":
            out.append(char)
            continue
        try:
            marker = next(chars)
        except StopIteration as exc:
            raise DataError(f"dangling escape in {text!r}") from exc
        try:
            out.append(_UNESCAPES[marker])
        except KeyError as exc:
            raise DataError(f"unknown escape \\{marker} in {text!r}") from exc
    return "".join(out)


def _one_at_a_time(run, items):
    """Re-run a failed batch item by item: the first bad item raises its
    own first error, which is what a row-at-a-time walk reports. Returns
    only when each item passes alone; the caller then re-raises."""
    if len(items) > 1:
        for item in items:
            run([item])


# Column encoders: the values of one column -> their texts -------------------
#
# INT and DOUBLE texts never hold a structural character; only strings are
# swept, and only a column that has one is escaped value by value.


def _per_column(schema, scalars, of_bag):
    """One callable per column: ``of_bag(field)`` for a bag column, the
    ``scalars`` entry of its type for any other."""
    return tuple(
        of_bag(field) if field.dtype is DataType.BAG else scalars[field.dtype]
        for field in schema.fields
    )


def _encode_ints(values):
    if set(map(type, values)) == {int}:
        return map(str, values)
    return ["" if value is None else str(int(value)) for value in values]


def _encode_doubles(values):
    # repr round-trips floats exactly; ints-as-doubles stay readable.
    if set(map(type, values)) == {float}:
        return map(repr, values)
    return ["" if value is None else repr(float(value)) for value in values]


def _encode_strings(values):
    if set(map(type, values)) != {str}:
        values = ["" if value is None else str(value) for value in values]
    if not any(map(_COLUMN_GLUE.join(values).__contains__, _ESCAPES)):
        return values
    return [_escape(text) for text in values]


def _encode_nested_bags(values):
    # The format cannot hold a bag inside a bag row; only its null.
    if any(value is not None for value in values):
        raise DataError(f"cannot render type {DataType.BAG!r} with render_value")
    return repeat("", len(values))


_SCALAR_ENCODERS = {
    DataType.INT: _encode_ints,
    DataType.DOUBLE: _encode_doubles,
    DataType.CHARARRAY: _encode_strings,
}


def _bag_encoder(field):
    """Encoder of a bag column: all the column's bag rows go through the
    element schema's column encoders as one flat batch."""
    encoders = _per_column(field.element, _SCALAR_ENCODERS,
                           lambda inner: _encode_nested_bags)
    width = len(encoders)

    def encode_bag_rows(rows):
        if not width or set(map(len, rows)) != {width}:
            # Ragged rows are zipped against the schema one by one, as
            # ever: a short row loses fields, a long one its extras.
            return [
                "(" + "|".join(chain.from_iterable(
                    encode((value,)) for encode, value in zip(encoders, row)
                )) + ")"
                for row in rows
            ]
        try:
            columns = [encode(column) for encode, column
                       in zip(encoders, zip(*rows))]
            return ["(" + text + ")" for text in map("|".join, zip(*columns))]
        except Exception:
            _one_at_a_time(encode_bag_rows, rows)
            raise

    def encode_bags(values):
        texts = iter(encode_bag_rows(list(chain.from_iterable(
            value for value in values if value is not None))))
        return [
            "" if value is None
            else "{" + ",".join(islice(texts, len(value))) + "}"
            for value in values
        ]

    return encode_bags


def _batch_encoder(schema):
    encoders = _per_column(schema, _SCALAR_ENCODERS, _bag_encoder)
    width = len(encoders)

    def encode(rows):
        if set(map(len, rows)) != {width}:
            for row in rows:
                if len(row) != width:
                    raise DataError(
                        f"row has {len(row)} fields, schema expects {width}")
        if not width:
            return [""] * len(rows)
        columns = [encode_column(column) for encode_column, column
                   in zip(encoders, zip(*rows))]
        return list(map("\t".join, zip(*columns)))

    return encode


# Column decoders: the texts of one column -> their values -------------------
#
# Each takes ``(texts, escaped)``; ``escaped`` says some text of the batch
# holds a backslash, so fields are unescaped before they are parsed.


def _number_decoder(convert, name):
    def decode(texts, escaped):
        if escaped:
            texts = [_unescape(text) for text in texts]
        try:
            if "" in texts:
                return [convert(text) if text else None for text in texts]
            return list(map(convert, texts))
        except ValueError:
            for text in texts:
                if text:
                    try:
                        convert(text)
                    except ValueError as exc:
                        raise DataError(f"bad {name} literal {text!r}") from exc
            raise

    return decode


def _decode_strings(texts, escaped):
    if escaped:
        return [_unescape(text) if "\\" in text else (text or None)
                for text in texts]
    if "" in texts:
        return [text or None for text in texts]
    return texts


def _decode_nested_bags(texts, escaped):
    # Nothing can be read back into a bag inside a bag row, not even the
    # null that may be written; a broken escape is still reported first.
    if texts:
        _unescape(texts[0])
        raise DataError("bags are parsed by the codec, not parse_value")
    return texts


_SCALAR_DECODERS = {
    DataType.INT: _number_decoder(int, "int"),
    DataType.DOUBLE: _number_decoder(float, "double"),
    DataType.CHARARRAY: _decode_strings,
}


def _batch_decoder(schema, separator, bag_decoder, arity_error):
    """Decoder of ``separator``-joined texts into row tuples, by column."""
    decoders = _per_column(schema, _SCALAR_DECODERS, bag_decoder)
    width = len(decoders)

    def decode(texts):
        split = list(map(str.split, texts, repeat(separator)))
        if set(map(len, split)) != {width}:
            for fields, text in zip(split, texts):
                if len(fields) != width:
                    raise DataError(arity_error(len(fields), width, text))
        escaped = any(map(contains, texts, repeat("\\")))
        columns = [decode_column(column, escaped) for decode_column, column
                   in zip(decoders, zip(*split))]
        return list(zip(*columns))

    return decode


def _bag_row_arity_error(found, width, text):
    return f"bag row has {found} fields, schema expects {width}"


def _line_arity_error(found, width, line):
    return f"line has {found} fields, schema expects {width}: {line!r}"


def _bag_decoder(field):
    """Decoder of a bag column: the ``(f|f|f)`` chunks of all the column's
    bags are decoded under the element schema as one flat batch."""
    decode_fields = _batch_decoder(
        field.element, "|", lambda inner: _decode_nested_bags,
        _bag_row_arity_error)

    def decode_bag_rows(chunks):
        try:
            if not (all(map(str.startswith, chunks, repeat("(")))
                    and all(map(str.endswith, chunks, repeat(")")))):
                for chunk in chunks:
                    if not (chunk.startswith("(") and chunk.endswith(")")):
                        raise DataError(f"bad bag row {chunk!r}")
            return decode_fields([chunk[1:-1] for chunk in chunks])
        except DataError:
            _one_at_a_time(decode_bag_rows, chunks)
            raise

    def decode_bags(texts, escaped):
        sizes = []   # per text: None for a null, else its number of rows
        chunks = []
        for text in texts:
            if text == "":
                sizes.append(None)
                continue
            if not (text.startswith("{") and text.endswith("}")):
                raise DataError(f"bad bag literal {text!r}")
            body = text[1:-1]
            of_bag = body.split(",") if body else ()
            sizes.append(len(of_bag))
            chunks.extend(of_bag)
        rows = iter(decode_bag_rows(chunks))
        return [
            None if size is None else tuple(islice(rows, size))
            for size in sizes
        ]

    return decode_bags


class _RowCodec:
    """The compiled pair of one schema; lives in ``Schema._codec``."""

    __slots__ = ("encode", "decode")

    def __init__(self, schema):
        self.encode = _batch_encoder(schema)
        self.decode = _batch_decoder(schema, "\t", _bag_decoder,
                                     _line_arity_error)


#: column types -> the codec every schema of those types shares. Names play
#: no part in the text format, and a compile makes fresh Schema objects
#: for every query: a codec per object would leave thousands of closures
#: alive in the repository's plans for a handful of distinct shapes.
_CODECS = {}


def _column_types(schema):
    return tuple(
        (field.dtype, _column_types(field.element))
        if field.dtype is DataType.BAG else field.dtype
        for field in schema.fields
    )


def _codec_of(schema):
    codec = schema._codec
    if codec is None:
        types = _column_types(schema)
        codec = _CODECS.get(types)
        if codec is None:
            codec = _CODECS[types] = _RowCodec(schema)
        schema._codec = codec
    return codec


def encode_rows(rows, schema):
    """Serialize ``rows`` (an iterable of tuples) under ``schema``, one text
    line each. A bad row raises what encoding it alone raises."""
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    encode = _codec_of(schema).encode
    try:
        return encode(rows)
    except Exception:
        _one_at_a_time(encode, rows)
        raise


def decode_lines(lines, schema):
    """Parse text ``lines`` (an iterable) back into row tuples under
    ``schema``. The first bad line raises the :class:`DataError` that
    :func:`decode_row` raises for it, prefixed with its 1-based number."""
    if not isinstance(lines, (list, tuple)):
        lines = list(lines)
    decode = _codec_of(schema).decode
    try:
        return decode(lines)
    except DataError:
        for number, line in enumerate(lines, 1):
            try:
                decode((line,))
            except DataError as exc:
                raise DataError(f"line {number}: {exc}") from exc
        raise


def encode_row(row, schema):
    """Serialize ``row`` (a tuple) under ``schema`` to one text line."""
    return _codec_of(schema).encode((row,))[0]


def decode_row(line, schema):
    """Parse one text line back into a row tuple under ``schema``."""
    return _codec_of(schema).decode((line,))[0]


def encoded_size(line):
    """Bytes this line occupies on (simulated) disk, newline included."""
    return len(line.encode("utf-8")) + 1

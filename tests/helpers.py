"""Shared fixtures/helpers for integration-style tests.

Builds a small cost model and provides the compile pipeline as one call,
so tests read like user code.
"""

import importlib.util
import os

from repro.common import DeterministicRng
from repro.common.errors import DataError, ParseError
from repro.data import (
    DataType,
    encode_row,
    Field,
    key_sort_key,
    parse_value,
    render_value,
    Schema,
)
from repro.logical import build_logical_plan
from repro.mapreduce import ClusterConfig, CostModel, CostModelConfig
from repro.mapreduce.shuffle import partition_index
from repro.mrcompiler import compile_to_workflow
from repro.physical import logical_to_physical
from repro.piglatin import parse_query
from repro.piglatin.tokens import SYMBOLS, Token, TokenKind

PAGE_VIEWS_SCHEMA = Schema(
    [
        Field("user", DataType.CHARARRAY),
        Field("timestamp", DataType.INT),
        Field("est_revenue", DataType.DOUBLE),
        Field("page_info", DataType.CHARARRAY),
        Field("page_links", DataType.CHARARRAY),
    ]
)

USERS_SCHEMA = Schema(
    [
        Field("name", DataType.CHARARRAY),
        Field("phone", DataType.CHARARRAY),
        Field("address", DataType.CHARARRAY),
        Field("city", DataType.CHARARRAY),
    ]
)


def make_cost_model(scale=1.0):
    return CostModel(CostModelConfig(scale=scale), ClusterConfig())


def write_rows(dfs, path, rows, schema):
    lines = [encode_row(row, schema) for row in rows]
    return dfs.write_lines(path, lines, overwrite=True)


def seed_page_views(dfs, num_rows=60, num_users=10, path="/data/page_views", seed=7):
    """Small deterministic page_views table; users drawn from u0..u{n-1}."""
    rng = DeterministicRng(seed).substream("page_views")
    rows = []
    for index in range(num_rows):
        user = f"u{rng.randint(0, num_users - 1)}"
        timestamp = rng.randint(0, 86400)
        revenue = round(rng.uniform(0.0, 10.0), 2)
        rows.append((user, timestamp, revenue, f"info{index}", f"links{index}"))
    write_rows(dfs, path, rows, PAGE_VIEWS_SCHEMA)
    return rows


def seed_users(dfs, num_users=10, path="/data/users", include=None, seed=7):
    """Users table covering u0..u{n-1} (optionally only a subset)."""
    rows = []
    for index in range(num_users):
        if include is not None and index not in include:
            continue
        rows.append((f"u{index}", f"555-{index:04d}", f"{index} Main St", "Waterloo"))
    write_rows(dfs, path, rows, USERS_SCHEMA)
    return rows


def compile_query(text, name, dfs=None):
    """Full front-end pipeline: text -> AST -> logical -> physical -> jobs."""
    logical = build_logical_plan(parse_query(text))
    versions = {}
    if dfs is not None:
        for path in {op.path for op in logical.sources()}:
            if dfs.exists(path):
                versions[path] = dfs.status(path).version
    physical = logical_to_physical(logical, versions)
    return compile_to_workflow(physical, name)


def load_querygen():
    """The e2e benchmark's seeded query generator
    (``benchmarks/e2e/querygen.py``), imported by path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "benchmarks", "e2e", "querygen.py")
    spec = importlib.util.spec_from_file_location("e2e_querygen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


Q1_TEXT = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, est_revenue;
alpha = load '/data/users' as (name:chararray, phone:chararray,
    address:chararray, city:chararray);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into '/out/L2_out';
"""

Q2_TEXT = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, est_revenue;
alpha = load '/data/users' as (name:chararray, phone:chararray,
    address:chararray, city:chararray);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into '/out/L3_out';
"""


def outcome(function, *args):
    """What a call did, in a form two implementations can be compared by:
    the repr of the result (nan-safe, and 2 is not 2.0) or the error's
    type and text."""
    try:
        return "ok", repr(function(*args))
    except Exception as exc:  # whatever it raises is the thing compared
        return type(exc).__name__, str(exc)


# Reference implementations ---------------------------------------------------
#
# The row codec and the shuffle as they were before they worked a batch at
# a time: one field, one row at a time, dispatching on the type per field.
# The lexer as it was before it became one regular expression: a loop per
# character with a startswith probe per symbol. Tests compare the current
# versions against these.

_REFERENCE_NAME_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REFERENCE_NAME_BODY = _REFERENCE_NAME_START | frozenset("0123456789")
_REFERENCE_DIGITS = frozenset("0123456789")


def reference_tokenize(text):
    """Tokenize ``text`` into a list of :class:`Token` ending with EOF."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    length = len(text)

    def column():
        return pos - line_start + 1

    while pos < length:
        char = text[pos]
        # Whitespace ---------------------------------------------------------
        if char in " \t\r":
            pos += 1
            continue
        if char == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        # Comments: -- to end of line, /* ... */ ------------------------------
        if text.startswith("--", pos):
            newline = text.find("\n", pos)
            pos = length if newline < 0 else newline
            continue
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end < 0:
                raise ParseError("unterminated /* comment", line, column())
            segment = text[pos : end + 2]
            line += segment.count("\n")
            if "\n" in segment:
                line_start = pos + segment.rfind("\n") + 1
            pos = end + 2
            continue
        # Strings -------------------------------------------------------------
        if char == "'":
            end = pos + 1
            chunks = []
            while True:
                if end >= length:
                    raise ParseError("unterminated string literal", line, column())
                if text[end] == "\\" and end + 1 < length:
                    chunks.append(text[end + 1])
                    end += 2
                    continue
                if text[end] == "'":
                    break
                if text[end] == "\n":
                    raise ParseError("newline in string literal", line, column())
                chunks.append(text[end])
                end += 1
            tokens.append(Token(TokenKind.STRING, "".join(chunks), line, column()))
            pos = end + 1
            continue
        # Positional references -----------------------------------------------
        if char == "$":
            end = pos + 1
            while end < length and text[end] in _REFERENCE_DIGITS:
                end += 1
            if end == pos + 1:
                raise ParseError("expected digits after $", line, column())
            tokens.append(Token(TokenKind.DOLLAR, text[pos + 1 : end], line, column()))
            pos = end
            continue
        # Numbers ---------------------------------------------------------------
        if char in _REFERENCE_DIGITS:
            end = pos
            seen_dot = False
            while end < length and (text[end] in _REFERENCE_DIGITS
                                    or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # A dot not followed by a digit is a dereference, not a decimal.
                    if end + 1 >= length or text[end + 1] not in _REFERENCE_DIGITS:
                        break
                    seen_dot = True
                end += 1
            literal = text[pos:end]
            kind = TokenKind.DOUBLE if seen_dot else TokenKind.INT
            tokens.append(Token(kind, literal, line, column()))
            pos = end
            continue
        # Names / keywords ------------------------------------------------------
        if char in _REFERENCE_NAME_START:
            end = pos
            while end < length and text[end] in _REFERENCE_NAME_BODY:
                end += 1
            tokens.append(Token(TokenKind.NAME, text[pos:end], line, column()))
            pos = end
            continue
        # Symbols ------------------------------------------------------------------
        for symbol in SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(Token(TokenKind.SYMBOL, symbol, line, column()))
                pos += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column())

    tokens.append(Token(TokenKind.EOF, "", line, column()))
    return tokens


_REFERENCE_ESCAPES = {
    "\\": "\\\\", "\t": "\\t", "\n": "\\n", "|": "\\p", ",": "\\c",
    "(": "\\l", ")": "\\r", "{": "\\a", "}": "\\z",
}
_REFERENCE_UNESCAPES = {
    escaped[1]: raw for raw, escaped in _REFERENCE_ESCAPES.items()}


def _reference_escape(text):
    if not set(_REFERENCE_ESCAPES).intersection(text):
        return text
    return "".join(_REFERENCE_ESCAPES.get(char, char) for char in text)


def _reference_unescape(text):
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
            out.append(_REFERENCE_UNESCAPES[marker])
        except KeyError as exc:
            raise DataError(f"unknown escape \\{marker} in {text!r}") from exc
    return "".join(out)


def _reference_encode_bag(bag, element_schema):
    rows = []
    for row in bag:
        parts = [
            _reference_escape(render_value(value, field.dtype))
            for value, field in zip(row, element_schema.fields)
        ]
        rows.append("(" + "|".join(parts) + ")")
    return "{" + ",".join(rows) + "}"


def _reference_decode_bag(text, element_schema):
    if not (text.startswith("{") and text.endswith("}")):
        raise DataError(f"bad bag literal {text!r}")
    body = text[1:-1]
    if not body:
        return ()
    rows = []
    for chunk in body.split(","):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise DataError(f"bad bag row {chunk!r}")
        raw_fields = chunk[1:-1].split("|")
        if len(raw_fields) != len(element_schema):
            raise DataError(
                f"bag row has {len(raw_fields)} fields, schema expects {len(element_schema)}"
            )
        rows.append(
            tuple(
                parse_value(_reference_unescape(raw), field.dtype)
                for raw, field in zip(raw_fields, element_schema.fields)
            )
        )
    return tuple(rows)


def reference_encode_row(row, schema):
    if len(row) != len(schema):
        raise DataError(f"row has {len(row)} fields, schema expects {len(schema)}")
    parts = []
    for value, field in zip(row, schema.fields):
        if field.dtype is DataType.BAG:
            if value is None:
                parts.append("")
            else:
                parts.append(_reference_encode_bag(value, field.element))
        else:
            parts.append(_reference_escape(render_value(value, field.dtype)))
    return "\t".join(parts)


def reference_decode_row(line, schema):
    raw_fields = line.split("\t")
    if len(raw_fields) != len(schema):
        raise DataError(
            f"line has {len(raw_fields)} fields, schema expects {len(schema)}: {line!r}"
        )
    values = []
    for raw, field in zip(raw_fields, schema.fields):
        if field.dtype is DataType.BAG:
            values.append(None if raw == "" else _reference_decode_bag(raw, field.element))
        else:
            values.append(parse_value(_reference_unescape(raw), field.dtype))
    return tuple(values)


def reference_grouped_partitions(keyed_rows, num_partitions):
    """Sort-then-scan: hash and sort-key every row, sort each partition by
    (key, arrival), start a group wherever the sort key changes."""
    buckets = [[] for _ in range(num_partitions)]
    for sequence, (branch, key, row) in enumerate(keyed_rows):
        buckets[partition_index(key, num_partitions)].append(
            (key_sort_key(key), sequence, branch, key, row)
        )
    partitions = []
    for bucket in buckets:
        bucket.sort(key=lambda item: (item[0], item[1]))
        groups = []
        current_key_sort = object()
        current = None
        for sort_key, _, branch, key, row in bucket:
            if current is None or sort_key != current_key_sort:
                current = (key, {})
                groups.append(current)
                current_key_sort = sort_key
            current[1].setdefault(branch, []).append(row)
        partitions.append(groups)
    return partitions


def probe_order(repository, candidates):
    """The paper's Section 3 order of ``candidates``, computed from the
    entry set alone: priority-greedy Kahn over the candidates plus their
    transitive subsumption ancestors (``_edges_in``), keeping only the
    candidates.

    The set is closed under ancestors, so every blocker of a member is a
    member and nothing outside the set can change its ready set: its
    greedy order is the whole repository's greedy order restricted to
    it. The oracle a probe's candidate tuple is checked against; it
    reads only the edge sets and the entries' stats."""
    by_id = repository._by_id
    edges_in = repository._edges_in
    closure = set()
    frontier = [entry.entry_id for entry in candidates]
    while frontier:
        entry_id = frontier.pop()
        if entry_id not in closure:
            closure.add(entry_id)
            frontier.extend(edges_in[entry_id])

    def priority(entry_id):
        entry = by_id[entry_id]
        return (-entry.stats.reduction_ratio,
                -entry.stats.producing_job_time,
                entry._sequence)

    blockers = {entry_id: len(edges_in[entry_id]) for entry_id in closure}
    ready = sorted((entry_id for entry_id, count in blockers.items()
                    if count == 0), key=priority)
    ordered = []
    while ready:
        entry_id = ready.pop(0)
        ordered.append(entry_id)
        for dependent_id in repository._edges_out[entry_id]:
            if dependent_id in blockers:
                blockers[dependent_id] -= 1
                if blockers[dependent_id] == 0:
                    ready.append(dependent_id)
                    ready.sort(key=priority)
    wanted = {entry.entry_id for entry in candidates}
    return tuple(by_id[entry_id] for entry_id in ordered
                 if entry_id in wanted)

"""The Pig Latin front end against what it was before the one-regex lexer.

Tokens (kind, text, line, column) and every ``ParseError`` text are
compared with ``tests.helpers.reference_tokenize``, the per-character lexer
kept verbatim; the parser's ASTs over three corpora are pinned by digests
taken before the parser indexed one key per token. The one intended
divergence — an escaped newline inside a string literal advances the line
counter — is tested on its own, and the differential filters that input
out rather than patch the reference.

Tier-1 runs a small derandomised sample. CI's fuzz step runs the same
property at the ``piglatin-fuzz`` profile's budget (``tests/conftest.py``)::

    PYTHONPATH=src python -m pytest -q tests/test_piglatin_differential.py \\
        --hypothesis-profile=piglatin-fuzz
"""

import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import ParseError
from repro.piglatin import parse_query, tokenize
from repro.piglatin.tokens import SYMBOLS
from repro.pigmix import query_text
from tests.helpers import load_querygen, outcome, reference_tokenize
from tests.test_nested_foreach import L4_STYLE, L7_STYLE
from tests.test_pigmix import GOLDEN_QUERIES
from tests.test_split_statement import SPLIT_QUERY

#: every symbol, every character that opens a token or a comment, numbers
#: at the decimal-point edge cases, line breaks, and characters outside
#: ASCII (a letter and a digit) that no token may take
PIECES = (list(SYMBOLS) + [
    "'", "\\", "$", "--", "/*", "*/", "!", "~", "0", "7", "42", "00.9",
    "1.2.3", "1.", "\r", "\n", "\t", " ", "a", "x_1", "Load", "é", "٣",
])
SCRIPTS = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)

if settings.get_current_profile_name() == "piglatin-fuzz":
    BUDGET = settings()
else:
    BUDGET = settings(max_examples=400, derandomize=True, deadline=None)


def corpora():
    querygen = load_querygen()
    return {
        "pigmix": [query_text(name) for name in GOLDEN_QUERIES],
        "querygen": [query.text for query in querygen.querygen(7, 500)],
        "split_nested": [SPLIT_QUERY, L4_STYLE, L7_STYLE],
    }


@BUDGET
@given(SCRIPTS)
def test_tokens_and_errors_match_reference(text):
    assume("\\\n" not in text)  # the escaped-newline fix, tested below
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


class TestCorpora:
    #: corpus -> SHA-1 over the repr of each script's AST
    AST_DIGESTS = {
        "pigmix": "87edabebad613414c02022ce071ecef99b99a33f",
        "querygen": "a73f81cf72a75cb8edfc0988518c68cff8979e1d",
        "split_nested": "be36b1714b5d4943bf5a3324fd4956806d6f451e",
    }

    @pytest.fixture(scope="class")
    def scripts(self):
        return corpora()

    def test_tokens_match_reference(self, scripts):
        for texts in scripts.values():
            for text in texts:
                assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_asts_are_pinned(self, scripts):
        got = {name: hashlib.sha1("\n".join(
                   repr(parse_query(text)) for text in texts).encode()).hexdigest()
               for name, texts in scripts.items()}
        assert got == self.AST_DIGESTS


def test_unclosed_loader_arguments_raise():
    # Skipping a loader's arguments used to spin on the EOF forever.
    with pytest.raises(ParseError, match="unterminated loader arguments"):
        parse_query("A = load 'x' using PigStorage(',' ")


class TestEscapedNewline:
    TEXT = "a = load 'x\\\ny';\nb"

    def test_line_counter_advances(self):
        tokens = tokenize(self.TEXT)
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("=", 1, 3), ("load", 1, 5), ("x\ny", 1, 10),
            (";", 2, 3), ("b", 3, 1), ("", 3, 2)]

    def test_later_errors_carry_the_right_line(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("a = 'x\\\ny' ~")
        assert (excinfo.value.line, excinfo.value.column) == (2, 4)

"""Unit tests for repro.common: errors, rng, units, clock."""

import random

import pytest

from repro.common import DeterministicRng, LogicalClock, format_bytes, GB, KB, MB
from repro.common.errors import DataError, ParseError, ReproError
from repro.common.units import format_minutes


class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 1000) for _ in range(20)] == [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = [DeterministicRng(1).randint(0, 10**9) for _ in range(5)]
        b = [DeterministicRng(2).randint(0, 10**9) for _ in range(5)]
        assert a != b

    def test_substream_is_stable_regardless_of_order(self):
        rng1 = DeterministicRng(7)
        users_first = rng1.substream("users").randint(0, 10**9)
        rng2 = DeterministicRng(7)
        rng2.substream("page_views").randint(0, 10**9)
        users_second = rng2.substream("users").randint(0, 10**9)
        assert users_first == users_second

    def test_substreams_are_independent(self):
        rng = DeterministicRng(7)
        a = rng.substream("a")
        b = rng.substream("b")
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_rand_string_length_and_alphabet(self):
        rng = DeterministicRng(3)
        text = rng.rand_string(20)
        assert len(text) == 20
        assert text.islower()

    def test_rand_string_golden_stream(self):
        # Pins the exact draws (one `random.choice` per character, i.e.
        # getrandbits + rejection) and the generator state they leave
        # behind: generated tables, and every benchmark number derived
        # from their bytes, depend on both.
        rng = DeterministicRng(2012)
        assert rng.rand_string(12) == "dplgksaqtjkp"
        assert rng.rand_string(5, "xyz") == "xyyxy"
        assert rng.rand_string(7, "0123456789abcdef") == "95d9b90"
        assert rng.rand_string(0) == ""
        assert rng.random() == 0.8571403712384045

    @pytest.mark.parametrize("alphabet", [
        "abcdefghijklmnopqrstuvwxyz", "xyz", "a", "0123456789abcdef",
        "".join(map(chr, range(255))),           # widest one-byte index
        "".join(map(chr, range(256))),           # 9-bit index: loop path
        "αβγδ",                                  # not latin-1: loop path
    ], ids=["lower", "xyz", "one", "hex", "255", "256", "greek"])
    def test_rand_string_is_one_choice_per_character(self, alphabet):
        # The bulk draw must leave the strings and the generator exactly
        # where `random.choice` per character leaves them, on both sides
        # of the byte-table cut.
        for seed in range(8):
            for length in (0, 1, 5, 20, 179, 419):
                rng, reference = DeterministicRng(seed), random.Random(seed)
                assert rng.rand_string(length, alphabet) == "".join(
                    reference.choice(alphabet) for _ in range(length))
                assert rng.random() == reference.random()

    def test_rand_string_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).rand_string(3, "")

    def test_choice_and_shuffle_deterministic(self):
        rng = DeterministicRng(5)
        items = list(range(10))
        rng.shuffle(items)
        rng2 = DeterministicRng(5)
        items2 = list(range(10))
        rng2.shuffle(items2)
        assert items == items2


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * 1024
        assert GB == 1024**3

    def test_format_bytes_small(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(27) == "27 B"
        assert format_bytes(1023) == "1023 B"

    def test_format_bytes_units(self):
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(int(1.5 * MB)) == "1.5 MB"
        assert format_bytes(int(2.5 * GB)) == "2.5 GB"

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_format_minutes(self):
        assert format_minutes(90) == "1.5 min"


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().now() == 0

    def test_tick_advances(self):
        clock = LogicalClock()
        assert clock.tick() == 1
        assert clock.tick(3) == 4
        assert clock.now() == 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LogicalClock(-1)
        with pytest.raises(ValueError):
            LogicalClock().tick(0)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(DataError, ReproError)

    def test_parse_error_position(self):
        err = ParseError("bad token", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7

"""Deterministic random number generation.

Data generators must produce identical datasets across runs and platforms,
so they draw from :class:`DeterministicRng`, a thin wrapper over
:class:`random.Random` that also supports stable substreams: the generator
for ``users`` data does not perturb the stream for ``page_views``.
"""

import functools
import random
import zlib


class DeterministicRng:
    """Seeded RNG with named, independent substreams.

    >>> rng = DeterministicRng(7)
    >>> a = rng.substream("users").randint(0, 100)
    >>> b = DeterministicRng(7).substream("users").randint(0, 100)
    >>> a == b
    True
    """

    def __init__(self, seed):
        self._seed = int(seed)
        self._random = random.Random(self._seed)

    @property
    def seed(self):
        return self._seed

    def substream(self, name):
        """Return a new :class:`DeterministicRng` derived from ``name``.

        The derivation hashes the name with CRC32 so substreams are stable
        regardless of the order they are requested in.
        """
        derived = (self._seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF
        return DeterministicRng(derived)

    # Delegation to the underlying random.Random -------------------------

    def randint(self, low, high):
        return self._random.randint(low, high)

    def random(self):
        return self._random.random()

    def uniform(self, low, high):
        return self._random.uniform(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def choices(self, population, weights=None, k=1):
        return self._random.choices(population, weights=weights, k=k)

    def shuffle(self, seq):
        self._random.shuffle(seq)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def rand_string(self, length, alphabet="abcdefghijklmnopqrstuvwxyz"):
        """Return a random string of ``length`` characters from ``alphabet``.

        Draws exactly what one ``random.choice(alphabet)`` per character
        draws on CPython 3.10-3.12 (``getrandbits`` of the alphabet
        size's bit length, values past the end rejected) without that
        call chain, so strings and generator state are unchanged.
        """
        size = len(alphabet)
        if not size:
            raise ValueError("cannot draw characters from an empty alphabet")
        getrandbits = self._random.getrandbits
        tables = _byte_tables(alphabet)
        if tables is None:
            bits = size.bit_length()
            chars = []
            while len(chars) < length:
                index = getrandbits(bits)
                if index < size:
                    chars.append(alphabet[index])
            return "".join(chars)
        # One generator word per candidate character, as above, but drawn
        # in bulk: getrandbits(32 * n) is n consecutive words, least
        # significant first, and getrandbits(bits <= 8) is the top bits
        # of one word, i.e. of its top byte. Never more words than
        # characters still missing, so the generator ends where the
        # per-character loop would leave it.
        keep, reject = tables
        drawn = b""
        missing = length
        while missing > 0:
            words = getrandbits(32 * missing).to_bytes(4 * missing, "little")
            drawn += words[3::4].translate(keep, reject)
            missing = length - len(drawn)
        return drawn.decode("latin-1")


@functools.lru_cache(maxsize=16)
def _byte_tables(alphabet):
    """``bytes.translate`` arguments turning the top byte of each
    generator word into its ``alphabet`` character (``keep``) or nothing
    (``reject``: the index drawn lies past the alphabet's end) — or None
    when a byte cannot hold the index or a character."""
    size = len(alphabet)
    shift = 8 - size.bit_length()
    if shift < 0:
        return None
    try:
        encoded = alphabet.encode("latin-1")
    except UnicodeEncodeError:
        return None
    keep = bytes(encoded[byte >> shift] if byte >> shift < size else 0
                 for byte in range(256))
    reject = bytes(byte for byte in range(256) if byte >> shift >= size)
    return keep, reject

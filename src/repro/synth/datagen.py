"""Synthetic dataset generator for Section 7.5 (Table 2).

* ``field1..field5`` — random strings of length 20 (projection studies);
* ``field6..field12`` — integers whose cardinality controls the fraction
  of rows an equality predicate selects (Table 2):

  ========  ===========  ===========
  field     cardinality  % selected
  ========  ===========  ===========
  field6    200          0.5%
  field7    100          1%
  field8    20           5%
  field9    10           10%
  field10   5            20%
  field11   2            50%
  field12   "1.6"        60%
  ========  ===========  ===========

  field12's fractional cardinality means a two-value field where the
  selected value covers 60% of rows. The selected value is always 0.
"""

from repro.common import DeterministicRng
from repro.data import DataType, encode_rows, Field, Schema

#: (field name, cardinality, expected selected fraction of an equality
#: predicate on value 0) — Table 2 of the paper.
FIELD_SPECS = [
    ("field6", 200, 0.005),
    ("field7", 100, 0.01),
    ("field8", 20, 0.05),
    ("field9", 10, 0.10),
    ("field10", 5, 0.20),
    ("field11", 2, 0.50),
    ("field12", 1.6, 0.60),
]

SYNTH_SCHEMA = Schema(
    [Field(f"field{i}", DataType.CHARARRAY) for i in range(1, 6)]
    + [Field(name, DataType.INT) for name, _, _ in FIELD_SPECS]
)


class SynthConfig:
    def __init__(self, num_rows=20_000, string_length=20, seed=7):
        self.num_rows = num_rows
        self.string_length = string_length
        self.seed = seed


class SynthData:
    """Generates and installs the synthetic table."""

    def __init__(self, config=None):
        self.config = config or SynthConfig()

    def rows(self):
        cfg = self.config
        rng = DeterministicRng(cfg.seed).substream("synth")
        rows = []
        for _ in range(cfg.num_rows):
            strings = tuple(
                rng.rand_string(cfg.string_length) for _ in range(5)
            )
            ints = []
            for _, cardinality, fraction in FIELD_SPECS:
                if cardinality == 1.6:
                    # Two values; value 0 covers `fraction` of the rows.
                    ints.append(0 if rng.random() < fraction else 1)
                else:
                    ints.append(rng.randint(0, int(cardinality) - 1))
            rows.append(strings + tuple(ints))
        return rows

    def install(self, dfs, path="/data/synth"):
        return dfs.write_lines(
            path, encode_rows(self.rows(), SYNTH_SCHEMA), overwrite=True)

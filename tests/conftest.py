"""Hypothesis profiles, registered before pytest loads one by name."""

from hypothesis import settings

#: CI's fuzz step: the front end's differential at a budget too large for
#: tier-1 (``--hypothesis-profile=piglatin-fuzz``)
settings.register_profile("piglatin-fuzz", max_examples=20_000, deadline=None)

#: CI's fuzz step: the removal-heavy scan-order arm of
#: tests/test_property_restore.py at ten times tier-1's examples
#: (``--hypothesis-profile=repository-fuzz``)
settings.register_profile("repository-fuzz", max_examples=120, deadline=None)

"""Hypothesis draws the same examples on every run: property tests keep
their own max_examples, deadline and strategies, and take a fixed seed
and no example database from this profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

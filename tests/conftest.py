"""Hypothesis settings for the whole suite: a fixed example sequence, no
example database on disk, and no per-example deadline, so the property
tests give the same result on every run and on a loaded machine."""

from hypothesis import settings

settings.register_profile("glq", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("glq")

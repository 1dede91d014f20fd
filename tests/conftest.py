"""Shared test settings.

Property tests run under one derandomized hypothesis profile: the same
examples on every run, no example database, no per-example deadline and a
bounded example count, so the suite stays reproducible and fast.
"""
from hypothesis import settings

settings.register_profile("spintomo", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("spintomo")

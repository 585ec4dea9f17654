"""Hypothesis profile for the suite: the same examples on every run.

derandomize draws each property's examples from a fixed seed, and with no
example database the local .hypothesis/ state cannot change what runs.
Each test keeps its own max_examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("gosset", derandomize=True, deadline=None, database=None)
    settings.load_profile("gosset")

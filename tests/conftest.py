"""Thread limits and the hypothesis profile for the suite.

The BLAS thread variables default to 1, as importing `gosset.cli` sets
them, but before any test module loads numpy, whether or not it imports the
CLI.  Values already set in the environment win.

derandomize draws each property's examples from a fixed seed, and with no
example database the local .hypothesis/ state cannot change what runs.
Each test keeps its own max_examples.
"""

import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("gosset", derandomize=True, deadline=None, database=None)
    settings.load_profile("gosset")


@pytest.fixture
def layer_builds(monkeypatch):
    """The size of every layer isometry.layered_closure builds, in order."""
    from gosset import isometry

    built = []
    closure = isometry.layered_closure

    def counting_closure(identity, pick, build, budget):
        def counting_build(frontier, picks):
            built.append(len(picks))
            return build(frontier, picks)

        return closure(identity, pick, counting_build, budget)

    monkeypatch.setattr(isometry, "layered_closure", counting_closure)
    return built


@pytest.fixture
def poincare_coefficients():
    """A helper: the coefficients of prod_i (1 + q + ... + q^(d_i - 1)).

    For a finite Coxeter group with degrees d_i, the coefficient of q^k
    counts its elements of length k (Humphreys, Reflection Groups and
    Coxeter Groups, chapter 3).
    """
    import numpy as np

    def coefficients(degrees):
        poly = np.ones(1, dtype=np.int64)
        for d in degrees:
            poly = np.convolve(poly, np.ones(d, dtype=np.int64))
        return poly.tolist()

    return coefficients


@pytest.fixture
def traced_peak_mb():
    """A helper: measure(fn, *args) gives fn(*args) and its tracemalloc peak in MB.

    The peak counts what the call allocated above what was traced when it
    began, numpy buffers included.
    """
    import tracemalloc

    def measure(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, (peak - start) / 2**20

    return measure

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

    def counting_closure(identity, pick, build):
        def counting_build(frontier, picks):
            built.append(len(picks))
            return build(frontier, picks)

        return closure(identity, pick, counting_build)

    monkeypatch.setattr(isometry, "layered_closure", counting_closure)
    return built


@pytest.fixture
def fresh_scanners():
    """enumeration._compile_scanner with its template cache emptied before
    and after the test, so a test sees its own compiles and keeps none of
    them."""
    from gosset.enumeration import _compile_scanner

    _compile_scanner.cache_clear()
    yield _compile_scanner
    _compile_scanner.cache_clear()


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


@pytest.fixture
def row_report():
    """A helper: report(template, n) runs the verify row of that check-id
    template for dimension n, with default options, and gives its report."""
    from functools import partial

    from gosset import cli
    from gosset.report import run_check
    from gosset.suites import rows

    def report(template, n):
        (row,) = [r for r in rows() if r.template == template]
        check_id = template.format(n=n, kind=cli.KIND_BY_N.get(n))
        return run_check(check_id, n, partial(row.run, cli.Case(n, cli.Options())))

    return report


@pytest.fixture
def closure_matrices():
    """A helper: matrices(group) gives the matrices of a linear closure mod m,
    read off each element's rows, as int8 in the order of the walk of the
    base's orbit: the base's images are the points of the rows, numbered by
    their base-m digits, most significant first."""
    import numpy as np

    from gosset.isometry import _base_orbit

    def matrices(group):
        m, d = group.modulus, group.generators[0].dimension
        images = _base_orbit(group.columns, group.base)[0]
        return (images[:, :, None] // m ** np.arange(d - 1, -1, -1) % m).astype(np.int8)

    return matrices


@pytest.fixture
def congruence_counts():
    """A helper: counts(layers, targets) streams blocks of integer matrices
    and gives their number, and for p = 2 and 3 the number of pairs of a
    matrix and a target in targets[p] that agree mod p.

    With I the one target for each p, the pairs are the matrices = I mod p:
    the reference count of a whole closure.  The layers are counted one at a
    time and none is kept.  For each target the candidate rows are narrowed
    entry by entry, in row-major order, to those that agree with it mod p so
    far, until the candidates or the entries run out; a row counts only once
    all d*d entries have matched.  Few rows survive the first entries, so
    few entries are read.
    """

    def counts(layers, targets):
        goals = {p: [target.ravel() % p for target in targets[p]] for p in (2, 3)}
        order, fixed = 0, {2: 0, 3: 0}
        for block in layers:
            flat = block.reshape(len(block), block.shape[1] ** 2)
            order += len(block)
            for p, residues in goals.items():
                first = flat[:, 0] % p
                for goal in residues:
                    rows = (first == goal[0]).nonzero()[0]
                    for entry in range(1, len(goal)):
                        if not len(rows):
                            break
                        rows = rows[flat[rows, entry] % p == goal[entry]]
                    fixed[p] += len(rows)
        return order, fixed[2], fixed[3]

    return counts


@pytest.fixture
def repaired_petersen_rows():
    """The rows of the lifted Petersen table with two 2-cycles (a a') (b b')
    of column 0 re-paired as (a b) (a' b'), none of the four entries the
    first to name its coset: the column is still an involution and the
    breadth-first tree, so every label, is unchanged; only the entries tell."""
    import numpy as np

    from gosset.enumeration import enumerate_diagram_group

    rows = np.array(enumerate_diagram_group("petersen").table)
    k = rows.shape[1]
    _, first = np.unique(rows.ravel(), return_index=True)
    tree = set(first.tolist())
    pairs = [(a, rows[a, 0]) for a in range(len(rows)) if a < rows[a, 0]]
    (a, a2), (b, b2) = [p for p in pairs if not {p[0] * k, p[1] * k} & tree][:2]
    rows[[a, b, a2, b2], 0] = b, a, b2, a2
    return rows

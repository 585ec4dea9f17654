"""The rows of the verify command line, one module per suite.

Every check is one row of `TABLE`, registered by the `check` decorator in
its suite's module, below that suite's frozen oracle values: a suite, a
check-id template in `{n}` and `{kind}`, the dimensions the row runs for
(none: it runs once), and a run that returns (expected, actual, details).

A suite's module, with the layers it imports, loads the first time `rows`
asks for that suite, so a run pays only for the suites it runs; this
package imports no layer.  Checks look layer functions up as module globals
of their suite's module when they run, never when the table is built, so
anything that rebinds those globals (a test's monkeypatch, a tracer) sees
every call.  A suite's module that loads after a layer's attributes were
rebound imports the rebound names.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, NamedTuple

SUITES = (
    "lattice",
    "diagrams",
    "presentation",
    "enumeration",
    "tessellation",
    "e6",
    "eisenstein",
)

DIMS = (2, 3, 4)
KIND_BY_N = {2: "a3", 3: "affine_a5", 4: "petersen"}

# Frozen oracle values that two suites read; the others live with their
# suite.  Group and orbit sizes were computed independently (integer closure
# over the lattice, matrix closure mod 3, coset enumeration) before being
# pinned; structural counts are exact.
STABILIZER_ORDERS = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
WALL_COUNTS = {2: 3, 3: 6, 4: 10}


class Options(NamedTuple):
    n: int | None = None
    max_n: int = 6
    seed: int = 0


class Case(NamedTuple):
    """What one check run sees: its dimension and the options."""

    n: int | None
    options: Options

    @property
    def kind(self) -> str:
        return KIND_BY_N[self.n]


class Row(NamedTuple):
    suite: str
    template: str
    dims: tuple[int, ...] | None
    run: Callable[[Case], tuple[object, object, str]]
    gated: bool = False  # skipped above --max-n


TABLE: list[Row] = []


def check(suite: str, template: str, dims: tuple[int, ...] | None = None, gated: bool = False):
    """Register the decorated run as the next row of the table."""

    def register(run):
        TABLE.append(Row(suite, template, dims, run, gated))
        return run

    return register


def rows(*names: str) -> list[Row]:
    """The rows of the named suites, or of all of them, in table order.

    Imports each named suite's module first; only the first import registers
    its rows.
    """
    names = names or SUITES
    for name in names:
        import_module(f"{__name__}.{name}")
    return [row for row in TABLE if row.suite in names]

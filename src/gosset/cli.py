"""The verify command line tool.

The checks are the rows of `gosset.suites.TABLE`, registered in one module
per suite under `gosset/suites/`, each with its oracle values and the layers
it calls.  A suite's module loads the first time the suite runs, so
`import gosset.cli` loads no layer and not numpy, `verify lattice` loads the
lattice and isometry layers alone, and `verify all` loads every suite in
turn, in `SUITES` order.  One runner, `_run_table`, turns the rows of a
suite into reports: it applies `--n` and skips the rows gated by `--max-n`.
A suite runs its ungated rows dimension by dimension (rows without a
dimension first, each dimension's rows in table order), then its gated rows
the same way.

All work happens inside a check, so its time is charged to that check and
an exception becomes an `error` record for that check alone.  Shared work
(the tile graphs, the mod-3 groups, the coset tables) is cached where it is
defined, one entry per argument value, so the first check that asks for it
is charged with building it.

`--seed` drives only the relator shuffles of `relator_order_invariance_*`.

Exit codes: 0 all non-skipped checks pass, 1 some check failed, 2 usage
error, 3 a check raised instead of returning a value.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import Iterable

# Before any layer loads numpy: the products here are small, and BLAS threads cost CPU time
# without speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import __version__
from .report import CheckReport, exit_code, reports_to_json, run_check, skipped_check
from .suites import DIMS, KIND_BY_N, SUITES, Case, Options, rows


def _selected(dims: Iterable[int], options: Options) -> list[int]:
    """The dimensions of dims that `--n` lets through."""
    return [n for n in dims if options.n in (None, n)]


def _run_table(suite: str, options: Options) -> list[CheckReport]:
    """Run the rows of one suite in report order."""
    order = []
    for position, row in enumerate(rows(suite)):
        for n in (None,) if row.dims is None else _selected(row.dims, options):
            order.append(((row.gated, -1 if n is None else n, position), row, n))
    reports = []
    for _, row, n in sorted(order, key=lambda item: item[0]):
        check_id = row.template.format(n=n, kind=KIND_BY_N.get(n))
        if row.gated and n > options.max_n:
            details = f"pass --max-n {n} to enable"
            reports.append(skipped_check(check_id, n, details))
        else:
            reports.append(run_check(check_id, n, partial(row.run, Case(n, options))))
    return reports


SUITE_RUNNERS = {name: partial(_run_table, name) for name in SUITES}


def run_suite(suite: str, options: Options = Options()) -> list[CheckReport]:
    """Run one named suite, or all of them in declaration order."""
    names = SUITES if suite == "all" else (suite,)
    return [report for name in names for report in SUITE_RUNNERS[name](options)]


def _write_dot_files(suite: str, options: Options, out_dir: Path) -> list[Path]:
    from .geometry import build_tessellation
    from .presentation import diagram_graph

    written = []
    wants_diagrams = suite in ("diagrams", "all")
    wants_tiles = suite in ("tessellation", "all")
    if not (wants_diagrams or wants_tiles):
        raise ValueError(f"suite {suite!r} has no DOT export")
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in _selected(DIMS, options):
        if wants_diagrams:
            path = out_dir / f"diagrams_{n}.dot"
            path.write_text(diagram_graph(KIND_BY_N[n]).to_dot(f"diagram_n{n}"))
            written.append(path)
        if wants_tiles:
            path = out_dir / f"tessellation_{n}.dot"
            path.write_text(build_tessellation(n).to_dot())
            written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Re-derive and check the reflection group facts this package mechanizes.",
    )
    parser.add_argument("suite", choices=SUITES + ("all",))
    parser.add_argument(
        "--n", type=int, choices=DIMS, default=None,
        help="restrict dimension-parameterized checks to one dimension",
    )
    parser.add_argument(
        "--max-n", type=int, choices=range(2, 8), default=6, metavar="N",
        help="largest dimension for the stabilizer congruence checks (default 6; 7 adds ~0.01 s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for the relator shuffles")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report (or DOT files) here instead of stdout",
    )
    parser.add_argument("--format", choices=("json", "dot"), default="json")
    args = parser.parse_args(argv)

    options = Options(n=args.n, max_n=args.max_n, seed=args.seed)

    if args.format == "dot":
        try:
            written = _write_dot_files(args.suite, options, args.out or Path("."))
        except ValueError as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0

    try:
        reports = run_suite(args.suite, options)
    except Exception as exc:
        print(f"verify: internal error: {exc!r}", file=sys.stderr)
        return 3

    text = reports_to_json(__version__, args.suite, reports)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())

"""Run the verify command line with spans around the calls into each layer.

    python3 perfbench/trace.py OUT.json [verify arguments...]

The public functions of the enumeration, isometry, geometry, presentation,
e6 and cli modules are wrapped from outside: every alias a gosset module
holds is rebound to the wrapper, so `cli`'s `from .enumeration import
todd_coxeter` is traced as well as the module attribute, and no file of the
package changes.  `lattice` and `eisenstein` are not wrapped: their calls
(`inner`, `reflect`, `herm`, ...) are too fine-grained to time one by one,
and show up at suite granularity in `cli.suite.<name>`.

Spans nest.  A span's self time is its duration minus the time its child
spans cover.  Spans are aggregated in memory, one row per span name and one
per labelled variant (for example `enumeration.todd_coxeter.closed.petersen`),
and written to OUT.json when the command returns.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

import gosset.cli as cli
from gosset import e6, enumeration, geometry, isometry, presentation

KIND_OF_GENERATORS = {
    presentation.diagram_graph(kind).nodes: kind
    for kind in ("a3", "affine_a5", "petersen")
}


class Tracer:
    """Open-span stack plus per-row sums of calls, times and counters."""

    def __init__(self) -> None:
        self.child_time: list[float] = []
        self.rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.closure_keys: set = set()

    def wrap(self, name: str, fn, describe=None):
        """Return fn wrapped in a span; describe(args, result) gives (labels, counters)."""
        signature = inspect.signature(fn)
        cache_info = getattr(fn, "cache_info", None)

        @wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            self.child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self.child_time.pop()
                if self.child_time:
                    self.child_time[-1] += duration
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            labels, counters = describe(bound.arguments, result) if describe else ((), {})
            if cache_info:
                counters = dict(counters, misses=cache_info().misses - misses)
            for key in (name, *(f"{name}.{label}" for label in labels)):
                row = self.rows[key]
                row["calls"] += 1
                row["total_s"] += duration
                row["self_s"] += duration - children
                for counter, value in counters.items():
                    row[counter] += value
            return result

        return traced

    def dump(self) -> dict:
        return {
            "rows": {key: dict(row) for key, row in sorted(self.rows.items())},
            "closure_distinct_keys": len(self.closure_keys),
        }


def _kind(generators) -> str:
    return KIND_OF_GENERATORS.get(tuple(generators), "other")


def _rebind(original, wrapper) -> None:
    """Point every gosset module attribute that is `original` at `wrapper`."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "gosset" or module_name.startswith("gosset."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind all their aliases."""

    def todd_coxeter(a, table):
        return (table.status, f"{table.status}.{_kind(table.generators)}"), {
            "cosets_defined": table.cosets_defined,
            "n_live": table.n_live,
        }

    def by_table_kind(a, result):
        return (_kind(a["table"].generators),), {}

    def by_n(a, result):
        return (f"n{a['n']}",), {}

    def reflection_image(a, group):
        return (f"n{a['n']}_{'projective' if a['projective'] else 'linear'}",), {}

    specs = [
        (enumeration, "todd_coxeter", todd_coxeter),
        (enumeration, "enumerate_diagram_group", lambda a, t: ((a["kind"],), {})),
        (enumeration, "verify_table", by_table_kind),
        (enumeration, "verify_action_against_matrices", by_table_kind),
        (isometry, "finite_group_elements", lambda a, els: ((), {"elements": len(els)})),
        (isometry, "congruence_intersection_check", lambda a, r: ((f"n{r.n}",), {"elements": r.order})),
        (isometry, "coset_space", lambda a, space: ((), {"cosets": space.count})),
        (geometry, "build_tessellation", lambda a, g: ((f"n{g.n}",), {"tiles": g.tile_count})),
        (geometry, "reflection_image_mod3", reflection_image),
        (geometry, "verify_generator_words", by_n),
        (geometry, "vertex_orbits", by_n),
        (presentation, "build_presentation", None),
        (presentation, "evaluate_word", None),
        (e6, "generation_order", None),
        (e6, "root_system", None),
    ]
    for module, attr, describe in specs:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _rebind(original, tracer.wrap(f"{layer}.{attr}", original, describe))

    # closure() and CosetSpace both build a GroupClosure: one span per closure.
    def group_closure(a, _):
        group = a["self"]
        tracer.closure_keys.add(
            (tuple(g.entries for g in group.generators), group.modulus, group.projective)
        )
        return (), {"elements": group.order}

    init = isometry.GroupClosure.__init__
    isometry.GroupClosure.__init__ = tracer.wrap("isometry.closure", init, group_closure)

    def suite(name):
        def describe(a, reports):
            return (name,), {"checks_s": sum(r.runtime_ms for r in reports) / 1000}

        return describe

    for name, runner in cli.SUITE_RUNNERS.items():
        cli.SUITE_RUNNERS[name] = tracer.wrap("cli.suite", runner, suite(name))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: trace.py OUT.json [verify arguments...]", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[1:])
    Path(argv[0]).write_text(json.dumps(tracer.dump(), indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

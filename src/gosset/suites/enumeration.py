"""The enumeration suite: coset tables of the deflated groups, their certificates and controls."""

from __future__ import annotations

import random
from dataclasses import replace

from ..enumeration import (
    BUDGET_EXCEEDED,
    enumerate_diagram_group,
    todd_coxeter,
    verify_action_against_matrices,
    verify_table,
)
from ..geometry import wall_reflections_mod3
from ..presentation import build_presentation, diagram_graph, tits_form
from . import DIMS, check

REFLECTION_GROUP_ORDERS = {2: 24, 3: 720, 4: 51840}
# v^T (2I - A) v at the all-ones vector v: 2 |nodes| - 2 |edges|.
TITS_FORM_AT_ONES = {"affine_a5": 0, "petersen": -10}

NEGATIVE_CONTROL_BUDGET = 100_000


@check("enumeration", "coset_order_{kind}", DIMS)
def _coset_order(c):
    table = enumerate_diagram_group(c.kind)
    return REFLECTION_GROUP_ORDERS[c.n], table.order, f"defined {table.cosets_defined} cosets"


@check("enumeration", "replay_certificate_{kind}", DIMS)
def _replay_certificate(c):
    table = enumerate_diagram_group(c.kind)
    ok = verify_table(table, build_presentation(c.kind))
    return True, ok, "independent replay of the finished table"


@check("enumeration", "matrix_cross_check_{kind}", DIMS)
def _matrix_cross_check(c):
    table = enumerate_diagram_group(c.kind)
    cert = verify_action_against_matrices(table, wall_reflections_mod3(c.n))
    expected = {"consistent": True, "matrix_group_order": REFLECTION_GROUP_ORDERS[c.n]}
    actual = {"consistent": cert.consistent, "matrix_group_order": cert.matrix_group_order}
    details = (
        f"{cert.edges_checked} table edges checked against the matrices, "
        f"{cert.matrix_group_order} distinct images"
    )
    return expected, actual, details


@check("enumeration", "no_deflation_diverges_{kind}", (3, 4))
def _no_deflation_diverges(c):
    table = todd_coxeter(build_presentation(c.kind, deflate=False), budget=NEGATIVE_CONTROL_BUDGET)
    details = f"without deflation the enumeration passes {NEGATIVE_CONTROL_BUDGET} cosets"
    return BUDGET_EXCEEDED, table.status, details


@check("enumeration", "no_deflation_indefinite_{kind}", (3, 4))
def _no_deflation_indefinite(c):
    graph = diagram_graph(c.kind)
    value = tits_form(graph, dict.fromkeys(graph.nodes, 1))
    expected = {"form_at_ones": TITS_FORM_AT_ONES[c.kind], "infinite": True}
    actual = {"form_at_ones": value, "infinite": value <= 0}
    details = "2B = 2I - A is not positive definite, so without deflation the group is infinite"
    return expected, actual, details


@check("enumeration", "relator_order_invariance_{kind}", (2, 3))
def _relator_order_invariance(c):
    rng = random.Random(f"{c.options.seed}:shuffle:{c.kind}")
    pres = build_presentation(c.kind)
    orders = []
    for _ in range(3):
        rels = list(pres.relators)
        rng.shuffle(rels)
        shuffled = replace(pres, relators=tuple(rels))
        orders.append(todd_coxeter(shuffled).order)
    return [REFLECTION_GROUP_ORDERS[c.n]] * 3, orders, "relator order does not change the result"

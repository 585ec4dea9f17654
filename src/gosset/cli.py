"""The verify command line tool.

Every check is one row of `TABLE`, registered by the `check` decorator
below its frozen oracle values: a suite, a check-id template in `{n}` and
`{kind}`, the dimensions the row runs for (none: it runs once), and a run
that returns (expected, actual, details).  One runner, `_run_table`, turns
the rows of a suite into reports: it applies `--n` and skips the rows gated
by `--max-n`.  A suite runs its ungated rows dimension by dimension (rows
without a dimension first, each dimension's rows in table order), then its
gated rows the same way.

All work happens inside a check, so its time is charged to that check and
an exception becomes an `error` record for that check alone.  Checks look
layer functions up as module globals when they run, never when the table
is built, so anything that rebinds those globals (a test's monkeypatch, a
tracer) sees every call.  Shared work (the tile graphs, the mod-3 groups,
the coset tables) is cached where it is defined, one entry per argument
value, so the first check that asks for it is charged with building it.

Identities whose two sides are linear in the test vectors are checked on a
basis, which proves them for every input:

- `reflection_involution_n*`: reflections are linear and the form bilinear,
  so e_0..e_n decide both r(r(u)) = u and (r u, r v) = (u, v);
- `braid_identity_random_n*`: both sides of the braid identity are linear
  in the test vector, so e_0..e_n decide it;
- `conjugation_multiplicative`: both sides of conj(ab) = conj(a) conj(b) are
  Z-bilinear, so {1, omega}^2 decides it.  The norm a conj(a) of
  a = x + y omega is a quadratic form in (x, y), fixed by its values at 1,
  omega and 1 + omega: if all three are 1, its omega part vanishes and its
  integer part is x^2 - xy + y^2, which is positive definite;
- `hermitian_symmetry`: both sides are Z-bilinear, so the Z-basis
  {e_i, omega e_i} decides it;
- `hexaflection_preserves_form`, `hexaflection_order_six`,
  `triflection_order_three`: hexaflections are Z[omega]-linear and the form
  sesquilinear, so e_0..e_3 decide the isometry and the powers that fix
  everything.

`--seed` drives only the relator shuffles of `relator_order_invariance_*`.

Exit codes: 0 all non-skipped checks pass, 1 some check failed, 2 usage
error, 3 a check raised instead of returning a value.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

# Before numpy loads: the products here are small, and BLAS threads cost CPU time without speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import __version__
from .e6 import (
    cayley_table,
    generation_order,
    root_system,
    verify_hexagon_sums,
    verify_membership,
    verify_petersen_gram,
    verify_reflection_fixed_points,
    verify_singletons_commute,
)
from .eisenstein import OMEGA, ONE, ZERO, EisensteinVector, eis, evec, herm, hexaflection
from .enumeration import (
    BUDGET_EXCEEDED,
    enumerate_diagram_group,
    matrix_cayley_table,
    todd_coxeter,
    verify_action_against_matrices,
    verify_table,
)
from .geometry import (
    build_tessellation,
    gosset_walls,
    reflection_image_mod3,
    vertex_orbits,
    verify_generator_words,
    wall_pair_classification,
    wall_reflection_matrices,
    wall_reflections_mod3,
)
from .isometry import Matrix, congruence_intersection_check
from .lattice import basis_vector, chamber_vertices, inner, norm, reflect, simple_roots, vector
from .presentation import (
    braid_identity_check,
    build_presentation,
    diagram_automorphism_order,
    diagram_from_gram,
    diagram_graph,
    evaluate_word,
    free_hexagons,
    petersen_kneser_check,
    presentation_from_text,
    presentation_to_text,
    tits_form,
)
from .report import CheckReport, exit_code, reports_to_json, run_check, skipped_check

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
LATTICE_DIMS = tuple(range(2, 9))
CONGRUENCE_DIMS = tuple(range(2, 8))
KIND_BY_N = {2: "a3", 3: "affine_a5", 4: "petersen"}

# Frozen oracle values.  Group and orbit sizes were computed independently
# (integer closure over the lattice, matrix closure mod 3, coset
# enumeration) before being pinned here; structural counts are exact.
STABILIZER_ORDERS = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
REFLECTION_GROUP_ORDERS = {2: 24, 3: 720, 4: 51840}
TILE_COUNTS = {2: 12, 3: 60, 4: 432}
WALL_COUNTS = {2: 3, 3: 6, 4: 10}
PAIR_SPLIT = {2: (1, 2), 3: (9, 6), 4: (30, 15)}
AUT_ORDERS = {"a3": 2, "affine_a5": 12, "petersen": 120}
GIRTHS = {"a3": 0, "affine_a5": 6, "petersen": 5}
HEXAGON_COUNTS = {"a3": 0, "affine_a5": 1, "petersen": 10}
RELATOR_PROFILE = {
    "a3": {2: 3, 4: 1, 6: 2, 10: 0},
    "affine_a5": {2: 6, 4: 9, 6: 6, 10: 1},
    "petersen": {2: 10, 4: 30, 6: 15, 10: 10},
}
# v^T (2I - A) v at the all-ones vector v: 2 |nodes| - 2 |edges|.
TITS_FORM_AT_ONES = {"affine_a5": 0, "petersen": -10}
APEX_ORBIT_SIZES = {2: 1, 3: 2, 4: 5}
IDEAL_ORBIT_SIZES = {2: 2, 3: 3, 4: 5}

NEGATIVE_CONTROL_BUDGET = 100_000


@dataclass(frozen=True)
class Options:
    n: int | None = None
    max_n: int = 6
    seed: int = 0


@dataclass(frozen=True)
class Case:
    """What one check run sees: its dimension and the options."""

    n: int | None
    options: Options

    @property
    def kind(self) -> str:
        return KIND_BY_N[self.n]


@dataclass(frozen=True)
class Row:
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


def _lattice_basis(n: int) -> list:
    return [basis_vector(i, n) for i in range(n + 1)]


# lattice


@check("lattice", "simple_root_norms_n{n}", LATTICE_DIMS)
def _simple_root_norms(c):
    expected = [1, 2, 1] if c.n == 2 else [2] * c.n + [1]
    return expected, [norm(a) for a in simple_roots(c.n)], "norms of the simple mirror normals"


@check("lattice", "chamber_incidence_n{n}", LATTICE_DIMS)
def _chamber_incidence(c):
    roots, verts = simple_roots(c.n), chamber_vertices(c.n)
    off = all(inner(v, a) == 0 for j, v in enumerate(verts) for i, a in enumerate(roots) if i != j)
    diag = [inner(v, roots[j]) for j, v in enumerate(verts)]
    expected = {"off_diagonal_zero": True, "diagonal": [-1] * (c.n + 1)}
    actual = {"off_diagonal_zero": off, "diagonal": diag}
    return expected, actual, "vertex j lies on every wall except wall j"


@check("lattice", "vertex_norms_n{n}", LATTICE_DIMS)
def _vertex_norms(c):
    expected = [-1, 0, -2] + [j - 9 for j in range(3, c.n + 1)]
    actual = [norm(v) for v in chamber_vertices(c.n)]
    return expected, actual, "one ideal vertex, all others interior"


@check("lattice", "reflection_involution_n{n}", LATTICE_DIMS)
def _reflection_involution(c):
    basis = _lattice_basis(c.n)
    ok = all(
        reflect(alpha, reflect(alpha, u)) == u
        and all(inner(reflect(alpha, u), reflect(alpha, v)) == inner(u, v) for v in basis)
        for alpha in simple_roots(c.n)
        for u in basis
    )
    return True, ok, "reflections square to one and preserve the form on e_0..e_n"


@check("lattice", "congruence_trivial_n{n}", CONGRUENCE_DIMS, gated=True)
def _congruence_trivial(c):
    result = congruence_intersection_check(c.n)
    expected = {
        "order": STABILIZER_ORDERS[c.n],
        "identity_only_mod2": True,
        "identity_only_mod3": True,
    }
    actual = {
        "order": result.order,
        "identity_only_mod2": result.congruent_mod2 == 1,
        "identity_only_mod3": result.congruent_mod3 == 1,
    }
    return expected, actual, "vertex stabilizer meets both congruence kernels trivially"


# diagrams


@check("diagrams", "wall_count_n{n}", DIMS)
def _wall_count(c):
    return WALL_COUNTS[c.n], len(gosset_walls(c.n).labels), "number of cell walls"


@check("diagrams", "wall_norms_n{n}", DIMS)
def _wall_norms(c):
    actual = all(norm(r) == 1 for r in gosset_walls(c.n).roots)
    return True, actual, "every wall normal has norm one"


@check("diagrams", "wall_pair_split_n{n}", DIMS)
def _wall_pair_split(c):
    pc = wall_pair_classification(gosset_walls(c.n))
    actual = [len(pc.orthogonal), len(pc.parallel)]
    return list(PAIR_SPLIT[c.n]), actual, "wall pairs split into right-angled and tangent"


@check("diagrams", "gram_diagram_match_n{n}", DIMS)
def _gram_diagram_match(c):
    derived, reference = diagram_from_gram(gosset_walls(c.n)), diagram_graph(c.kind)
    actual = derived.nodes == reference.nodes and derived.edges == reference.edges
    return True, actual, f"pairing graph equals the {c.kind} diagram"


@check("diagrams", "generator_words_n{n}", DIMS)
def _generator_words(c):
    return True, verify_generator_words(c.n), "wall mirrors realized inside the reflection group"


@check("diagrams", "vertex_orbits_n{n}", DIMS)
def _vertex_orbits(c):
    vo = vertex_orbits(c.n)
    expected = {
        "apex_orbit": APEX_ORBIT_SIZES[c.n],
        "ideal_orbit": IDEAL_ORBIT_SIZES[c.n],
        "center_fixed": True,
    }
    actual = {
        "apex_orbit": len(vo.apex_orbit),
        "ideal_orbit": len(vo.ideal_orbit),
        "center_fixed": vo.center_fixed,
    }
    return expected, actual, "stabilizer orbits of the cell vertices"


@check("diagrams", "automorphism_order_n{n}", DIMS)
def _automorphism_order(c):
    actual = diagram_automorphism_order(diagram_graph(c.kind))
    return AUT_ORDERS[c.kind], actual, f"graph automorphisms of {c.kind}"


@check("diagrams", "girth_n{n}", DIMS)
def _girth(c):
    return GIRTHS[c.kind], diagram_graph(c.kind).girth(), f"shortest cycle in {c.kind}"


@check("diagrams", "hexagon_count_n{n}", DIMS)
def _hexagon_count(c):
    actual = len(free_hexagons(diagram_graph(c.kind)))
    return HEXAGON_COUNTS[c.kind], actual, "chordless hexagons up to rotation and reflection"


@check("diagrams", "affine_hexagon_cycle_n{n}", (3,))
def _affine_hexagon_cycle(c):
    actual = free_hexagons(diagram_graph("affine_a5"))
    return [["1", "4", "2", "5", "3", "6"]], actual, "the hexagon traverses alternating labels"


@check("diagrams", "petersen_kneser_n{n}", (4,))
def _petersen_kneser(c):
    details = "wall diagram is the disjointness graph on 2-subsets of a 5-set"
    return True, petersen_kneser_check(), details


# presentation


@check("presentation", "braid_identity_fixed")
def _braid_identity_fixed(c):
    ok = braid_identity_check(vector(0, 1, 0), vector(1, -1, -1), vector(1, 0, 0))
    return True, ok, "worked example with the apex as test vector"


@check("presentation", "relator_profile_{kind}", DIMS)
def _relator_profile(c):
    counts = {2: 0, 4: 0, 6: 0, 10: 0}
    for rel in build_presentation(c.kind).relators:
        counts[len(rel)] += 1
    details = "relators by length: involutions, squares, cubes, deflations"
    return RELATOR_PROFILE[c.kind], counts, details


@check("presentation", "relators_mod3_{kind}", DIMS)
def _relators_mod3(c):
    assignment = wall_reflections_mod3(c.n)
    identity = Matrix.identity(c.n + 1, 3)
    relators = build_presentation(c.kind).relators
    ok = all(evaluate_word(rel, assignment) == identity for rel in relators)
    return True, ok, "all relators hold in the mod-3 matrix image, no sign quotient needed"


@check("presentation", "braid_identity_random_n{n}", DIMS)
def _braid_identity_basis(c):
    walls = gosset_walls(c.n)
    ok = all(
        braid_identity_check(walls.root_of(la), walls.root_of(lb), lam)
        for la, lb in wall_pair_classification(walls).parallel
        for lam in _lattice_basis(c.n)
    )
    return True, ok, "test vectors e_0..e_n for every tangent wall pair"


@check("presentation", "presentation_roundtrip_{kind}", DIMS)
def _presentation_roundtrip(c):
    pres = build_presentation(c.kind)
    parsed = presentation_from_text(presentation_to_text(pres))
    return pres, parsed, "text serialization round-trips"


@check("presentation", "deflation_integer_nonidentity", (3,))
def _deflation_integer_nonidentity(c):
    # The deflation word collapses mod 3 but is a genuinely new relation:
    # over the integers it is far from identity.
    word = next(r for r in build_presentation(c.kind).relators if len(r) == 10)
    image = evaluate_word(word, wall_reflection_matrices(c.n))
    nontrivial = image != Matrix.identity(c.n + 1)
    return True, nontrivial, "deflation word acts nontrivially on the lattice"


# enumeration


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


# tessellation


@check("tessellation", "tile_count_n{n}", DIMS)
def _tile_count(c):
    return TILE_COUNTS[c.n], build_tessellation(c.n).tile_count, "cells in the quotient mod 3"


@check("tessellation", "boundary_slots_n{n}", DIMS)
def _boundary_slots(c):
    # Counted from the DOT export: an edge line gives a slot to each end, a
    # self-loop line one slot to its tile.
    graph = build_tessellation(c.n)
    slots = [0] * graph.tile_count
    for a, b in re.findall(r"^  (\d+) -- (\d+) ", graph.to_dot(), re.MULTILINE):
        slots[int(a)] += 1
        if a != b:
            slots[int(b)] += 1
    ok = slots == [WALL_COUNTS[c.n]] * graph.tile_count
    return True, ok, "every tile exposes one neighbor slot per wall"


@check("tessellation", "connected_n{n}", DIMS)
def _connected(c):
    return True, build_tessellation(c.n).is_connected(), "tile adjacency graph is connected"


@check("tessellation", "self_loop_count_n{n}", DIMS)
def _self_loop_count(c):
    return 0, build_tessellation(c.n).self_loop_count(), "no wall glues a tile to itself"


@check("tessellation", "lagrange_n{n}", DIMS)
def _lagrange(c):
    tiles = build_tessellation(c.n).tile_count
    stabilizer = congruence_intersection_check(c.n).order
    product = TILE_COUNTS[c.n] * STABILIZER_ORDERS[c.n]
    expected = {
        "tiles": TILE_COUNTS[c.n],
        "stabilizer_order": STABILIZER_ORDERS[c.n],
        "product": product,
        "group_order": product,
    }
    actual = {
        "tiles": tiles,
        "stabilizer_order": stabilizer,
        "product": tiles * stabilizer,
        "group_order": reflection_image_mod3(c.n).order,
    }
    return expected, actual, "tiles times stabilizer equals the projective group order"


@check("tessellation", "sign_quotient_n{n}", DIMS)
def _sign_quotient(c):
    linear, projective = reflection_image_mod3(c.n, projective=False), reflection_image_mod3(c.n)
    actual = {
        "ratio": linear.order // projective.order,
        "contains_minus_identity": linear.contains_minus_identity,
    }
    details = f"linear order {linear.order}, projective order {projective.order}"
    return {"ratio": 2, "contains_minus_identity": True}, actual, details


# e6


@check("e6", "root_count")
def _root_count(c):
    return 72, len(root_system().roots), "roots generated from the simple ones"


@check("e6", "beta_membership")
def _beta_membership(c):
    return True, verify_membership(), "all ten configuration vectors are roots"


@check("e6", "gram_matches_diagram")
def _gram_matches_diagram(c):
    return True, verify_petersen_gram(), "pairings 2 on the diagonal, 1 on edges, 0 off"


@check("e6", "hexagon_sums_vanish")
def _hexagon_sums_vanish(c):
    return True, verify_hexagon_sums(), "alternating sums vanish around every hexagon"


@check("e6", "reflection_fixed_points")
def _reflection_fixed_points(c):
    return True, verify_reflection_fixed_points(), "reflection fixes a root iff pairing is zero"


@check("e6", "singleton_commutation")
def _singleton_commutation(c):
    return True, verify_singletons_commute(), "reflections at pairwise non-adjacent labels commute"


@check("e6", "generation_order")
def _generation_order(c):
    return 51840, generation_order(), "permutation group generated on the 72 roots"


@check("e6", "triple_agreement")
def _triple_agreement(c):
    table = enumerate_diagram_group("petersen")
    # The table of the ten wall reflections that matrix_cross_check_petersen builds, shared.
    # reflection_image_mod3(4) closes the simple reflections; reading its order here would
    # repeat lagrange_n4, not check it.
    walls = wall_reflections_mod3(4)
    matrices = matrix_cayley_table(tuple(walls[g] for g in table.generators))
    expected = {"roots": 51840, "cosets": 51840, "matrices": 51840}
    actual = {"roots": generation_order(), "cosets": table.order, "matrices": len(matrices)}
    return expected, actual, "three independent routes to the same order"


@check("e6", "cayley_table_roots_matches_presentation")
def _cayley_table_roots_matches_presentation(c):
    roots, presented = cayley_table(), enumerate_diagram_group("petersen").table
    same = roots.shape == presented.shape and bool((roots == presented).all())
    return True, same, "the beta reflections on the roots give the presentation's table"


# eisenstein

# Null vectors of the hermitian form make bad mirrors; these all have
# self-pairing one.
UNIT_AXES = (
    evec(0, 1, 0, 0),
    evec(0, 0, 0, 1),
    evec(1, 1, 1, 0),
    evec(1, 1, 0, 1),
)
EISENSTEIN_BASIS = tuple(evec(*[int(i == j) for j in range(4)]) for i in range(4))


def _first_fixing_power(step: Callable[[EisensteinVector], EisensteinVector], limit: int) -> int:
    """Least k <= limit with step^k fixing e_0..e_3, else 0; step must be Z[omega]-linear."""
    images = EISENSTEIN_BASIS
    for k in range(1, limit + 1):
        images = tuple(step(v) for v in images)
        if images == EISENSTEIN_BASIS:
            return k
    return 0


@check("eisenstein", "unit_relation")
def _unit_relation(c):
    actual = OMEGA * OMEGA + OMEGA + ONE == ZERO
    return True, actual, "the generator is a primitive cube root of unity"


@check("eisenstein", "conjugation_multiplicative")
def _conjugation_multiplicative(c):
    units = (ONE, OMEGA)
    products = all((a * b).conj() == a.conj() * b.conj() for a in units for b in units)
    norms = [z * z.conj() for z in (ONE, OMEGA, ONE + OMEGA)]
    details = "conjugation respects products on {1, omega}^2; 1, omega, 1 + omega have norm one"
    return True, products and norms == [ONE] * 3, details


@check("eisenstein", "hermitian_symmetry")
def _hermitian_symmetry(c):
    basis = EISENSTEIN_BASIS + tuple(e.scale(OMEGA) for e in EISENSTEIN_BASIS)
    ok = all(herm(u, v) == herm(v, u).conj() for u in basis for v in basis)
    return True, ok, "hermitian symmetry of the signature (3,1) form on the Z-basis e_i, omega e_i"


@check("eisenstein", "hexaflection_preserves_form")
def _hexaflection_preserves_form(c):
    ok = all(
        herm(hexaflection(axis, u), hexaflection(axis, v)) == herm(u, v)
        for axis in UNIT_AXES
        for u in EISENSTEIN_BASIS
        for v in EISENSTEIN_BASIS
    )
    return True, ok, "hexaflections are isometries of the hermitian form on e_0..e_3"


@check("eisenstein", "hexaflection_axis_eigenvalue")
def _hexaflection_axis_eigenvalue(c):
    minus_omega_sq = eis(1, 1)
    ok = all(hexaflection(axis, axis) == axis.scale(minus_omega_sq) for axis in UNIT_AXES)
    return True, ok, "the mirror normal is rotated by a primitive sixth root of unity"


@check("eisenstein", "hexaflection_order_six")
def _hexaflection_order_six(c):
    orders = {_first_fixing_power(partial(hexaflection, axis), 6) for axis in UNIT_AXES}
    return {6}, orders, "sixth power is the first to fix e_0..e_3"


@check("eisenstein", "triflection_order_three")
def _triflection_order_three(c):
    orders = {
        _first_fixing_power(lambda v: hexaflection(axis, hexaflection(axis, v)), 3)
        for axis in UNIT_AXES
    }
    return {3}, orders, "the squared hexaflection has order three on e_0..e_3"


def _selected(dims: Iterable[int], options: Options) -> list[int]:
    """The dimensions of dims that `--n` lets through."""
    return [n for n in dims if options.n in (None, n)]


def _run_table(suite: str, options: Options) -> list[CheckReport]:
    """Run the rows of one suite in report order."""
    order = []
    for position, row in enumerate(TABLE):
        if row.suite == suite:
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
        help="largest dimension for the stabilizer congruence checks (default 6; 7 takes ~1 s)",
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

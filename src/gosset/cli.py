"""The verify command line tool.

Each suite re-derives a family of facts from scratch and compares them
against frozen expected values; the JSON report lists one record per check.
Exit codes: 0 all non-skipped checks pass, 1 some check failed, 2 usage
error, 3 a check raised instead of returning a value.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import __version__
from .e6 import (
    generation_order,
    root_system,
    verify_hexagon_sums,
    verify_membership,
    verify_petersen_gram,
    verify_reflection_fixed_points,
    verify_singletons_commute,
)
from .eisenstein import EisensteinVector, eis, evec, herm, hexaflection
from .enumeration import (
    BUDGET_EXCEEDED,
    DEFAULT_COSET_BUDGET,
    enumerate_diagram_group,
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
    wall_reflections_mod3,
)
from .isometry import (
    LatticeIsometry,
    ModularMatrix,
    closure,
    congruence_intersection_check,
    reflection_matrix,
)
from .lattice import (
    LatticeVector,
    chamber_vertices,
    inner,
    norm,
    reflect,
    simple_roots,
    vector,
)
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
)
from .report import (
    CheckReport,
    PendingCheck,
    exit_code,
    reports_to_json,
    run_check,
    skipped_check,
)

SUITES = (
    "lattice",
    "diagrams",
    "presentation",
    "enumeration",
    "tessellation",
    "e6",
    "eisenstein",
)

KIND_BY_N = {2: "a3", 3: "affine_a5", 4: "petersen"}
N_BY_KIND = {v: k for k, v in KIND_BY_N.items()}

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
APEX_ORBIT_SIZES = {2: 1, 3: 2, 4: 5}
IDEAL_ORBIT_SIZES = {2: 2, 3: 3, 4: 5}

NEGATIVE_CONTROL_BUDGET = 100_000


@dataclass(frozen=True)
class Options:
    n: int | None = None
    max_n: int = 6
    budget: int = DEFAULT_COSET_BUDGET
    seed: int = 0


def _dimensions(options: Options) -> tuple[int, ...]:
    if options.n is not None:
        return (options.n,)
    return (2, 3, 4)


def _run_all(items: list) -> list[CheckReport]:
    return [x if isinstance(x, CheckReport) else run_check(x) for x in items]


def _random_vector(rng: random.Random, dim: int) -> LatticeVector:
    return vector(*[rng.randint(-9, 9) for _ in range(dim)])


def lattice_suite(options: Options) -> list[CheckReport]:
    items: list = []
    dims = _dimensions(options) if options.n is not None else tuple(range(2, 9))

    for n in dims:
        def root_norms(n=n):
            expected = [1, 2, 1] if n == 2 else [2] * n + [1]
            actual = [norm(a) for a in simple_roots(n)]
            return expected, actual, "norms of the simple mirror normals"

        items.append(PendingCheck(f"simple_root_norms_n{n}", n, root_norms))

        def incidence(n=n):
            roots = simple_roots(n)
            verts = chamber_vertices(n)
            off = all(
                inner(v, a) == 0
                for j, v in enumerate(verts)
                for i, a in enumerate(roots)
                if i != j
            )
            diag = [inner(v, roots[j]) for j, v in enumerate(verts)]
            expected = {"off_diagonal_zero": True, "diagonal": [-1] * (n + 1)}
            actual = {"off_diagonal_zero": off, "diagonal": diag}
            return expected, actual, "vertex j lies on every wall except wall j"

        items.append(PendingCheck(f"chamber_incidence_n{n}", n, incidence))

        def vertex_norms(n=n):
            expected = [-1, 0, -2] + [j - 9 for j in range(3, n + 1)]
            actual = [norm(v) for v in chamber_vertices(n)]
            return expected, actual, "one ideal vertex, all others interior"

        items.append(PendingCheck(f"vertex_norms_n{n}", n, vertex_norms))

        def involution(n=n):
            rng = random.Random(f"{options.seed}:reflect:{n}")
            ok = True
            for alpha in simple_roots(n):
                for _ in range(25):
                    u = _random_vector(rng, n + 1)
                    v = _random_vector(rng, n + 1)
                    if reflect(alpha, reflect(alpha, u)) != u:
                        ok = False
                    if inner(reflect(alpha, u), reflect(alpha, v)) != inner(u, v):
                        ok = False
            return True, ok, "reflections square to one and preserve the form"

        items.append(PendingCheck(f"reflection_involution_n{n}", n, involution))

    for n in range(2, 8):
        if options.n is not None and n != options.n:
            continue
        if n > options.max_n:
            items.append(
                skipped_check(
                    f"congruence_trivial_n{n}",
                    n,
                    f"pass --max-n {n} to enable (n=7 takes ~5 s and ~270 MB)",
                )
            )
            continue

        def congruence(n=n):
            result = congruence_intersection_check(n)
            expected = {
                "order": STABILIZER_ORDERS[n],
                "identity_only_mod2": True,
                "identity_only_mod3": True,
            }
            actual = {
                "order": result.order,
                "identity_only_mod2": result.congruent_mod2 == 1,
                "identity_only_mod3": result.congruent_mod3 == 1,
            }
            return expected, actual, "vertex stabilizer meets both congruence kernels trivially"

        items.append(PendingCheck(f"congruence_trivial_n{n}", n, congruence))

    return _run_all(items)


def diagrams_suite(options: Options) -> list[CheckReport]:
    items: list = []
    for n in _dimensions(options):
        kind = KIND_BY_N[n]
        walls = gosset_walls(n)

        def wall_count(n=n, walls=walls):
            return WALL_COUNTS[n], len(walls.labels), "number of cell walls"

        items.append(PendingCheck(f"wall_count_n{n}", n, wall_count))

        def wall_norms(n=n, walls=walls):
            actual = all(norm(r) == 1 for r in walls.roots)
            return True, actual, "every wall normal has norm one"

        items.append(PendingCheck(f"wall_norms_n{n}", n, wall_norms))

        def pair_split(n=n, walls=walls):
            pc = wall_pair_classification(walls)
            return (
                list(PAIR_SPLIT[n]),
                [len(pc.orthogonal), len(pc.parallel)],
                "wall pairs split into right-angled and tangent",
            )

        items.append(PendingCheck(f"wall_pair_split_n{n}", n, pair_split))

        def gram_match(n=n, kind=kind, walls=walls):
            derived = diagram_from_gram(walls)
            reference = diagram_graph(kind)
            actual = derived.nodes == reference.nodes and derived.edges == reference.edges
            return True, actual, f"pairing graph equals the {kind} diagram"

        items.append(PendingCheck(f"gram_diagram_match_n{n}", n, gram_match))

        def words(n=n):
            return True, verify_generator_words(n), "wall mirrors realized inside the reflection group"

        items.append(PendingCheck(f"generator_words_n{n}", n, words))

        def orbits(n=n):
            vo = vertex_orbits(n)
            expected = {
                "apex_orbit": APEX_ORBIT_SIZES[n],
                "ideal_orbit": IDEAL_ORBIT_SIZES[n],
                "center_fixed": True,
            }
            actual = {
                "apex_orbit": len(vo.apex_orbit),
                "ideal_orbit": len(vo.ideal_orbit),
                "center_fixed": vo.center_fixed,
            }
            return expected, actual, "stabilizer orbits of the cell vertices"

        items.append(PendingCheck(f"vertex_orbits_n{n}", n, orbits))

        def aut(n=n, kind=kind):
            g = diagram_graph(kind)
            return AUT_ORDERS[kind], diagram_automorphism_order(g), f"graph automorphisms of {kind}"

        items.append(PendingCheck(f"automorphism_order_n{n}", n, aut))

        def girth(n=n, kind=kind):
            return GIRTHS[kind], diagram_graph(kind).girth(), f"shortest cycle in {kind}"

        items.append(PendingCheck(f"girth_n{n}", n, girth))

        def hexagons(n=n, kind=kind):
            return (
                HEXAGON_COUNTS[kind],
                len(free_hexagons(diagram_graph(kind))),
                "chordless hexagons up to rotation and reflection",
            )

        items.append(PendingCheck(f"hexagon_count_n{n}", n, hexagons))

        if n == 3:
            def affine_hexagon():
                actual = free_hexagons(diagram_graph("affine_a5"))
                return [["1", "4", "2", "5", "3", "6"]], actual, "the hexagon traverses alternating labels"

            items.append(PendingCheck("affine_hexagon_cycle_n3", 3, affine_hexagon))

        if n == 4:
            def kneser():
                return True, petersen_kneser_check(), "wall diagram is the disjointness graph on 2-subsets of a 5-set"

            items.append(PendingCheck("petersen_kneser_n4", 4, kneser))

    return _run_all(items)


def presentation_suite(options: Options) -> list[CheckReport]:
    items: list = []

    def braid_fixed():
        alpha = vector(0, 1, 0)
        beta = vector(1, -1, -1)
        ok = braid_identity_check(alpha, beta, vector(1, 0, 0))
        return True, ok, "worked example with the apex as test vector"

    items.append(PendingCheck("braid_identity_fixed", None, braid_fixed))

    for n in _dimensions(options):
        kind = KIND_BY_N[n]
        pres = build_presentation(kind)

        def profile(kind=kind, pres=pres):
            counts = {2: 0, 4: 0, 6: 0, 10: 0}
            for rel in pres.relators:
                counts[len(rel)] += 1
            return (
                RELATOR_PROFILE[kind],
                counts,
                "relators by length: involutions, squares, cubes, deflations",
            )

        items.append(PendingCheck(f"relator_profile_{kind}", n, profile))

        def relators_mod3(n=n, pres=pres):
            assignment = wall_reflections_mod3(n, projective=False)
            sample = next(iter(assignment.values()))
            identity = ModularMatrix.identity(sample.dimension, 3)
            ok = all(
                evaluate_word(rel, assignment) == identity for rel in pres.relators
            )
            return True, ok, "all relators hold in the mod-3 matrix image, no sign quotient needed"

        items.append(PendingCheck(f"relators_mod3_{kind}", n, relators_mod3))

        def braid_random(n=n):
            rng = random.Random(f"{options.seed}:braid:{n}")
            walls = gosset_walls(n)
            ok = True
            for la, lb in wall_pair_classification(walls).parallel:
                alpha, beta = walls.root_of(la), walls.root_of(lb)
                for _ in range(100):
                    lam = _random_vector(rng, n + 1)
                    if not braid_identity_check(alpha, beta, lam):
                        ok = False
            return True, ok, "100 random test vectors per tangent wall pair"

        items.append(PendingCheck(f"braid_identity_random_n{n}", n, braid_random))

        def roundtrip(pres=pres):
            return pres, presentation_from_text(presentation_to_text(pres)), "text serialization round-trips"

        items.append(PendingCheck(f"presentation_roundtrip_{kind}", n, roundtrip))

        if kind == "affine_a5":
            def deflation_integer():
                # The deflation word collapses mod 3 but is a genuinely
                # new relation: over the integers it is far from identity.
                pres_plain = build_presentation("affine_a5", deflate=False)
                word = next(
                    r for r in build_presentation("affine_a5").relators if len(r) == 10
                )
                mirrors = {
                    label: _wall_mirror(3, label) for label in pres_plain.generators
                }
                image = evaluate_word(word, mirrors)
                nontrivial = image != LatticeIsometry.identity(4)
                return True, nontrivial, "deflation word acts nontrivially on the lattice"

            items.append(PendingCheck("deflation_integer_nonidentity", 3, deflation_integer))

    return _run_all(items)


def _wall_mirror(n: int, label: str) -> LatticeIsometry:
    walls = gosset_walls(n)
    return reflection_matrix(walls.root_of(label), n)


def enumeration_suite(options: Options) -> list[CheckReport]:
    items: list = []
    for n in _dimensions(options):
        kind = KIND_BY_N[n]

        def order(kind=kind, n=n):
            table = enumerate_diagram_group(kind, options.budget)
            return (
                REFLECTION_GROUP_ORDERS[n],
                table.order,
                f"defined {table.cosets_defined} cosets",
            )

        items.append(PendingCheck(f"coset_order_{kind}", n, order))

        def certificate(kind=kind):
            table = enumerate_diagram_group(kind, options.budget)
            ok = verify_table(table, build_presentation(kind))
            return True, ok, "independent replay of the finished table"

        items.append(PendingCheck(f"replay_certificate_{kind}", n, certificate))

        def cross_check(kind=kind, n=n):
            table = enumerate_diagram_group(kind, options.budget)
            cert = verify_action_against_matrices(table, wall_reflections_mod3(n))
            expected = {
                "consistent": True,
                "matrix_group_order": REFLECTION_GROUP_ORDERS[n],
            }
            actual = {
                "consistent": cert.consistent,
                "matrix_group_order": cert.matrix_group_order,
            }
            details = (
                f"{cert.edges_checked} table edges checked against the matrices, "
                f"{cert.matrix_group_order} distinct images"
            )
            return expected, actual, details

        items.append(PendingCheck(f"matrix_cross_check_{kind}", n, cross_check))

        if kind in ("affine_a5", "petersen"):
            def negative_control(kind=kind):
                pres = build_presentation(kind, deflate=False)
                table = todd_coxeter(pres, budget=NEGATIVE_CONTROL_BUDGET)
                return (
                    BUDGET_EXCEEDED,
                    table.status,
                    f"without deflation the enumeration passes {NEGATIVE_CONTROL_BUDGET} cosets",
                )

            items.append(PendingCheck(f"no_deflation_diverges_{kind}", n, negative_control))

        if kind in ("a3", "affine_a5"):
            def shuffled(kind=kind, n=n):
                rng = random.Random(f"{options.seed}:shuffle:{kind}")
                orders = []
                for _ in range(3):
                    rels = list(build_presentation(kind).relators)
                    rng.shuffle(rels)
                    pres = build_presentation(kind)
                    pres = type(pres)(pres.generators, tuple(rels))
                    orders.append(todd_coxeter(pres, budget=options.budget).order)
                expected = [REFLECTION_GROUP_ORDERS[n]] * 3
                return expected, orders, "relator order does not change the result"

            items.append(PendingCheck(f"relator_order_invariance_{kind}", n, shuffled))

    return _run_all(items)


def tessellation_suite(options: Options) -> list[CheckReport]:
    items: list = []
    # Built inside the first check that needs it, so its time and any error
    # are charged to a check; the other checks of this run reuse it.
    tile_graph = cache(build_tessellation)
    for n in _dimensions(options):

        def tiles(n=n):
            tg = tile_graph(n)
            return TILE_COUNTS[n], tg.tile_count, "cells in the quotient mod 3"

        items.append(PendingCheck(f"tile_count_n{n}", n, tiles))

        def slots(n=n):
            tg = tile_graph(n)
            per_tile = [0] * tg.tile_count
            for a, _, _ in tg.edges:
                per_tile[a] += 1
            ok = all(c == WALL_COUNTS[n] for c in per_tile)
            return True, ok, "every tile exposes one neighbor slot per wall"

        items.append(PendingCheck(f"boundary_slots_n{n}", n, slots))

        def connected(n=n):
            return True, tile_graph(n).is_connected(), "tile adjacency graph is connected"

        items.append(PendingCheck(f"connected_n{n}", n, connected))

        def self_loops(n=n):
            return 0, tile_graph(n).self_loop_count(), "no wall glues a tile to itself"

        items.append(PendingCheck(f"self_loop_count_n{n}", n, self_loops))

        def lagrange(n=n):
            tg = tile_graph(n)
            group = reflection_image_mod3(n)
            expected = {
                "tiles": TILE_COUNTS[n],
                "stabilizer_order": STABILIZER_ORDERS[n],
                "product": TILE_COUNTS[n] * STABILIZER_ORDERS[n],
                "group_order": TILE_COUNTS[n] * STABILIZER_ORDERS[n],
            }
            actual = {
                "tiles": tg.tile_count,
                "stabilizer_order": STABILIZER_ORDERS[n],
                "product": tg.tile_count * STABILIZER_ORDERS[n],
                "group_order": group.order,
            }
            return expected, actual, "tiles times stabilizer equals the projective group order"

        items.append(PendingCheck(f"lagrange_n{n}", n, lagrange))

        def sign_quotient(n=n):
            linear = reflection_image_mod3(n, projective=False)
            projective = reflection_image_mod3(n)
            actual = {
                "ratio": linear.order // projective.order,
                "contains_minus_identity": linear.contains_minus_identity,
            }
            expected = {"ratio": 2, "contains_minus_identity": True}
            details = f"linear order {linear.order}, projective order {projective.order}"
            return expected, actual, details

        items.append(PendingCheck(f"sign_quotient_n{n}", n, sign_quotient))

    return _run_all(items)


def e6_suite(options: Options) -> list[CheckReport]:
    items: list = []

    def count():
        return 72, len(root_system().roots), "roots generated from the simple ones"

    items.append(PendingCheck("root_count", None, count))

    def membership():
        return True, verify_membership(), "all ten configuration vectors are roots"

    items.append(PendingCheck("beta_membership", None, membership))

    def gram():
        return True, verify_petersen_gram(), "pairings 2 on the diagonal, 1 on edges, 0 off"

    items.append(PendingCheck("gram_matches_diagram", None, gram))

    def hexsums():
        return True, verify_hexagon_sums(), "alternating sums vanish around every hexagon"

    items.append(PendingCheck("hexagon_sums_vanish", None, hexsums))

    def fixed_points():
        return True, verify_reflection_fixed_points(), "reflection fixes a root iff pairing is zero"

    items.append(PendingCheck("reflection_fixed_points", None, fixed_points))

    def singletons():
        return True, verify_singletons_commute(), "reflections at pairwise non-adjacent labels commute"

    items.append(PendingCheck("singleton_commutation", None, singletons))

    def order():
        return 51840, generation_order(), "permutation group generated on the 72 roots"

    items.append(PendingCheck("generation_order", None, order))

    def agreement():
        table = enumerate_diagram_group("petersen", options.budget)
        matrix_group = closure(
            tuple(wall_reflections_mod3(4).values()), projective=True
        )
        expected = {"roots": 51840, "cosets": 51840, "matrices": 51840}
        actual = {
            "roots": generation_order(),
            "cosets": table.order,
            "matrices": matrix_group.order,
        }
        return expected, actual, "three independent routes to the same order"

    items.append(PendingCheck("triple_agreement", None, agreement))

    return _run_all(items)


# Null vectors of the hermitian form make bad mirrors; these all have
# self-pairing one.
UNIT_AXES = (
    (0, 1, 0, 0),
    (0, 0, 0, 1),
    (1, 1, 1, 0),
    (1, 1, 0, 1),
)


def _random_eisenstein_vector(rng: random.Random) -> EisensteinVector:
    return evec(*[eis(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)])


def eisenstein_suite(options: Options) -> list[CheckReport]:
    items: list = []
    omega = eis(0, 1)

    def unit_relation():
        actual = omega * omega + omega + eis(1) == eis(0)
        return True, actual, "the generator is a primitive cube root of unity"

    items.append(PendingCheck("unit_relation", None, unit_relation))

    def conj_multiplicative():
        rng = random.Random(f"{options.seed}:conj")
        ok = True
        for _ in range(200):
            a = eis(rng.randint(-9, 9), rng.randint(-9, 9))
            b = eis(rng.randint(-9, 9), rng.randint(-9, 9))
            if (a * b).conj() != a.conj() * b.conj():
                ok = False
            na = a * a.conj()
            if na.b != 0 or na.a < 0:
                ok = False
        return True, ok, "conjugation respects products, self-pairing is a nonnegative integer"

    items.append(PendingCheck("conjugation_multiplicative", None, conj_multiplicative))

    def herm_symmetry():
        rng = random.Random(f"{options.seed}:herm")
        ok = True
        for _ in range(100):
            u = _random_eisenstein_vector(rng)
            v = _random_eisenstein_vector(rng)
            if herm(u, v) != herm(v, u).conj():
                ok = False
        return True, ok, "hermitian symmetry of the signature (3,1) form"

    items.append(PendingCheck("hermitian_symmetry", None, herm_symmetry))

    def preserves_form():
        rng = random.Random(f"{options.seed}:hexa")
        ok = True
        for axis_coords in UNIT_AXES:
            axis = evec(*axis_coords)
            for _ in range(50):
                u = _random_eisenstein_vector(rng)
                v = _random_eisenstein_vector(rng)
                hu, hv = hexaflection(axis, u), hexaflection(axis, v)
                if herm(hu, hv) != herm(u, v):
                    ok = False
        return True, ok, "hexaflections are isometries of the hermitian form"

    items.append(PendingCheck("hexaflection_preserves_form", None, preserves_form))

    def axis_eigenvalue():
        ok = True
        minus_omega_sq = eis(1, 1)
        for axis_coords in UNIT_AXES:
            axis = evec(*axis_coords)
            image = hexaflection(axis, axis)
            if image != axis.scale(minus_omega_sq):
                ok = False
        return True, ok, "the mirror normal is rotated by a primitive sixth root of unity"

    items.append(PendingCheck("hexaflection_axis_eigenvalue", None, axis_eigenvalue))

    def order_six():
        rng = random.Random(f"{options.seed}:order6")
        sample = [evec(*[1 if i == j else 0 for j in range(4)]) for i in range(4)]
        sample += [_random_eisenstein_vector(rng) for _ in range(10)]
        orders = set()
        for axis_coords in UNIT_AXES:
            axis = evec(*axis_coords)
            for k in range(1, 7):
                if all(_power(axis, v, k) == v for v in sample):
                    orders.add(k)
                    break
            else:
                orders.add(0)
        return {6}, orders, "sixth power is the first to fix everything"

    items.append(PendingCheck("hexaflection_order_six", None, order_six))

    def triflection_order():
        rng = random.Random(f"{options.seed}:order3")
        sample = [evec(*[1 if i == j else 0 for j in range(4)]) for i in range(4)]
        sample += [_random_eisenstein_vector(rng) for _ in range(10)]
        orders = set()
        for axis_coords in UNIT_AXES:
            axis = evec(*axis_coords)
            for k in range(1, 4):
                if all(_power(axis, v, 2 * k) == v for v in sample):
                    orders.add(k)
                    break
            else:
                orders.add(0)
        return {3}, orders, "the squared hexaflection has order three"

    items.append(PendingCheck("triflection_order_three", None, triflection_order))

    return _run_all(items)


def _power(axis: EisensteinVector, v: EisensteinVector, k: int) -> EisensteinVector:
    for _ in range(k):
        v = hexaflection(axis, v)
    return v


SUITE_RUNNERS = {
    "lattice": lattice_suite,
    "diagrams": diagrams_suite,
    "presentation": presentation_suite,
    "enumeration": enumeration_suite,
    "tessellation": tessellation_suite,
    "e6": e6_suite,
    "eisenstein": eisenstein_suite,
}


def run_suite(suite: str, options: Options = Options()) -> list[CheckReport]:
    """Run one named suite, or all of them in declaration order."""
    if suite == "all":
        reports: list[CheckReport] = []
        for name in SUITES:
            reports.extend(SUITE_RUNNERS[name](options))
        return reports
    return SUITE_RUNNERS[suite](options)


def _write_dot_files(suite: str, options: Options, out_dir: Path) -> list[Path]:
    written = []
    wants_diagrams = suite in ("diagrams", "all")
    wants_tiles = suite in ("tessellation", "all")
    if not (wants_diagrams or wants_tiles):
        raise ValueError(f"suite {suite!r} has no DOT export")
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in _dimensions(options):
        if wants_diagrams:
            kind = KIND_BY_N[n]
            path = out_dir / f"diagrams_{n}.dot"
            path.write_text(diagram_graph(kind).to_dot(f"diagram_n{n}"))
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
        "--n", type=int, choices=(2, 3, 4), default=None,
        help="restrict dimension-parameterized checks to one dimension",
    )
    parser.add_argument(
        "--max-n", type=int, choices=range(2, 8), default=6, metavar="N",
        help="largest dimension for the stabilizer congruence checks (default 6; 7 is slow)",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_COSET_BUDGET,
        help="coset budget for enumerations (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report (or DOT files) here instead of stdout",
    )
    parser.add_argument("--format", choices=("json", "dot"), default="json")
    args = parser.parse_args(argv)

    options = Options(n=args.n, max_n=args.max_n, budget=args.budget, seed=args.seed)

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

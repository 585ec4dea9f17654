"""Acceptance gate: ten checks, one printed pass/fail line each.

The congruence criterion runs up to n = 7, the largest supported
dimension, counting E7 down its parabolic chain E7 > E6 > D5 > A4 >
A2 x A1 > A1 by one transversal a level, in about a hundredth of a second,
closing no group.  A memory guard streams the whole E7 closure once, the
reference route, in about a second, and bounds the check's own memory and
work beside it.
"""

import hashlib
import random
import time

import numpy as np

from gosset.e6 import (
    generation_order,
    verify_hexagon_sums,
    verify_membership,
    verify_petersen_gram,
)
from gosset.eisenstein import forms, hexaflection_rows
from gosset.enumeration import (
    BUDGET_EXCEEDED,
    enumerate_diagram_group,
    todd_coxeter,
)
from gosset.geometry import (
    build_tessellation,
    gosset_walls,
    reflection_image_mod3,
    vertex_orbits,
    wall_pair_classification,
    wall_reflections_mod3,
)
from gosset import isometry
from gosset.isometry import (
    CongruenceIntersection,
    Matrix,
    congruence_intersection_check,
    reflection_matrix,
)
from gosset.lattice import inner, norm, simple_roots
from gosset.presentation import (
    braid_identity_check,
    build_presentation,
    diagram_automorphism_order,
    diagram_from_gram,
    diagram_graph,
    evaluate_word,
    free_hexagons,
)

KINDS = ((2, "a3"), (3, "affine_a5"), (4, "petersen"))
ORDERS = {"a3": 24, "affine_a5": 720, "petersen": 51840}


def _criterion(num, desc, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {num:02d}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_enumeration_orders():
    """The orders come from the presentations alone, bounded both ways: the
    index of a small subgroup times a bound on its order from above, the
    orbit of a tuple of its cosets from below, and the two meet."""
    start = time.perf_counter()
    orders = {kind: enumerate_diagram_group(kind).order for _, kind in KINDS}
    elapsed = time.perf_counter() - start
    ok = orders == ORDERS and elapsed < 60
    _criterion(1, "presented groups close at 24 / 720 / 51840", ok, elapsed)


def test_criterion_02_matrix_orders_match_enumeration():
    start = time.perf_counter()
    ok = True
    for n, kind in KINDS:
        group_order = reflection_image_mod3(n).order
        ok = ok and group_order == ORDERS[kind]
        ok = ok and group_order == enumerate_diagram_group(kind).order
    elapsed = time.perf_counter() - start
    _criterion(2, "mod-3 projective closures equal the enumerated orders", ok, elapsed)


def test_criterion_03_deflation_negative_control():
    plain = todd_coxeter(build_presentation("affine_a5", deflate=False), budget=100_000)
    ok = plain.status == BUDGET_EXCEEDED

    word = next(r for r in build_presentation("affine_a5").relators if len(r) == 10)
    walls = gosset_walls(3)
    mirrors = {l: reflection_matrix(walls.root_of(l)) for l in walls.labels}
    ok = ok and evaluate_word(word, mirrors) != Matrix.identity(4)
    mod3 = wall_reflections_mod3(3)
    ok = ok and evaluate_word(word, mod3) == Matrix.identity(4, 3)
    _criterion(3, "deflation is necessary and is an integer-nontrivial mod-3 identity", ok)


def test_criterion_04_tessellation_counts():
    ok = True
    for n, tiles, slots in ((2, 12, 3), (3, 60, 6), (4, 432, 10)):
        tg = build_tessellation(n)
        per_tile = [0] * tg.tile_count
        for a, _, _ in tg.edges:
            per_tile[a] += 1
        ok = ok and tg.tile_count == tiles
        ok = ok and tg.is_connected()
        ok = ok and all(c == slots for c in per_tile)
    _criterion(4, "tile graphs have 12 / 60 / 432 connected tiles with full wall slots", ok)


def test_criterion_05_congruence_kernels_trivial():
    expected = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
    start = time.perf_counter()
    ok = True
    for n in range(2, 8):
        result = congruence_intersection_check(n)
        ok = ok and result.order == expected[n]
        ok = ok and result.congruent_mod2 == 1 and result.congruent_mod3 == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    _criterion(
        5,
        "stabilizers up to n=7 meet the mod-2 and mod-3 kernels trivially",
        ok,
        elapsed,
    )


# sha256 of the 64 layers of the n = 7 closure, int8 matrices in discovery
# order, as the closure before the reflection kernel streamed them.
N7_LAYERS_SHA256 = "54d3360b9b6cbdb5542a74fcf6396b7c69a75208b3e7b42d4197d2ca6d428be6"


def test_congruence_n7_memory_stays_within_a_few_layers(
    traced_peak_mb, layer_builds, poincare_coefficients, congruence_counts, monkeypatch
):
    # The reference route: one streamed closure of E7, the seven long simple
    # reflections, counted against I.  It holds two layers (the largest has
    # 131,046 elements), never the 2,903,040 matrices: that alone is 186 MB
    # of int8.  The layers are hashed as they stream, in place.
    digest = hashlib.sha256()
    roots = [a for a in simple_roots(7) if norm(a) == 2]
    identity = {p: np.eye(8, dtype=np.int8)[None] for p in (2, 3)}

    def streamed():
        for block in isometry._reflection_layers(roots):
            digest.update(block)
            yield block

    counts, peak = traced_peak_mb(congruence_counts, streamed(), identity)
    assert counts == (2903040, 1, 1)
    assert peak < 64, f"the n = 7 closure traced a {peak:.1f} MB peak"
    assert digest.hexdigest() == N7_LAYERS_SHA256
    # Its layers count the elements of E7 by length, the coefficients of the
    # Poincare polynomial of its degrees 2, 6, 8, 10, 12, 14 and 18.
    sizes = [1] + layer_builds
    assert sizes == poincare_coefficients((2, 6, 8, 10, 12, 14, 18))
    assert (len(sizes), max(sizes)) == (64, 131046)

    # The check itself closes no group: it counts E7 down its parabolic
    # chain by the coset representatives of the six levels, which it walks
    # once and caches.  Cold, the walks build the 111 representatives other
    # than the levels' identities, and no other matrix; warm, nothing.
    closed = []
    reflection_layers = isometry._reflection_layers

    def spy(roots):
        closed.append(len(roots))
        return reflection_layers(roots)

    monkeypatch.setattr(isometry, "_reflection_layers", spy)
    isometry._transversal.cache_clear()
    layer_builds.clear()
    result, peak = traced_peak_mb(congruence_intersection_check, 7)
    assert result == CongruenceIntersection(7, 2903040, 1, 1)
    assert closed == []
    assert sum(layer_builds) == (56 - 1) + (27 - 1) + (16 - 1) + (10 - 1) + (6 - 1) + (2 - 1)
    assert peak < 0.25, f"the n = 7 check traced a {peak:.2f} MB peak"
    layer_builds.clear()
    assert congruence_intersection_check(7) == result
    assert layer_builds == []


def test_criterion_06_diagram_identities():
    ok = True
    for n, kind in KINDS:
        derived = diagram_from_gram(gosset_walls(n))
        reference = diagram_graph(kind)
        ok = ok and derived.nodes == reference.nodes and derived.edges == reference.edges
    petersen = diagram_graph("petersen")
    ok = ok and all(len(petersen.neighbors(v)) == 3 for v in petersen.nodes)
    ok = ok and petersen.girth() == 5
    ok = ok and len(free_hexagons(petersen)) == 10
    for kind, aut in (("a3", 2), ("affine_a5", 12), ("petersen", 120)):
        ok = ok and diagram_automorphism_order(diagram_graph(kind)) == aut
    _criterion(6, "wall diagrams, hexagon counts, and symmetry orders all match", ok)


def test_criterion_07_braid_identity():
    ok = braid_identity_check((0, 1, 0), (1, -1, -1), (1, 0, 0))
    rng = random.Random("acceptance:braid")
    for n in (3, 4):
        walls = gosset_walls(n)
        for la, lb in wall_pair_classification(walls).parallel:
            alpha, beta = walls.root_of(la), walls.root_of(lb)
            for _ in range(100):
                lam = tuple(rng.randint(-9, 9) for _ in range(n + 1))
                ok = ok and braid_identity_check(alpha, beta, lam)
    _criterion(7, "triple-product identity holds on every tangent pair", ok)


def test_criterion_08_e6_configuration():
    ok = verify_membership()
    ok = ok and verify_petersen_gram()
    ok = ok and verify_hexagon_sums()
    ok = ok and generation_order() == 51840
    _criterion(8, "ten labeled roots sit in the 72-root system and generate 51840", ok)


def test_criterion_09_wall_combinatorics():
    ok = True
    for n in (2, 3, 4):
        walls = gosset_walls(n)
        for i, a in enumerate(walls.roots):
            for b in walls.roots[i + 1 :]:
                ok = ok and inner(a, b) in (0, -1)
    vo = vertex_orbits(4)
    ok = ok and len(vo.apex_orbit) == 5 and len(vo.ideal_orbit) == 5 and vo.center_fixed
    pc = wall_pair_classification(gosset_walls(2))
    ok = ok and (len(pc.orthogonal), len(pc.parallel)) == (1, 2)
    _criterion(9, "wall angles, orbit sizes, and the triangle split check out", ok)


def test_criterion_10_hexaflection_orders():
    # a + b omega is the pair (a, b): (0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, omega, 1, 0)
    axes = np.array(
        [(0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0, 0, 0),
         (1, 0, 0, 1, 1, 0, 0, 0)]
    )
    p, q = forms(4)
    rng = random.Random("acceptance:hexaflection")
    ok = True
    for axis in axes:
        h = hexaflection_rows(axis)
        v = axis
        period = 0
        for k in range(1, 7):
            v = v @ h
            if (v == axis).all():
                period = k
                break
        ok = ok and period == 6
        w = axis @ h @ h
        ok = ok and (w != axis).any()
        w = w @ h @ h
        ok = ok and (w != axis).any()
        w = w @ h @ h
        ok = ok and (w == axis).all()
        for _ in range(25):
            u = np.array([rng.randint(-5, 5) for _ in range(8)])
            t = np.array([rng.randint(-5, 5) for _ in range(8)])
            for form in (p, q):
                ok = ok and (u @ h) @ form @ (t @ h) == u @ form @ t
    _criterion(10, "hexaflections have exact order 6, squares order 3, form preserved", ok)

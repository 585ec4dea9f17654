"""Wall systems, stabilizer orbits, and the quotient tessellations."""

import time
from itertools import combinations

import numpy as np
import pytest

from gosset.geometry import (
    TileGraph,
    _assert_pair_symmetric,
    _assert_representative_independent,
    _assert_stabilizer_permutes_walls,
    _crossings,
    build_tessellation,
    conjugate_wall_set,
    gosset_walls,
    reflection_image_mod3,
    stabilizer_generators_mod3,
    stabilizer_orbit,
    verify_generator_words,
    vertex_orbits,
    wall_pair_classification,
    wall_reflections_mod3,
)
from gosset.isometry import Matrix, coset_space, reflection_matrix
from gosset.lattice import basis_vector, inner, norm

WALL_COUNTS = {2: 3, 3: 6, 4: 10}


def test_wall_labels():
    assert gosset_walls(2).labels == ("1", "2", "3")
    assert gosset_walls(3).labels == ("1", "2", "3", "4", "5", "6")
    singles = tuple(str(i) for i in range(1, 5))
    pairs = tuple("".join(map(str, jk)) for jk in combinations(range(1, 5), 2))
    assert gosset_walls(4).labels == singles + pairs


def test_wall_roots_have_norm_one():
    for n in (2, 3, 4):
        walls = gosset_walls(n)
        assert len(walls.roots) == WALL_COUNTS[n]
        assert all(norm(r) == 1 for r in walls.roots)


def test_petersen_wall_coordinates():
    walls = gosset_walls(4)
    e = [basis_vector(i, 4) for i in range(5)]
    assert walls.root_of("2") == e[2]
    assert walls.root_of("13") == e[0] - e[1] - e[3]


def test_distinct_wall_pairings():
    for n, split in ((2, (1, 2)), (3, (9, 6)), (4, (30, 15))):
        walls = gosset_walls(n)
        pc = wall_pair_classification(walls)
        assert (len(pc.orthogonal), len(pc.parallel)) == split
        for la, lb in pc.orthogonal:
            assert inner(walls.root_of(la), walls.root_of(lb)) == 0
        for la, lb in pc.parallel:
            assert inner(walls.root_of(la), walls.root_of(lb)) == -1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugate_wall_set_is_the_wall_mirrors(n):
    assert conjugate_wall_set(n) == {reflection_matrix(r) for r in gosset_walls(n).roots}


def test_verify_generator_words_all_dimensions():
    for n in (2, 3, 4):
        assert verify_generator_words(n)


def test_wall_routes_reject_dimensions_out_of_range():
    # The wall side is built first: at n = 8 the stabilizer is infinite (affine
    # E8), so an orbit built before the range check would run to its budget.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="wall systems"):
        verify_generator_words(8)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="between 2 and 8"):
        conjugate_wall_set(9)


def test_stabilizer_orbit_of_apex():
    orbit = stabilizer_orbit(4, basis_vector(0, 4))
    assert len(orbit) == 5
    assert basis_vector(0, 4) in orbit


def test_vertex_orbits():
    for n, apex, ideal in ((2, 1, 2), (3, 2, 3), (4, 5, 5)):
        vo = vertex_orbits(n)
        assert len(vo.apex_orbit) == apex
        assert len(vo.ideal_orbit) == ideal
        assert vo.center_fixed


def test_wall_reflections_mod3_are_involutions():
    for n in (2, 3, 4):
        mats = wall_reflections_mod3(n)
        assert len(mats) == WALL_COUNTS[n]
        identity = Matrix.identity(n + 1, 3)
        for m in mats.values():
            assert m @ m == identity
            assert m != identity


def test_reflection_image_orders():
    # The full simple-reflection image contains the central sign, the wall
    # image does not; projectively they are the same group.
    for n, order in ((2, 24), (3, 720)):
        assert reflection_image_mod3(n).order == order
        assert reflection_image_mod3(n, projective=False).order == 2 * order


def test_stabilizer_permutes_the_walls_as_sign_classes():
    walls = list(wall_reflections_mod3(4).values())
    _assert_stabilizer_permutes_walls(4, walls)
    _assert_stabilizer_permutes_walls(4, [m.neg() for m in walls[:5]] + walls[5:])
    # The stabilizer is transitive on the ten walls, so it moves any proper subset.
    for k in range(len(walls)):
        with pytest.raises(AssertionError, match="permute"):
            _assert_stabilizer_permutes_walls(4, walls[:k] + walls[k + 1 :])


@pytest.mark.parametrize("n,tiles", [(2, 12), (3, 60), (4, 432)])
def test_tessellation_counts(n, tiles):
    tg = build_tessellation(n)
    assert tg.tile_count == tiles
    assert tg.wall_labels == gosset_walls(n).labels
    assert len(tg.edges) == tiles * WALL_COUNTS[n]


def test_tessellation_connected_without_self_gluing():
    for n in (2, 3, 4):
        tg = build_tessellation(n)
        assert tg.is_connected()
        assert tg.self_loop_count() == 0
        with pytest.raises(ValueError, match="read-only"):
            tg.neighbors[0, 0] = 1


def test_tile_graph_with_two_components_is_not_connected():
    # Tiles 0, 1 and 2, 3 swap across both walls; no wall joins the pairs.
    tg = TileGraph(2, ("a", "b"), np.array([[1, 1], [0, 0], [3, 3], [2, 2]]))
    assert not tg.is_connected()
    assert TileGraph(2, ("a", "b"), np.array([[1, 2], [0, 3], [3, 0], [2, 1]])).is_connected()


def test_tessellation_slots_and_symmetry():
    for n in (2, 3):
        tg = build_tessellation(n)
        slots = [0] * tg.tile_count
        seen = set()
        for a, label, b in tg.edges:
            slots[a] += 1
            seen.add((a, b))
        assert all(s == WALL_COUNTS[n] for s in slots)
        assert all((b, a) in seen for a, b in seen)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tessellation_assertions_pass_on_the_real_tile_arrays(n, stabilizer_steps):
    group = reflection_image_mod3(n)
    steps = stabilizer_steps(group, n)
    space = coset_space(steps)
    walls = list(wall_reflections_mod3(n).values())
    reps = space.representative_indices
    neighbors = _crossings(group, space, walls, reps)
    assert neighbors.tolist() == build_tessellation(n).neighbors.tolist()
    _assert_pair_symmetric(neighbors)
    for h, column in zip(stabilizer_generators_mod3(n), steps.T):
        assert np.array_equal(column[reps], group.right_multiply(reps, h))
        _assert_representative_independent(neighbors, _crossings(group, space, walls, column[reps]))


def test_tessellation_assertions_fire_on_crafted_arrays():
    # Tile 0 crosses into tile 1 twice, so tile 1 must cross back twice, not once.
    _assert_pair_symmetric(np.array([[1, 1], [0, 0]]))
    with pytest.raises(AssertionError, match="not symmetric"):
        _assert_pair_symmetric(np.array([[1, 1], [0, 1]]))
    with pytest.raises(AssertionError, match="not symmetric"):
        _assert_pair_symmetric(np.array([[1], [2], [2]]))
    # Rows may permute their walls, not change their neighbor multisets.
    triangle = np.array([[1, 2], [0, 2], [0, 1]])
    _assert_representative_independent(triangle, triangle[:, ::-1])
    with pytest.raises(AssertionError, match="coset representative"):
        _assert_representative_independent(triangle, np.array([[1, 1], [0, 2], [0, 1]]))


def test_tessellation_dot_is_deterministic():
    # Two builds: build_tessellation itself is cached and would return one object twice.
    first = build_tessellation.__wrapped__(2).to_dot()
    second = build_tessellation.__wrapped__(2).to_dot()
    assert first == second
    assert first.startswith("graph ")
    assert first.count("--") == 18

"""Gosset polytope wall systems and the finite mod-3 tessellation.

For n = 2, 3, 4 the fundamental polytope P of O+(Z^{n,1}) has walls mirrored
by norm-1 roots: the coordinate roots e_i together with e_0 - e_j - e_k.
Distinct walls pair to 0 (orthogonal) or -1 (parallel, meeting at the ideal
boundary), so P is right angled.  The finite stabilizer of P, generated by
the long simple reflections, permutes the walls.  That the wall mirrors are
exactly the reflections in the stabilizer orbits of the norm-1 simple roots
is verified here rather than assumed, as are the chamber-vertex orbits.

Reducing mod 3 and factoring out -I gives a finite quotient in which the
images of P tile: tiles are cosets of the stabilizer image, and crossing
wall i maps the tile of g to the tile of g * t_i where t_i is the wall
reflection.  The stabilizer is generated by some of the closure's own
generators, so the cosets are read off those columns of the closure's
table, with no product.  The resulting tile graphs have 12, 60 and 432
tiles for n = 2, 3, 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .lattice import (
    LatticeVector,
    Root,
    basis,
    chamber_vertices,
    inner,
    norm,
    root,
    simple_roots,
)
from .isometry import (
    CosetSpace,
    GroupClosure,
    Matrix,
    Rows,
    coset_space,
    finite_group_elements,
    long_simple_reflections,
    memoize,
    orbit,
    reflection_matrix,
    table_walk,
)

TESSELLATION_DIMENSIONS = (2, 3, 4)


@dataclass(frozen=True)
class GossetWallSystem:
    """Labeled norm-1 wall roots of the fundamental polytope."""

    n: int
    labels: tuple[str, ...]
    roots: tuple[Root, ...]

    def root_of(self, label: str) -> Root:
        return self.roots[self.labels.index(label)]


def gosset_walls(n: int) -> GossetWallSystem:
    """Wall system of the Gosset polytope, n in {2, 3, 4}.

    Labels: coordinate walls are named by their index ("1", ..., "n"); the
    walls e_0 - e_j - e_k are named "jk".  For n = 2 the single wall of that
    shape is called "3", matching its position in the path diagram 1 - 3 - 2.
    """
    if n not in TESSELLATION_DIMENSIONS:
        raise ValueError(f"wall systems exist for n in {TESSELLATION_DIMENSIONS}, got {n}")
    e = basis(n)
    if n == 2:
        labels = ("1", "2", "3")
        roots = (e[1], e[2], e[0] - e[1] - e[2])
    elif n == 3:
        labels = ("1", "2", "3", "4", "5", "6")
        roots = (e[1], e[2], e[3], e[0] - e[1] - e[2], e[0] - e[2] - e[3], e[0] - e[1] - e[3])
    else:
        singles = [str(i) for i in range(1, 5)]
        pairs = ["".join(map(str, jk)) for jk in combinations(range(1, 5), 2)]
        labels = tuple(singles + pairs)
        roots = tuple(
            [e[i] for i in range(1, 5)]
            + [e[0] - e[j] - e[k] for j, k in combinations(range(1, 5), 2)]
        )
    return GossetWallSystem(n, labels, tuple(root(r) for r in roots))


@dataclass(frozen=True)
class WallPairClassification:
    """Unordered distinct wall pairs split by their pairing value."""

    orthogonal: tuple[tuple[str, str], ...]  # pairing 0, mirrors cross at right angle
    parallel: tuple[tuple[str, str], ...]  # pairing -1, mirrors meet at infinity


def wall_pair_classification(walls: GossetWallSystem) -> WallPairClassification:
    """Classify wall pairs; any pairing outside {0, -1} is an error."""
    orth: list[tuple[str, str]] = []
    par: list[tuple[str, str]] = []
    for (la, ra), (lb, rb) in combinations(zip(walls.labels, walls.roots), 2):
        val = inner(ra, rb)
        if val == 0:
            orth.append((la, lb))
        elif val == -1:
            par.append((la, lb))
        else:
            raise ValueError(f"walls {la}, {lb} pair to {val}, polytope not right angled")
    return WallPairClassification(tuple(orth), tuple(par))


@memoize
def simple_reflection_matrices(n: int) -> tuple[Matrix, ...]:
    return tuple(reflection_matrix(a) for a in simple_roots(n))


def wall_reflection_matrices(n: int) -> dict[str, Matrix]:
    walls = gosset_walls(n)
    return {lab: reflection_matrix(r) for lab, r in zip(walls.labels, walls.roots)}


def conjugate_wall_set(n: int) -> set[Matrix]:
    """Reflections in the stabilizer orbits of the norm-1 simple roots.

    w s_alpha w^{-1} = s_{w alpha} for every isometry w (Humphreys, Reflection
    Groups and Coxeter Groups, 1.2), so these are the stabilizer conjugates of
    the short simple reflections: alpha_0 and alpha_2 at n = 2, alpha_n alone
    at n = 3 and 4.
    """
    short = [a for a in simple_roots(n) if norm(a) == 1]
    return {reflection_matrix(r) for a in short for r in stabilizer_orbit(n, a)}


def verify_generator_words(n: int) -> bool:
    """Check that the wall mirrors are the stabilizer conjugates of the short simple
    reflections; the walls come first, so an n without walls raises before any orbit."""
    walls = set(wall_reflection_matrices(n).values())
    return walls == conjugate_wall_set(n)


def stabilizer_orbit(n: int, v: LatticeVector) -> frozenset[LatticeVector]:
    """Orbit of a vector under the finite stabilizer of the polytope.

    That is its orbit under the long simple reflections M, as rows u -> u M^T.
    """
    transposed = np.array([g.entries for g in long_simple_reflections(n)]).transpose(0, 2, 1)
    found = orbit(np.array([v.coords]), lambda f: f @ transposed)
    return frozenset(LatticeVector(tuple(row)) for row in found.tolist())


@dataclass(frozen=True)
class VertexOrbits:
    """Stabilizer orbits of the first two chamber vertices, plus the fixed center."""

    n: int
    apex_orbit: frozenset[LatticeVector]  # orbit of v_0
    ideal_orbit: frozenset[LatticeVector]  # orbit of v_1, the ideal vertex
    center_fixed: bool  # whether v_n is fixed by the whole stabilizer


def vertex_orbits(n: int) -> VertexOrbits:
    verts = chamber_vertices(n)
    fixed = len(stabilizer_orbit(n, verts[n])) == 1
    return VertexOrbits(n, stabilizer_orbit(n, verts[0]), stabilizer_orbit(n, verts[1]), fixed)


@memoize
def reflection_image_mod3(n: int, projective: bool = True) -> GroupClosure:
    """Mod-3 closure of all n+1 simple reflections, optionally mod {I, -I}."""
    gens = [m.reduce(3) for m in simple_reflection_matrices(n)]
    return GroupClosure(gens, projective=projective)


def stabilizer_generators_mod3(n: int) -> tuple[Matrix, ...]:
    return tuple(m.reduce(3) for m in long_simple_reflections(n))


def wall_reflections_mod3(n: int) -> dict[str, Matrix]:
    return {lab: mat.reduce(3) for lab, mat in wall_reflection_matrices(n).items()}


@dataclass(frozen=True, eq=False)
class TileGraph:
    """Tiles of the mod-3 quotient tessellation with labeled wall crossings.

    neighbors[tile, j], a read-only int array, is the tile reached by crossing
    wall wall_labels[j] from tile, tiles numbered by their coset ids.  At
    build time the crossings between each pair of tiles are asserted to be as
    many in each direction, and each tile's row, as a multiset, to be
    independent of its coset representative.
    """

    n: int
    wall_labels: tuple[str, ...]
    neighbors: np.ndarray

    @property
    def tile_count(self) -> int:
        return len(self.neighbors)

    @property
    def edges(self) -> tuple[tuple[int, str, int], ...]:
        """One (tile, wall label, neighbor tile) triple per tile and wall, in tile order."""
        return tuple(
            (a, lab, b)
            for a, row in enumerate(self.neighbors.tolist())
            for lab, b in zip(self.wall_labels, row)
        )

    def self_loop_count(self) -> int:
        return int((self.neighbors == np.arange(self.tile_count)[:, None]).sum())

    def is_connected(self) -> bool:
        return len(table_walk(self.neighbors)) == self.tile_count

    def to_dot(self) -> str:
        """Deterministic DOT text: tiles in id order, one line per crossing pair.

        A crossing between distinct tiles is written once with the wall
        labels seen from each side as "a_label|b_label".
        """
        lines = [f"graph tiles_n{self.n} {{"]
        for t in range(self.tile_count):
            lines.append(f"  {t};")
        outgoing: dict[tuple[int, int], list[str]] = {}
        for a, lab, b in self.edges:
            outgoing.setdefault((a, b), []).append(lab)
        for (a, b), labs in sorted(outgoing.items()):
            if a > b:
                continue
            if a == b:
                for lab in sorted(labs):
                    lines.append(f'  {a} -- {a} [label="{lab}"];')
                continue
            back = sorted(outgoing.get((b, a), []))
            for lab, rev in zip(sorted(labs), back):
                lines.append(f'  {a} -- {b} [label="{lab}|{rev}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _assert_stabilizer_permutes_walls(n: int, walls: Sequence[Matrix]) -> None:
    """Conjugation by stabilizer generators must permute the wall reflections.

    This is what makes a tile's neighbor multiset independent of the choice
    of coset representative.  Walls are compared as sign classes {M, -M}.
    """

    def sign_classes(mats: Sequence[Matrix]) -> set[frozenset[Rows]]:
        return {frozenset({m.entries, m.neg().entries}) for m in mats}

    wall_set = sign_classes(walls)
    for h in stabilizer_generators_mod3(n):
        if sign_classes([h @ t @ h for t in walls]) != wall_set:
            raise AssertionError("stabilizer fails to permute the walls mod 3")


@memoize
def build_tessellation(n: int) -> TileGraph:
    """Tile graph of the mod-3 quotient: cosets of the stabilizer image.

    Tiles are left cosets of the stabilizer image inside the projective
    mod-3 closure; crossing wall i from the tile of g lands in the tile of
    g t_i.  Build fails if the stabilizer image does not inject (which would
    collapse cosets) or if any well-definedness assertion trips.  Cached:
    each tile graph is built once per process.
    """
    if n not in TESSELLATION_DIMENSIONS:
        raise ValueError(f"tessellations are built for n in {TESSELLATION_DIMENSIONS}, got {n}")
    group = reflection_image_mod3(n, projective=True)
    # The stabilizer's generators are some of the group's: H steps by their columns.
    steps = group.table[:, [group.generators.index(h) for h in stabilizer_generators_mod3(n)]]
    space = coset_space(steps)
    if space.subgroup_order != len(finite_group_elements(long_simple_reflections(n))):
        raise AssertionError("stabilizer image collapsed in the projective quotient")

    walls = list(wall_reflections_mod3(n).values())
    _assert_stabilizer_permutes_walls(n, walls)

    reps = space.representative_indices
    neighbors = _crossings(group, space, walls, reps)
    _assert_pair_symmetric(neighbors)
    alternatives = _crossings(group, space, walls, steps[reps, 0])
    _assert_representative_independent(neighbors, alternatives)
    neighbors.flags.writeable = False
    return TileGraph(n, gosset_walls(n).labels, neighbors)


def _crossings(
    group: GroupClosure, space: CosetSpace, walls: Sequence[Matrix], elements: np.ndarray
) -> np.ndarray:
    """The coset of g t for each element g (by index) and wall t: elements x walls."""
    columns = [space.cosets_of(group.right_multiply(elements, t)) for t in walls]
    return np.stack(columns, axis=1)


def _assert_pair_symmetric(neighbors: np.ndarray) -> None:
    """The tile x tile crossing-count matrix must equal its transpose."""
    tiles, walls = neighbors.shape
    pairs = np.repeat(np.arange(tiles), walls) * tiles + neighbors.ravel()
    counts = np.bincount(pairs, minlength=tiles * tiles).reshape(tiles, tiles)
    if not np.array_equal(counts, counts.T):
        raise AssertionError("tile adjacency is not symmetric")


def _assert_representative_independent(neighbors: np.ndarray, alternative: np.ndarray) -> None:
    """Rows crossed from two representatives of each tile must agree as multisets."""
    if not np.array_equal(np.sort(neighbors, axis=1), np.sort(alternative, axis=1)):
        raise AssertionError("tile neighbors depend on the coset representative")

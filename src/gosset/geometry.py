"""Gosset polytope wall systems and the finite mod-3 tessellation.

For n = 2, 3, 4 the fundamental polytope P of O+(Z^{n,1}) has walls mirrored
by norm-1 roots: the coordinate roots e_i together with e_0 - e_j - e_k.
Distinct walls pair to 0 (orthogonal) or -1 (parallel, meeting at the ideal
boundary), so P is right angled.  The finite stabilizer of P, generated by
the long simple reflections, permutes the walls.  That the wall mirrors are
exactly the reflections in the stabilizer orbits of the norm-1 simple roots
is verified here rather than assumed, as are the chamber-vertex orbits.

Reducing mod 3 and factoring out -I gives a finite quotient in which the
images of P tile.  A tile gP is its set of walls gW, points of P^n(F_3),
and crossing its wall g r_i reflects that set in the point g r_i.  So the
tiles are the orbit of W under the simple reflections, walked on one table
of the reflections of P^n(F_3) in its points; only the check of their
count reads group orders.  The resulting tile graphs have 12, 60 and 432
tiles for n = 2, 3, 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .lattice import Root, Vector, chamber_vertices, gram, inner, norm, root, simple_roots
from .isometry import (
    GroupClosure,
    Matrix,
    coset_space,
    finite_group_elements,
    long_simple_reflections,
    memoize,
    numbered_points,
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
    e = np.eye(n + 1, dtype=np.int64)
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
    return GossetWallSystem(n, labels, tuple(root(r.tolist()) for r in roots))


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


def stabilizer_orbit(n: int, v: Vector) -> frozenset[Vector]:
    """Orbit of a vector under the finite stabilizer of the polytope.

    That is its orbit under the long simple reflections M, as rows u -> u M^T.
    """
    transposed = np.array([g.entries for g in long_simple_reflections(n)]).transpose(0, 2, 1)
    found = orbit(np.array([v]), lambda f: f @ transposed)
    return frozenset(map(tuple, found.tolist()))


@dataclass(frozen=True)
class VertexOrbits:
    """Stabilizer orbits of the first two chamber vertices, plus the fixed center."""

    n: int
    apex_orbit: frozenset[Vector]  # orbit of v_0
    ideal_orbit: frozenset[Vector]  # orbit of v_1, the ideal vertex
    center_fixed: bool  # whether v_n is fixed by the whole stabilizer


def vertex_orbits(n: int) -> VertexOrbits:
    verts = chamber_vertices(n)
    fixed = len(stabilizer_orbit(n, verts[n])) == 1
    return VertexOrbits(n, stabilizer_orbit(n, verts[0]), stabilizer_orbit(n, verts[1]), fixed)


@memoize
def reflection_image_mod3(n: int, projective: bool = True) -> GroupClosure:
    """The mod-3 image of all n+1 simple reflections, optionally mod {I, -I}:
    its order and membership by a stabilizer chain."""
    gens = [m.reduce(3) for m in simple_reflection_matrices(n)]
    return GroupClosure(gens, projective=projective)


def wall_reflections_mod3(n: int) -> dict[str, Matrix]:
    return {lab: mat.reduce(3) for lab, mat in wall_reflection_matrices(n).items()}


def point_reflections_mod3(n: int) -> tuple[np.ndarray, Callable]:
    """The reflections of P^n(F_3) in its anisotropic points, and the points of roots.

    The points are the classes {v, -v} of (Z/3)^{n+1}, numbered as point_action
    numbers them.  Row p is s_p(q) = q - 2 (q, p) / (p, p) p in the Lorentz form,
    2 / (p, p) = 2 (p, p) mod 3; the isotropic points mirror nothing: rows of -1.
    """
    vectors, number = numbered_points(3, n + 1, projective=True)
    form = vectors @ gram(n + 1) @ vectors.T % 3
    scale = 2 * form.diagonal() % 3
    table = number(vectors[None] - (scale[:, None] * form)[:, :, None] * vectors[:, None])
    table[scale == 0] = -1
    return table, number


@dataclass(frozen=True, eq=False)
class TileGraph:
    """Tiles of the mod-3 quotient tessellation with labeled wall crossings.

    neighbors[tile, j], a read-only int array, is the tile reached by crossing
    wall wall_labels[j] from tile, tiles numbered in the order the walk of
    wall sets first reaches them, and wall j of a tile the j-th point of its
    labelled tuple then.  At build time the crossings between each pair of
    tiles are asserted to be as many in each direction.
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


@memoize
def build_tessellation(n: int) -> TileGraph:
    """Tile graph of the mod-3 quotient: the orbit of the chamber's wall set.

    A tile gP is its wall set gW, the points {+-g r} of P^n(F_3), and
    crossing wall j of the labelled tile T = (g r_1, ..., g r_k) reflects it
    in g r_j, landing on the set s_{T_j}(T), as w s_a w^-1 = s_{wa}
    (Humphreys, Reflection Groups and Coxeter Groups, 1.2).  coset_space
    walks the orbit of W under the simple reflections, the cosets of W's set
    stabilizer, which holds the stabilizer image H (the generator_words
    checks show H permutes the walls).  The build raises unless tiles x |H|
    is the projective image's order, so the set stabilizer is H.  Cached.
    """
    if n not in TESSELLATION_DIMENSIONS:
        raise ValueError(f"tessellations are built for n in {TESSELLATION_DIMENSIONS}, got {n}")
    reflections, points = point_reflections_mod3(n)
    walls = gosset_walls(n)
    space = coset_space(reflections[points(simple_roots(n))], points(walls.roots))
    stabilizer = len(finite_group_elements(long_simple_reflections(n)))
    if space.count * stabilizer != reflection_image_mod3(n, projective=True).order:
        raise AssertionError("the wall set's stabilizer is not the stabilizer image")
    crossed = reflections[space.tuples[:, :, None], space.tuples[:, None]]  # tile, wall, point
    neighbors = space.cosets_of(crossed.reshape(-1, len(walls.roots))).reshape(crossed.shape[:2])
    _assert_pair_symmetric(neighbors)
    neighbors.flags.writeable = False
    return TileGraph(n, walls.labels, neighbors)


def _assert_pair_symmetric(neighbors: np.ndarray) -> None:
    """The tile x tile crossing-count matrix must equal its transpose."""
    tiles, walls = neighbors.shape
    pairs = np.repeat(np.arange(tiles), walls) * tiles + neighbors.ravel()
    counts = np.bincount(pairs, minlength=tiles * tiles).reshape(tiles, tiles)
    if not np.array_equal(counts, counts.T):
        raise AssertionError("tile adjacency is not symmetric")

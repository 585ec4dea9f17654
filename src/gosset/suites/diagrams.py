"""The diagrams suite: the walls of the Gosset cells and their Coxeter diagrams."""

from __future__ import annotations

from ..geometry import gosset_walls, vertex_orbits, verify_generator_words, wall_pair_classification
from ..lattice import norm
from ..presentation import (
    diagram_automorphism_order,
    diagram_from_gram,
    diagram_graph,
    free_hexagons,
    petersen_kneser_check,
)
from . import DIMS, WALL_COUNTS, check

PAIR_SPLIT = {2: (1, 2), 3: (9, 6), 4: (30, 15)}
AUT_ORDERS = {"a3": 2, "affine_a5": 12, "petersen": 120}
GIRTHS = {"a3": 0, "affine_a5": 6, "petersen": 5}
HEXAGON_COUNTS = {"a3": 0, "affine_a5": 1, "petersen": 10}
APEX_ORBIT_SIZES = {2: 1, 3: 2, 4: 5}
IDEAL_ORBIT_SIZES = {2: 2, 3: 3, 4: 5}


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

"""The e6 suite: the Petersen configuration of ten roots inside E6, and W(E6) three ways."""

from __future__ import annotations

from ..e6 import (
    SIMPLE_ROOTS,
    beta_permutations,
    generation_order,
    root_system,
    verify_hexagon_sums,
    verify_membership,
    verify_petersen_gram,
    verify_reflection_fixed_points,
    verify_singletons_commute,
)
from ..enumeration import enumerate_diagram_group, projective_action, verify_labelling
from ..geometry import wall_reflections_mod3
from . import check


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
    # The order of the ten wall reflections that matrix_cross_check_petersen
    # computes, shared: a stabilizer chain of their point action, as the roots'
    # order is of theirs, so neither reads the presented table.
    # reflection_image_mod3(4) orders the simple reflections' image; reading its
    # order here would repeat lagrange_n4, not check it.
    walls = wall_reflections_mod3(4)
    matrices = projective_action(tuple(walls[g] for g in table.generators))
    expected = {"roots": 51840, "cosets": 51840, "matrices": 51840}
    actual = {"roots": generation_order(), "cosets": table.order, "matrices": matrices.order}
    return expected, actual, "three independent routes to the same order"


@check("e6", "cayley_table_roots_matches_presentation")
def _cayley_table_roots_matches_presentation(c):
    presented = enumerate_diagram_group("petersen")
    basis = [root_system().root_index(r) for r in SIMPLE_ROOTS]
    same = verify_labelling(presented, beta_permutations(), basis)
    return True, same, "the beta reflections on the roots give the presentation's table"

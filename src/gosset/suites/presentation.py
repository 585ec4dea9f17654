"""The presentation suite: relators, their images mod 3 and over Z, and the braid identity.

`braid_identity_random_n*` checks on a basis: both sides of the braid
identity are linear in the test vector, so e_0..e_n decide it.
"""

from __future__ import annotations

from ..geometry import (
    gosset_walls,
    wall_pair_classification,
    wall_reflection_matrices,
    wall_reflections_mod3,
)
from ..isometry import Matrix
from ..lattice import basis
from ..presentation import (
    braid_identity_check,
    build_presentation,
    evaluate_word,
    presentation_from_text,
    presentation_to_text,
)
from . import DIMS, check

RELATOR_PROFILE = {
    "a3": {2: 3, 4: 1, 6: 2, 10: 0},
    "affine_a5": {2: 6, 4: 9, 6: 6, 10: 1},
    "petersen": {2: 10, 4: 30, 6: 15, 10: 10},
}


@check("presentation", "braid_identity_fixed")
def _braid_identity_fixed(c):
    ok = braid_identity_check((0, 1, 0), (1, -1, -1), (1, 0, 0))
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
        for lam in basis(c.n)
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

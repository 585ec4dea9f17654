"""Diagrams, odd presentations, deflation words, and the braid identity."""

import random

import pytest

from gosset.cli import AUT_ORDERS, GIRTHS
from gosset.geometry import gosset_walls, wall_reflections_mod3
from gosset.isometry import LatticeIsometry, ModularMatrix, reflection_matrix
from gosset.lattice import inner, vector
from gosset.presentation import (
    braid_identity_check,
    build_presentation,
    deflation_relator,
    diagram_automorphism_order,
    diagram_from_gram,
    diagram_graph,
    evaluate_word,
    free_hexagons,
    petersen_kneser_check,
    presentation_from_text,
    presentation_to_text,
)


def test_diagram_shapes():
    a3 = diagram_graph("a3")
    assert a3.nodes == ("1", "2", "3")
    assert len(a3.neighbors("3")) == 2 and len(a3.neighbors("1")) == 1

    hexagon = diagram_graph("affine_a5")
    assert all(len(hexagon.neighbors(v)) == 2 for v in hexagon.nodes)
    assert hexagon.girth() == 6

    petersen = diagram_graph("petersen")
    assert len(petersen.nodes) == 10
    assert all(len(petersen.neighbors(v)) == 3 for v in petersen.nodes)
    assert petersen.girth() == 5
    assert len(petersen.edges) == 15


def test_diagram_automorphism_orders():
    assert diagram_automorphism_order(diagram_graph("a3")) == 2
    assert diagram_automorphism_order(diagram_graph("affine_a5")) == 12
    assert diagram_automorphism_order(diagram_graph("petersen")) == 120


@pytest.mark.parametrize("kind", sorted(AUT_ORDERS))
def test_automorphisms_and_girth_match_networkx(kind):
    nx = pytest.importorskip("networkx")
    g = diagram_graph(kind)
    graph = nx.Graph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from(g.edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(graph, graph)
    automorphisms = sum(1 for _ in matcher.isomorphisms_iter())
    assert automorphisms == AUT_ORDERS[kind] == diagram_automorphism_order(g)
    girth = nx.girth(graph)  # inf for a forest, which the diagrams record as 0
    assert (0 if girth == float("inf") else girth) == GIRTHS[kind] == g.girth()


def test_petersen_is_kneser_graph():
    assert petersen_kneser_check()


def test_diagram_from_gram_matches_reference():
    for n, kind in ((2, "a3"), (3, "affine_a5"), (4, "petersen")):
        derived = diagram_from_gram(gosset_walls(n))
        reference = diagram_graph(kind)
        assert derived.nodes == reference.nodes
        assert derived.edges == reference.edges


def test_free_hexagon_counts():
    assert free_hexagons(diagram_graph("a3")) == ()
    assert free_hexagons(diagram_graph("affine_a5")) == (("1", "4", "2", "5", "3", "6"),)
    hexes = free_hexagons(diagram_graph("petersen"))
    assert len(hexes) == 10


def test_petersen_hexagons_are_induced_six_cycles():
    g = diagram_graph("petersen")
    for hexagon in free_hexagons(g):
        assert len(set(hexagon)) == 6
        for i, a in enumerate(hexagon):
            for j in range(i + 1, 6):
                b = hexagon[j]
                expected = (j - i) in (1, 5)
                assert g.adjacent(a, b) == expected


def test_deflation_relator_shape():
    g = diagram_graph("affine_a5")
    word = deflation_relator(("1", "4", "2", "5", "3", "6"), g)
    assert word == ("1", "4", "2", "5", "3", "6", "3", "5", "2", "4")
    with pytest.raises(ValueError):
        deflation_relator(("1", "4", "2", "5", "6", "3"), g)


def test_presentation_relator_profiles():
    profiles = {
        "a3": {2: 3, 4: 1, 6: 2, 10: 0},
        "affine_a5": {2: 6, 4: 9, 6: 6, 10: 1},
        "petersen": {2: 10, 4: 30, 6: 15, 10: 10},
    }
    for kind, profile in profiles.items():
        pres = build_presentation(kind)
        counts = {2: 0, 4: 0, 6: 0, 10: 0}
        for rel in pres.relators:
            counts[len(rel)] += 1
        assert counts == profile
        plain = build_presentation(kind, deflate=False)
        assert len(plain.relators) == len(pres.relators) - profile[10]


def test_relators_hold_in_mod3_image():
    for n, kind in ((2, "a3"), (3, "affine_a5"), (4, "petersen")):
        assignment = wall_reflections_mod3(n)
        identity = ModularMatrix.identity(n + 1, 3)
        for rel in build_presentation(kind).relators:
            assert evaluate_word(rel, assignment) == identity


def test_deflation_word_is_nontrivial_over_the_integers():
    # Mod 3 the deflation word collapses to the identity; over the lattice
    # it is a genuinely infinite-order isometry, which is exactly why the
    # relator changes the group.
    walls = gosset_walls(3)
    mirrors = {l: reflection_matrix(walls.root_of(l)) for l in walls.labels}
    word = next(r for r in build_presentation("affine_a5").relators if len(r) == 10)
    image = evaluate_word(word, mirrors)
    assert image != LatticeIsometry.identity(4)
    square = image @ image
    assert square != LatticeIsometry.identity(4)


def test_evaluate_word_empty_and_unknown():
    walls = gosset_walls(2)
    mirrors = {l: reflection_matrix(walls.root_of(l)) for l in walls.labels}
    assert evaluate_word((), mirrors) == LatticeIsometry.identity(3)
    with pytest.raises(ValueError):
        evaluate_word(("9",), mirrors)


def test_braid_identity_fixed_example():
    alpha = vector(0, 1, 0)
    beta = vector(1, -1, -1)
    assert braid_identity_check(alpha, beta, vector(1, 0, 0))


def test_braid_identity_random():
    rng = random.Random(12)
    for n in (3, 4):
        walls = gosset_walls(n)
        pairs = [
            (a, b)
            for i, a in enumerate(walls.roots)
            for b in walls.roots[i + 1 :]
            if inner(a, b) == -1
        ]
        for alpha, beta in pairs:
            for _ in range(25):
                lam = vector(*[rng.randint(-9, 9) for _ in range(n + 1)])
                assert braid_identity_check(alpha, beta, lam)


def test_braid_identity_rejects_orthogonal_pairs():
    with pytest.raises(ValueError):
        braid_identity_check(vector(0, 1, 0, 0), vector(0, 0, 1, 0), vector(1, 0, 0, 0))


def test_presentation_text_roundtrip():
    for kind in ("a3", "affine_a5", "petersen"):
        pres = build_presentation(kind)
        text = presentation_to_text(pres)
        assert presentation_from_text(text) == pres


def test_presentation_text_is_deterministic():
    one = presentation_to_text(build_presentation("petersen"))
    two = presentation_to_text(build_presentation("petersen"))
    assert one == two

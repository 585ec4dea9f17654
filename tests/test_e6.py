"""The 72-root system, the labeled 10-root configuration, and its group."""

import numpy as np
import pytest

from gosset import e6
from gosset.e6 import (
    E6_EDGES,
    SIMPLE_ROOTS,
    beta_configuration,
    cartan_matrix,
    generation_order,
    hexagon_alternating_sum,
    permutation_closure_order,
    root_system,
    verify_hexagon_sums,
    verify_membership,
    verify_petersen_gram,
    verify_reflection_fixed_points,
    verify_singletons_commute,
)
from gosset.isometry import ClosureBudgetExceeded
from gosset.presentation import diagram_graph, free_hexagons


def test_cartan_matrix_shape():
    c = cartan_matrix()
    assert len(c) == 6
    for i in range(6):
        assert c[i][i] == 2
        for j in range(6):
            assert c[i][j] == c[j][i]
            if i != j:
                expected = -1 if (i + 1, j + 1) in E6_EDGES or (j + 1, i + 1) in E6_EDGES else 0
                assert c[i][j] == expected


def test_root_system_has_72_roots():
    rs = root_system()
    assert len(rs.roots) == 72
    for r in rs.roots:
        assert rs.pairing(r, r) == 2
        assert tuple(-x for x in r) in set(rs.roots)


def test_highest_root_present():
    assert root_system().is_root((1, 2, 3, 2, 1, 2))


def test_roots_are_the_norm_two_vectors_of_the_root_lattice():
    # Every E6 root has simple-root coefficients within [-3, 3].
    grid = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
    norms = np.einsum("vi,ij,vj->v", grid, np.array(cartan_matrix()), grid)
    assert sorted(map(tuple, grid[norms == 2].tolist())) == list(root_system().roots)


def test_configuration_labels_match_diagram():
    betas = beta_configuration()
    assert set(betas) == set(diagram_graph("petersen").nodes)
    assert len(set(betas.values())) == 10


def test_configuration_anchor_values():
    betas = beta_configuration()
    assert betas["1"] == (0, 1, 0, 0, 0, 0)
    assert betas["13"] == (-1, 0, 0, 0, 0, 0)
    assert betas["3"] == (-1, -1, -1, -1, -1, 0)


def test_all_betas_are_roots():
    assert verify_membership()


def test_gram_matrix_is_petersen_incidence():
    assert verify_petersen_gram()
    rs = root_system()
    betas = beta_configuration()
    g = diagram_graph("petersen")
    for a in g.nodes:
        for b in g.nodes:
            p = rs.pairing(betas[a], betas[b])
            if a == b:
                assert p == 2
            else:
                assert p == (1 if g.adjacent(a, b) else 0)


def test_hexagon_sums_vanish():
    assert verify_hexagon_sums()


def test_perturbed_configuration_breaks_hexagon_sums():
    betas = dict(beta_configuration())
    hexagon = free_hexagons(diagram_graph("petersen"))[0]
    label = hexagon[0]
    betas[label] = tuple(-x for x in betas[label])
    assert hexagon_alternating_sum(hexagon, betas) != (0, 0, 0, 0, 0, 0)


def test_reflections_fix_exactly_the_orthogonal_roots():
    assert verify_reflection_fixed_points()
    rs = root_system()
    for beta in beta_configuration().values():
        perm = rs.reflection_permutation(beta)
        fixed = sum(1 for i, j in enumerate(perm) if i == j)
        assert fixed == 30


def test_reflection_permutations_are_involutions():
    rs = root_system()
    for beta in beta_configuration().values():
        perm = rs.reflection_permutation(beta)
        assert sorted(perm) == list(range(72))
        assert all(perm[perm[i]] == i for i in range(72))


def test_singleton_reflections_commute():
    assert verify_singletons_commute()


def test_ten_reflections_generate_order_51840():
    assert generation_order() == 51840


def _beta_permutations():
    rs = root_system()
    perms = {lab: rs.reflection_permutation(b) for lab, b in beta_configuration().items()}
    return perms, [rs.root_index(r) for r in SIMPLE_ROOTS]


def _oracle_order(perms):
    """Reference BFS on tuples with a set of seen permutations."""
    ident = tuple(range(len(perms[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for f in frontier:
            for g in perms:
                p = tuple(f[i] for i in g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def test_commuting_singleton_reflections_generate_16():
    perms, basis = _beta_permutations()
    singles = [perms[lab] for lab in ("1", "2", "3", "4")]
    assert permutation_closure_order(singles, basis) == 16


def test_permutation_closure_matches_tuple_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    perms, basis = _beta_permutations()
    labels = sorted(perms)

    # At most five reflections keep the oracle's groups small (rank <= 5).
    @hypothesis.settings(max_examples=25)
    @hypothesis.given(st.lists(st.sampled_from(labels), min_size=1, max_size=5, unique=True))
    def same_order(subset):
        gens = [perms[lab] for lab in subset]
        assert permutation_closure_order(gens, basis) == _oracle_order(gens)

    same_order()


def test_permutation_closure_budget_fails_before_building_the_layer(layer_builds, monkeypatch):
    monkeypatch.setattr(e6, "DEFAULT_ELEMENT_BUDGET", 1000)
    perms, basis = _beta_permutations()
    with pytest.raises(ClosureBudgetExceeded):
        permutation_closure_order(list(perms.values()), basis)
    assert layer_builds and 1 + sum(layer_builds) <= 1000


def test_permutation_closure_requires_inverse_closed_generators():
    perms, basis = _beta_permutations()
    a, b = perms["1"], perms["12"]
    rotation = tuple(a[i] for i in b)  # order 3: its inverse is not in the set
    with pytest.raises(ValueError, match="inversion"):
        permutation_closure_order([rotation], basis)

"""The keyless labelling certificate: a presented table against permutations on the orbit of a base."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from gosset import enumeration
from gosset.e6 import SIMPLE_ROOTS, beta_permutations, root_system
from gosset.enumeration import (
    BUDGET_EXCEEDED,
    enumerate_diagram_group,
    projective_action,
    verify_labelling,
)
from gosset.geometry import wall_reflections_mod3
from gosset.presentation import diagram_graph

WALL_DIMENSION = {"a3": 2, "affine_a5": 3, "petersen": 4}

# The walk through each type-A diagram, in node labels, and the number m of
# coordinates: node k of the walk is the reflection in e_k - e_{k+1}, indices
# mod m for the hexagon, so the path a3 gives the Coxeter generators of S_4
# and the hexagon of affine_a5 the six adjacent transpositions of S_6 in a
# cycle.
TYPE_A_WALKS = {"a3": (("1", "3", "2"), 4), "affine_a5": (("1", "4", "2", "5", "3", "6"), 6)}


def _type_a_roots(kind):
    """The reflections of the diagram's nodes as permutations of the roots
    e_i - e_j, i != j, of A_{m-1} in Z^m, rows in node order, and a base:
    the roots e_k - e_{k+1}, which only the identity fixes."""
    walk, m = TYPE_A_WALKS[kind]
    g = diagram_graph(kind)
    closed = len(walk) == m
    steps = list(zip(walk, walk[1:] + walk[:1] if closed else walk[1:]))
    assert all(g.adjacent(a, b) for a, b in steps) and len(steps) == len(g.edges)
    roots = list(permutations(range(m), 2))
    number = {r: i for i, r in enumerate(roots)}
    rows = []
    for node in g.nodes:
        k = walk.index(node)
        swap = {k: (k + 1) % m, (k + 1) % m: k}
        rows.append([number[swap.get(i, i), swap.get(j, j)] for i, j in roots])
    return np.array(rows), [number[k, k + 1] for k in range(m - 1)]


def _roots(kind):
    if kind == "petersen":
        return beta_permutations(), [root_system().root_index(r) for r in SIMPLE_ROOTS]
    return _type_a_roots(kind)


def _walls(kind):
    table = enumerate_diagram_group(kind)
    walls = wall_reflections_mod3(WALL_DIMENSION[kind])
    group = projective_action(tuple(walls[g] for g in table.generators))
    return group.columns, group.base


ACTIONS = {"roots": _roots, "walls": _walls}


@pytest.mark.parametrize("action", sorted(ACTIONS))
@pytest.mark.parametrize("kind", sorted(WALL_DIMENSION))
def test_the_lifted_tables_pass(kind, action):
    assert verify_labelling(enumerate_diagram_group(kind), *ACTIONS[action](kind))


def test_a_standardized_table_is_labelled_without_a_walk(monkeypatch):
    def no_walk(rows):
        raise AssertionError("walked a standardized table")

    monkeypatch.setattr(enumeration, "table_walk", no_walk)
    assert verify_labelling(enumerate_diagram_group("petersen"), *_roots("petersen"))


def _petersen_with_rows(rows):
    table = enumerate_diagram_group("petersen")
    return replace(table, table=rows, n_live=len(rows))


def test_any_numbering_from_coset_0_passes():
    # Cosets 1..n-1 numbered backwards: the tree comes from table_walk.
    rows = enumerate_diagram_group("petersen").table
    relabel = np.r_[0, np.arange(len(rows) - 1, 0, -1)]
    moved = np.empty_like(rows)
    moved[relabel] = relabel[rows]
    for action in ACTIONS.values():
        assert verify_labelling(_petersen_with_rows(moved), *action("petersen"))


@pytest.mark.parametrize("action", sorted(ACTIONS))
def test_a_consistent_swap_in_one_column_fails(action):
    # Re-pair two 2-cycles (a a') (b b') of column 0 as (a b) (a' b'), none of
    # the four entries the first to name its coset: the column is still an
    # involution and the tree, so every label, is unchanged; only the
    # entries tell.
    rows = np.array(enumerate_diagram_group("petersen").table)
    k = rows.shape[1]
    _, first = np.unique(rows.ravel(), return_index=True)
    tree = set(first.tolist())
    pairs = [(a, rows[a, 0]) for a in range(len(rows)) if a < rows[a, 0]]
    (a, a2), (b, b2) = [p for p in pairs if not {p[0] * k, p[1] * k} & tree][:2]
    rows[[a, b, a2, b2], 0] = b, a, b2, a2
    assert np.array_equal(rows[rows[:, 0], 0], np.arange(len(rows)))
    _, moved_first = np.unique(rows.ravel(), return_index=True)
    assert np.array_equal(moved_first, first)
    assert not verify_labelling(_petersen_with_rows(rows), *ACTIONS[action]("petersen"))


@pytest.mark.parametrize("action", sorted(ACTIONS))
def test_the_generators_of_1_and_12_swapped_fail(action):
    # For the roots, the betas of "1" and "12" swapped; for the walls, their mirrors.
    columns, base = ACTIONS[action]("petersen")
    labels = diagram_graph("petersen").nodes
    i, j = labels.index("1"), labels.index("12")
    swapped = np.array(columns)
    swapped[[i, j]] = swapped[[j, i]]
    assert not verify_labelling(enumerate_diagram_group("petersen"), swapped, base)


@pytest.mark.parametrize("action", sorted(ACTIONS))
def test_a_one_point_base_fails_on_distinctness(action):
    # The labels of a one-point base are the first places of the full base's
    # labels, which pass every entry, so they are consistent; but 51840
    # cosets share 72 roots or 121 points.
    table = enumerate_diagram_group("petersen")
    columns, base = ACTIONS[action]("petersen")
    assert verify_labelling(table, columns, base)
    assert not verify_labelling(table, columns, base[:1])


def test_a_coset_the_tree_never_reaches_fails():
    # Two disjoint copies of the table: the tree from coset 0 reaches the first.
    rows = enumerate_diagram_group("petersen").table
    union = np.vstack([rows, rows + len(rows)])
    for action in ACTIONS.values():
        assert not verify_labelling(_petersen_with_rows(union), *action("petersen"))


def test_an_open_table_or_a_missing_column_raises():
    table = enumerate_diagram_group("a3")
    columns, base = _walls("a3")
    with pytest.raises(ValueError, match="closed table"):
        verify_labelling(replace(table, status=BUDGET_EXCEEDED), columns, base)
    with pytest.raises(ValueError, match="2 columns for 3 generators"):
        verify_labelling(table, columns[:2], base)

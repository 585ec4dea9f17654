"""The keyless labelling certificate: a presented table against permutations on the orbit of a base."""

import inspect
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from gosset import enumeration
from gosset.e6 import SIMPLE_ROOTS, beta_permutations, root_system
from gosset.enumeration import (
    BUDGET_EXCEEDED,
    CLOSED,
    CosetTable,
    enumerate_diagram_group,
    projective_action,
    verify_action_against_matrices,
    verify_labelling,
    verify_table,
)
from gosset.geometry import wall_reflections_mod3
from gosset.presentation import build_presentation, diagram_graph

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
    # All three certificates read each lifted table as it was made.
    tables = {kind: enumerate_diagram_group(kind) for kind in WALL_DIMENSION}
    actions = {kind: [action(kind) for action in ACTIONS.values()] for kind in tables}

    def no_walk(*args):
        raise AssertionError("walked a standardized table")

    monkeypatch.setattr(enumeration, "table_walk", no_walk)
    monkeypatch.setattr(enumeration, "_renumbered", no_walk)
    for kind, table in tables.items():
        assert verify_table(table, build_presentation(kind))
        walls = wall_reflections_mod3(WALL_DIMENSION[kind])
        assert verify_action_against_matrices(table, walls).consistent
        for columns, base in actions[kind]:
            assert verify_labelling(table, columns, base)


def _petersen_with_rows(rows):
    table = enumerate_diagram_group("petersen")
    return replace(table, table=rows, n_live=len(rows))


def test_any_other_numbering_from_coset_0_fails():
    # Cosets 1..n-1 numbered backwards: the same action, not standardized,
    # fails all three certificates, as none of them walks a table.
    rows = enumerate_diagram_group("petersen").table
    relabel = np.r_[0, np.arange(len(rows) - 1, 0, -1)]
    moved = np.empty_like(rows)
    moved[relabel] = relabel[rows]
    table = _petersen_with_rows(moved)
    for action in ACTIONS.values():
        assert not verify_labelling(table, *action("petersen"))
    assert not verify_table(table, build_presentation("petersen"))
    assert not verify_action_against_matrices(table, wall_reflections_mod3(4)).consistent


def test_a_coset_first_named_in_its_own_row_fails(monkeypatch):
    # Two cosets, each fixed by every generator: every relator holds, every
    # column is an involution and the entries rise in order, but coset 1 is
    # first named in its own row, so no tree from coset 0 reaches it.
    a3 = build_presentation("a3")
    table = CosetTable(a3.generators, np.array([[0, 0, 0], [1, 1, 1]]), CLOSED, 2, 2)
    assert not verify_table(table, a3)
    assert not verify_labelling(table, *_walls("a3"))
    assert not verify_action_against_matrices(table, wall_reflections_mod3(2)).consistent
    # Without the row-before clause the replay certificate passes it.  The
    # labelling is not run on that mutant: its tree's layers never advance.
    source = inspect.getsource(enumeration._standard_rows)
    clause = " or (firsts // k >= np.arange(1, n)).any()"
    assert source.count(clause) == 1
    namespace = dict(vars(enumeration))
    exec(source.replace(clause, ""), namespace)
    monkeypatch.setattr(enumeration, "_standard_rows", namespace["_standard_rows"])
    assert verify_table(table, a3)


@pytest.mark.parametrize("action", sorted(ACTIONS))
def test_a_consistent_swap_in_one_column_fails(action, repaired_petersen_rows):
    rows = repaired_petersen_rows
    original = enumerate_diagram_group("petersen").table
    assert np.array_equal(rows[rows[:, 0], 0], np.arange(len(rows)))
    _, first = np.unique(original.ravel(), return_index=True)
    _, moved_first = np.unique(rows.ravel(), return_index=True)
    assert np.array_equal(moved_first, first) and not np.array_equal(rows, original)
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


@pytest.mark.parametrize("point", [5, 7, -1])
def test_a_base_point_outside_the_columns_raises(point):
    # Five points: a base point past them would read another column's entries.
    table = enumerate_diagram_group("a3")
    with pytest.raises(ValueError, match=rf"outside range\(5\): \[{point}\]"):
        verify_labelling(table, np.array([np.arange(5)] * 3), [point])

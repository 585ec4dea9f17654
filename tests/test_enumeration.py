"""Coset enumeration of the odd presentations and its certificates."""

import hashlib

import pytest

from gosset.enumeration import (
    BUDGET_EXCEEDED,
    CLOSED,
    CosetTable,
    enumerate_diagram_group,
    todd_coxeter,
    verify_action_against_matrices,
    verify_table,
)
from gosset.geometry import wall_reflections_mod3
from gosset.isometry import ModularMatrix
from gosset.presentation import Presentation, build_presentation

EXPECTED_ORDERS = {"a3": 24, "affine_a5": 720, "petersen": 51840}

# sha256 of enumerate_diagram_group("petersen").dump(), the standardized table.
PETERSEN_DUMP_SHA256 = "59fa6995eb6ff9cafb582416db6c20713b4a701d386f34f2c09836d9c6c6b113"

A3 = build_presentation("a3")
# Collapsing presentations: a3 plus one extra relator, which forces
# coincidences.  Each case is (relators, subgroup words, live, defined).
COINCIDENCE_CASES = {
    "a3_over_1": (A3.relators, [("1",)], 12, 13),
    "a3_plus_13": (A3.relators + (("1", "3"),), [], 2, 4),
    "a3_plus_123": (A3.relators + (("1", "2", "3"),), [], 1, 4),
}


def test_a3_presentation_closes_at_24():
    table = enumerate_diagram_group("a3")
    assert table.status == CLOSED
    assert table.order == 24
    assert table.n_live == 24
    assert table.cosets_defined == 24


def test_affine_with_deflation_closes_at_720():
    table = enumerate_diagram_group("affine_a5")
    assert table.order == 720
    assert table.cosets_defined == 720


def test_petersen_with_deflation_closes_at_51840():
    table = enumerate_diagram_group("petersen")
    assert table.order == 51840
    assert table.cosets_defined == 51840
    dump = table.dump().encode()
    assert hashlib.sha256(dump).hexdigest() == PETERSEN_DUMP_SHA256


def test_tables_pass_replay_certificate():
    for kind in ("a3", "affine_a5", "petersen"):
        table = enumerate_diagram_group(kind)
        assert verify_table(table, build_presentation(kind))


def test_replay_certificate_rejects_intransitive_table():
    # Two disjoint copies of the a3 table satisfy every relator and have
    # involutive columns, but coset 0 does not reach the second copy.
    rows = enumerate_diagram_group("a3").table
    shifted = tuple(tuple(v + 24 for v in row) for row in rows)
    union = CosetTable(A3.generators, rows + shifted, CLOSED, 48, 48)
    assert not verify_table(union, A3)


def test_action_columns_are_involutions():
    table = enumerate_diagram_group("a3")
    for perm in zip(*table.table):
        assert sorted(perm) == list(range(24))
        assert all(perm[perm[i]] == i for i in range(24))


def test_standardized_table_dump_is_stable():
    table = enumerate_diagram_group("a3")
    dump = table.dump()
    lines = dump.strip().splitlines()
    assert len(lines) == 24
    assert lines[0].startswith("1:")
    assert enumerate_diagram_group("a3").dump() == dump


def test_subgroup_enumeration_counts_cosets():
    pres = build_presentation("a3")
    table = todd_coxeter(pres, subgroup_words=[("1",)])
    assert table.status == CLOSED
    assert table.n_live == 12
    assert table.cosets_defined == 13


@pytest.mark.parametrize("case", sorted(COINCIDENCE_CASES))
def test_coincidences_collapse_the_table(case):
    relators, subgroup, live, defined = COINCIDENCE_CASES[case]
    table = todd_coxeter(Presentation(A3.generators, relators), subgroup)
    assert table.status == CLOSED
    assert (table.n_live, table.cosets_defined) == (live, defined)
    assert verify_table(table, Presentation(A3.generators, relators))


def test_partial_table_keeps_live_cosets_only():
    relators = COINCIDENCE_CASES["a3_plus_13"][0]
    table = todd_coxeter(Presentation(A3.generators, relators), [("1",)], budget=2)
    assert table.status == BUDGET_EXCEEDED
    assert (table.n_live, table.cosets_defined) == (1, 2)
    assert table.table == ((0, None, 0),)


def _sympy_index(pres, subgroup):
    from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_c
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(",".join(f"t{g}" for g in pres.generators))
    letter = dict(zip(pres.generators, gens))

    def word(w):
        out = free.identity
        for a in w:
            out = out * letter[a]
        return out

    group = FpGroup(free, [word(r) for r in pres.relators])
    cosets = coset_enumeration_c(group, [word(w) for w in subgroup])
    cosets.compress()
    return len(cosets.table)


ORACLE_CASES = {
    "a3": (A3.relators, []),
    "a3_over_13": (A3.relators, [("1",), ("3",)]),
    **{case: spec[:2] for case, spec in COINCIDENCE_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_index_matches_sympy_coset_enumeration(case):
    pytest.importorskip("sympy")
    relators, subgroup = ORACLE_CASES[case]
    pres = Presentation(A3.generators, relators)
    assert todd_coxeter(pres, subgroup).n_live == _sympy_index(pres, subgroup)


def test_relator_order_does_not_matter():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(st.sampled_from(["a3", "affine_a5"]), st.data())
    def relabelled_and_shuffled(kind, data):
        pres = build_presentation(kind)
        relabel = data.draw(st.permutations(pres.generators))
        labels = dict(zip(pres.generators, relabel))
        rels = data.draw(st.permutations(pres.relators))
        relabelled = tuple(tuple(labels[a] for a in r) for r in rels)
        table = todd_coxeter(Presentation(pres.generators, relabelled))
        assert table.order == EXPECTED_ORDERS[kind]

    relabelled_and_shuffled()


def test_without_deflation_the_affine_group_is_infinite():
    pres = build_presentation("affine_a5", deflate=False)
    table = todd_coxeter(pres, budget=100_000)
    assert table.status == BUDGET_EXCEEDED
    assert table.cosets_defined == table.n_live == 100_000
    with pytest.raises(ValueError):
        table.order


def test_without_deflation_the_petersen_group_exceeds_budget():
    pres = build_presentation("petersen", deflate=False)
    table = todd_coxeter(pres, budget=100_000)
    assert table.status == BUDGET_EXCEEDED
    assert table.cosets_defined == table.n_live == 100_000


def test_petersen_minus_one_deflation_still_closes():
    # Computed outcome, frozen: the other nine deflations already imply
    # the tenth, so dropping one leaves the group at 51840.
    pres = build_presentation("petersen")
    deflations = [r for r in pres.relators if len(r) == 10]
    rels = tuple(r for r in pres.relators if r != deflations[-1])
    table = todd_coxeter(Presentation(pres.generators, rels))
    assert table.status == CLOSED
    assert table.order == 51840


def test_matrix_cross_certificate():
    for n, kind in ((2, "a3"), (3, "affine_a5"), (4, "petersen")):
        table = enumerate_diagram_group(kind)
        cert = verify_action_against_matrices(table, wall_reflections_mod3(n))
        assert cert.consistent
        assert cert.coset_count == EXPECTED_ORDERS[kind]
        assert cert.matrix_group_order == EXPECTED_ORDERS[kind]
        assert cert.edges_checked == table.n_live * len(table.generators)


def test_cross_certificate_is_projective():
    # Negated matrices give the same certificate: +-M share one key.
    table = enumerate_diagram_group("affine_a5")
    walls = wall_reflections_mod3(3)
    negated = {g: m.neg() for g, m in walls.items()}
    cert = verify_action_against_matrices(table, negated)
    assert cert == verify_action_against_matrices(table, walls)
    assert cert.consistent
    assert cert.matrix_group_order == 720


def test_cross_certificate_detects_wrong_assignment():
    table = enumerate_diagram_group("a3")
    honest = wall_reflections_mod3(2)
    broken = dict(honest)
    broken["1"] = ModularMatrix.identity(3, 3)
    cert = verify_action_against_matrices(table, broken)
    assert not cert.consistent


def test_cross_certificate_rejects_a_non_injective_map():
    # Every generator to I: each edge holds, but all 24 cosets share one image.
    table = enumerate_diagram_group("a3")
    trivial = {g: ModularMatrix.identity(3, 3) for g in table.generators}
    cert = verify_action_against_matrices(table, trivial)
    assert not cert.consistent
    assert cert.matrix_group_order == 1
    assert cert.edges_checked == 72


def test_cross_certificate_rejects_swapped_generators():
    table = enumerate_diagram_group("petersen")
    swapped = dict(wall_reflections_mod3(4))
    a, b = table.generators[:2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert not verify_action_against_matrices(table, swapped).consistent


@pytest.mark.parametrize("entry", [6, 24, -1])
def test_cross_certificate_rejects_a_corrupted_table(entry):
    # Coset 5 is sent by generator 1 to coset 6 or outside the table.
    rows = [list(row) for row in enumerate_diagram_group("a3").table]
    rows[5][0] = entry
    assert rows != [list(row) for row in enumerate_diagram_group("a3").table]
    table = CosetTable(A3.generators, tuple(map(tuple, rows)), CLOSED, 24, 24)
    assert not verify_action_against_matrices(table, wall_reflections_mod3(2)).consistent


def test_cross_certificate_walks_any_numbering_from_coset_0():
    # Relabel the cosets of a3 by a fixed permutation that keeps coset 0.
    rows = enumerate_diagram_group("a3").table
    relabel = [0] + list(range(23, 0, -1))
    moved = [None] * 24
    for old, row in enumerate(rows):
        moved[relabel[old]] = tuple(relabel[b] for b in row)
    table = CosetTable(A3.generators, tuple(moved), CLOSED, 24, 24)
    cert = verify_action_against_matrices(table, wall_reflections_mod3(2))
    assert cert.consistent and cert.matrix_group_order == 24

    # Two disjoint copies: the walk from coset 0 never reaches the second.
    shifted = tuple(tuple(v + 24 for v in row) for row in rows)
    union = CosetTable(A3.generators, rows + shifted, CLOSED, 48, 48)
    assert not verify_action_against_matrices(union, wall_reflections_mod3(2)).consistent

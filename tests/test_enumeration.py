"""Coset enumeration of the odd presentations and its certificates."""

import hashlib
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gosset import enumeration, isometry
from gosset.enumeration import (
    BUDGET_EXCEEDED,
    CLOSED,
    LIFT_PINS,
    CosetTable,
    _Enumerator,
    _live_table,
    _renumbered,
    _standard_rows,
    enumerate_diagram_group,
    todd_coxeter,
    verify_action_against_matrices,
    verify_table,
)
from gosset.geometry import wall_reflections_mod3
from gosset.e6 import SIMPLE_ROOTS, beta_permutations, root_system
from gosset.isometry import Matrix, base_orbit_table, point_action, table_walk
from gosset.presentation import Presentation, build_presentation
from gosset.suites import enumeration as enumeration_rows

EXPECTED_ORDERS = {"a3": 24, "affine_a5": 720, "petersen": 51840}

# sha256 of _dump(enumerate_diagram_group("petersen")), the standardized table.
PETERSEN_DUMP_SHA256 = "59fa6995eb6ff9cafb582416db6c20713b4a701d386f34f2c09836d9c6c6b113"

# sha256 of the negative controls' partial tables at the 100,000-coset budget.
CONTROL_TABLE_SHA256 = {
    "affine_a5": "4f429626b1122d79f9ccbcbc37f8c2726d2b524e4d82a1d8c2cc5f5b95f10632",
    "petersen": "50bd8e8f31220d8295fcb2991e7fa9994b7f9f3c0314e56ce9755c3bb1ccedd3",
}


def _with_rows(pres, subgroup, budget):
    """todd_coxeter(pres, subgroup, budget) with the rows of an open run
    too, which todd_coxeter drops, read by _open_rows."""
    enum = _Enumerator(pres, budget)
    status = enum.run([enum.indexed(w, "subgroup word") for w in subgroup])
    rows = _live_table(enum) if status == CLOSED else _open_rows(enum)
    return CosetTable(pres.generators, rows, status, enum.live, enum.defined)


def _open_rows(enum):
    """The live rows of an open run in order of definition, each entry
    renumbered to its row, -1 for a gap.  Coincidences redirect every edge,
    so an entry naming a dead or undefined coset raises AssertionError."""
    rows = np.empty((enum.defined, enum.ngens), dtype=np.int32)
    for x, col in enumerate(enum.cols):
        rows[:, x] = [-1 if b is None else b for b in col[: enum.defined]]
    if (rows >= enum.defined).any():
        raise AssertionError("a live row names a dead coset")
    live = np.flatnonzero([a is None for a in enum.parent[: enum.defined]])
    table = _renumbered(rows, live)
    if ((table < 0) != (rows[live] < 0)).any():
        raise AssertionError("a live row names a dead coset")
    return table


def _table_sha256(table):
    return hashlib.sha256(np.ascontiguousarray(table.table, dtype=np.int32).tobytes()).hexdigest()


def _dump(table):
    """Line-oriented dump, cosets and images numbered from 1."""
    lines = []
    for i, row in enumerate(table.table.tolist()):
        imgs = " ".join("-" if v < 0 else str(v + 1) for v in row)
        lines.append(f"{i + 1}: {imgs}")
    return "\n".join(lines) + "\n"


A3 = build_presentation("a3")
# Collapsing cases: a3 plus one extra relator, or subgroup words whose scans
# close a cycle in the backward trace on a second coset; both force
# coincidences.  Each case is (relators, subgroup words, live, defined).
COINCIDENCE_CASES = {
    "a3_over_1": (A3.relators, [("1",)], 12, 13),
    "a3_over_1221_2": (A3.relators, [("1", "2", "2", "1"), ("2",)], 12, 14),
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
    dump = _dump(table).encode()
    assert hashlib.sha256(dump).hexdigest() == PETERSEN_DUMP_SHA256


@pytest.mark.parametrize("kind", sorted(EXPECTED_ORDERS))
def test_the_lift_equals_the_plain_enumeration(kind):
    # The Felsch run over the trivial subgroup, which enumerate_diagram_group
    # no longer makes, closes without a coincidence on the lifted table.
    order = EXPECTED_ORDERS[kind]
    plain = todd_coxeter(build_presentation(kind))
    assert (plain.status, plain.n_live, plain.cosets_defined) == (CLOSED, order, order)
    assert np.array_equal(plain.table, enumerate_diagram_group(kind).table)
    assert _standard_rows(enumerate_diagram_group(kind)) is not None
    if kind == "petersen":
        assert hashlib.sha256(_dump(plain).encode()).hexdigest() == PETERSEN_DUMP_SHA256


@pytest.fixture
def petersen_order_report(monkeypatch, row_report):
    """The report of coset_order_petersen, run on an uncached lift."""
    monkeypatch.setattr(
        enumeration_rows, "enumerate_diagram_group", enumerate_diagram_group.__wrapped__
    )
    return lambda: row_report("coset_order_{kind}", 4)


def test_the_lift_fails_without_a_relator_it_needs(monkeypatch, petersen_order_report):
    # Without (3 4)^2 the relators among H's generators present
    # S_4 x (Z/2 * Z/2), which is infinite: the bound on |H| never closes.
    pres = build_presentation("petersen")
    dropped = Presentation(pres.generators, tuple(r for r in pres.relators if r != ("3", "4") * 2))
    assert len(dropped.relators) == len(pres.relators) - 1
    monkeypatch.setattr(enumeration, "build_presentation", lambda kind: dropped)
    report = petersen_order_report()
    assert report.status == "error"
    assert "the relators among H's generators: enumeration budget_exceeded" in report.details


def _with_a_wrong_entry(table):
    rows = np.array(table.table)
    rows[7, 5] = 100
    return replace(table, table=rows)


def _repaired(table, x):
    """The table with column x's first two transpositions (a b)(c d) paired
    as (a c)(b d): still an involution, but a different one."""
    rows = np.array(table.table)
    col = rows[:, x]  # a view: editing it edits rows
    moved = np.flatnonzero(col != np.arange(len(col)))
    a = moved[0]
    c = next(p for p in moved if p not in (a, col[a]))
    b, d = col[a], col[c]
    col[[a, b, c, d]] = c, d, a, b
    return replace(table, table=rows)


def test_a_wrong_entry_in_the_subgroup_table_fails_the_lift(monkeypatch, petersen_order_report):
    subgroup, base = LIFT_PINS["petersen"]
    cosets = todd_coxeter(build_presentation("petersen"), [(g,) for g in subgroup])
    assert cosets.order == 540
    # Alone, a column that is no permutation fails the permutation guard, and
    # a wrong involution runs past the bound at once.
    with pytest.raises(ValueError, match="permutation"):
        base_orbit_table(_with_a_wrong_entry(cosets).table.T, base, 51840)
    with pytest.raises(RuntimeError, match="passes the upper bound 51840"):
        base_orbit_table(_repaired(cosets, 5).table.T, base, 51840)
    # In the lift, the replay of the relators rejects the table first.
    real = enumeration.todd_coxeter

    def corrupted(pres, subgroup_words=()):
        table = real(pres, subgroup_words)
        return _with_a_wrong_entry(table) if subgroup_words else table

    monkeypatch.setattr(enumeration, "todd_coxeter", corrupted)
    report = petersen_order_report()
    assert report.status == "error"
    assert "the coset table of H breaks a relator" in report.details


def test_a_short_base_falls_below_the_bound(monkeypatch, petersen_order_report):
    subgroup, _ = LIFT_PINS["petersen"]
    monkeypatch.setitem(LIFT_PINS, "petersen", (subgroup, (0,)))
    report = petersen_order_report()
    assert report.status == "error"
    assert "the orbit of (0,) has 540 points, the bound is 51840" in report.details


def test_lift_keys_reduced_mod_7_fail_the_lift(monkeypatch, petersen_order_report):
    # The base-n keys of _base_orbit, reduced mod a small prime, are no longer
    # injective: the walk sees at most 7 of them, and the lift falls short.
    real = isometry._tuple_orbit

    def mod_7(columns, base, keys, base_key):
        return real(columns, base, lambda steps, f: keys(steps, f) % 7, base_key % 7)

    monkeypatch.setattr(isometry, "_tuple_orbit", mod_7)
    with pytest.raises(RuntimeError, match="has 7 points, the bound is 51840"):
        enumerate_diagram_group.__wrapped__("petersen")
    report = petersen_order_report()
    assert report.status == "error"
    assert "the bound is 51840" in report.details


def test_a_pick_that_never_grows_its_seen_set_fails_the_lift_fast(
    monkeypatch, traced_peak_mb, petersen_order_report
):
    # A pick rule made afresh for every layer has seen the base alone, so
    # every layer is new again and the walk never closes: the lift's bound,
    # not the element budget, stops it, in a few layers' memory.
    real = isometry._fresh_keys

    def forgetful(candidate_keys, identity_keys, named):
        return lambda frontier: real(candidate_keys, identity_keys, named)(frontier)

    monkeypatch.setattr(isometry, "_fresh_keys", forgetful)

    def lift():
        with pytest.raises(RuntimeError, match="passes the upper bound 51840"):
            enumerate_diagram_group.__wrapped__("petersen")

    _, peak = traced_peak_mb(lift)
    assert peak <= 16
    assert petersen_order_report().status == "error"


@pytest.mark.parametrize("kind", sorted(EXPECTED_ORDERS))
def test_no_proper_prefix_of_the_pinned_base_reaches_the_order(kind):
    # B is no longer than it must be: every proper prefix has a smaller orbit.
    subgroup, base = LIFT_PINS[kind]
    cosets = todd_coxeter(build_presentation(kind), [(g,) for g in subgroup])
    order = EXPECTED_ORDERS[kind]
    assert len(base_orbit_table(cosets.table.T, base, order)) == order
    for k in range(1, len(base)):
        assert len(base_orbit_table(cosets.table.T, base[:k], order)) < order


def test_the_lift_columns_pass_the_permutation_guard():
    # The columns of a coset table are permutations.  The product of the
    # columns of 2 and 3, which has order 3 on the cosets, walks the same
    # orbit alone as with its inverse; a column with a repeated entry is refused.
    subgroup, base = LIFT_PINS["a3"]
    columns = todd_coxeter(build_presentation("a3"), [(g,) for g in subgroup]).table.T
    assert len(base_orbit_table(columns, base, 24)) == 24
    rotation, inverse = columns[1][columns[2]], columns[2][columns[1]]
    alone = base_orbit_table(rotation[None], base)
    assert len(alone) == len(base_orbit_table(np.array([rotation, inverse]), base)) == 3
    broken = np.array(columns[:1])
    broken[0, 0] = broken[0, 1]
    with pytest.raises(ValueError, match="permutation"):
        base_orbit_table(broken, base)


def test_tables_pass_replay_certificate():
    for kind in ("a3", "affine_a5", "petersen"):
        table = enumerate_diagram_group(kind)
        assert verify_table(table, build_presentation(kind))


def test_replay_certificate_rejects_intransitive_table():
    # Two disjoint copies of the a3 table satisfy every relator and have
    # involutive columns, but coset 0 does not reach the second copy.
    rows = enumerate_diagram_group("a3").table.tolist()
    union = rows + [[v + 24 for v in row] for row in rows]
    assert len(union) == 48
    assert not verify_table(CosetTable(A3.generators, union, CLOSED, 48, 48), A3)


def test_replay_certificate_rejects_any_swapped_pair_in_one_column():
    # Swapping the entries of a and of b = a·x in column x keeps the column an
    # involution, as x then fixes both, so only the relators can reject it; a
    # swap with any other coset also breaks the involution.
    rows = enumerate_diagram_group("a3").table
    for x in range(3):
        for a in range(24):
            for b in {int(rows[a, x]), (a + 5) % 24} - {a}:
                swapped = rows.copy()
                swapped[[a, b], x] = swapped[[b, a], x]
                table = CosetTable(A3.generators, swapped, CLOSED, 24, 24)
                assert not verify_table(table, A3), (x, a, b)


def test_replay_certificate_replays_each_power_in_full():
    # The dihedral group of order 12: ab has order 6, so (ab)^6 holds at every
    # coset and (ab)^3, whose root is the same word ab, does not.
    relators = (("a", "a"), ("b", "b"))
    table = todd_coxeter(Presentation(("a", "b"), relators + (("a", "b") * 6,)))
    assert table.order == 12
    for power, holds in ((6, True), (12, True), (3, False), (2, False), (1, False)):
        pres = Presentation(("a", "b"), relators + (("a", "b") * power,))
        assert verify_table(table, pres) == holds, power


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 1, 2), (1,)),
        ((0, 1, None), (1, 0, 1)),
        ((0, 1, 2), (1, 0, 1)),
        ((0, 1, -1), (1, 0, 1)),
        ((0, 1), (1, 0)),
        ((0, 1, 1),),
        ((0.0, 1.0, 0.0), (1.0, 0.0, 1.0)),
    ],
    ids=["ragged", "gap", "past_the_end", "negative", "narrow", "short", "float"],
)
def test_certificates_reject_malformed_tables(rows):
    table = CosetTable(A3.generators, rows, CLOSED, 2, 2)
    assert not verify_table(table, A3)
    cert = verify_action_against_matrices(table, wall_reflections_mod3(2))
    assert (cert.consistent, cert.matrix_group_order, cert.edges_checked) == (False, 0, 0)


def test_certificates_read_an_enumerated_table_without_a_copy():
    table = enumerate_diagram_group("a3")
    assert _standard_rows(table)[0] is table.table


def test_unknown_letters_raise_value_errors():
    with pytest.raises(ValueError, match="subgroup word uses unknown generator '9'"):
        todd_coxeter(A3, [("9",)])
    with pytest.raises(ValueError, match="relator uses unknown generator '9'"):
        todd_coxeter(Presentation(A3.generators, A3.relators + (("1", "9"),)))
    # The replay certificate names the letter as the enumerator does, for a
    # closed table and a malformed one alike, a square (9, 9) included.
    table = enumerate_diagram_group("a3")
    malformed = CosetTable(A3.generators, np.zeros((2, 3), dtype=np.int32), CLOSED, 2, 2)
    for extra in (("1", "9"), ("9", "9")):
        pres = Presentation(A3.generators, A3.relators + (extra,))
        for certified in (table, malformed):
            with pytest.raises(ValueError, match="relator uses unknown generator '9'"):
                verify_table(certified, pres)


def test_the_infinite_cyclic_group_is_not_enumerated_as_an_involution():
    # With no relator (a, a), the presentation is Z, not Z/2: the symmetric
    # columns would close it at order 2.
    with pytest.raises(ValueError, match="no relator \\(x, x\\): a$"):
        todd_coxeter(Presentation(("a",), ()))
    table = CosetTable(("a",), np.array([[1], [0]], dtype=np.int32), CLOSED, 2, 2)
    with pytest.raises(ValueError, match="no relator \\(x, x\\): a$"):
        verify_table(table, Presentation(("a",), ()))


def test_a_presentation_missing_its_squares_names_both_generators():
    # (ab)^3 alone presents Z, with a and b of infinite order; with the
    # squares it is the symmetric group S3 of order 6.
    braid = Presentation(("a", "b"), (("a", "b") * 3,))
    with pytest.raises(ValueError, match="no relator \\(x, x\\): a, b$"):
        todd_coxeter(braid)
    s3 = todd_coxeter(Presentation(braid.generators, (("a", "a"), ("b", "b"), *braid.relators)))
    assert s3.order == 6
    with pytest.raises(ValueError, match="a, b$"):
        verify_table(s3, braid)


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_one_raises(budget):
    # Coset 0 is defined before any budget check, so no smaller cap holds.
    with pytest.raises(ValueError, match=f"at least 1, not {budget}"):
        todd_coxeter(A3, budget=budget)
    assert todd_coxeter(A3, budget=1).cosets_defined == 1


def test_action_columns_are_involutions():
    table = enumerate_diagram_group("a3")
    for perm in table.table.T.tolist():
        assert sorted(perm) == list(range(24))
        assert all(perm[perm[i]] == i for i in range(24))


def test_standardized_table_dump_is_stable():
    table = enumerate_diagram_group("a3")
    dump = _dump(table)
    lines = dump.strip().splitlines()
    assert len(lines) == 24
    assert lines[0].startswith("1:")
    assert _dump(enumerate_diagram_group("a3")) == dump


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
    table = _with_rows(Presentation(A3.generators, relators), [("1",)], budget=2)
    assert table.status == BUDGET_EXCEEDED
    assert (table.n_live, table.cosets_defined) == (1, 2)
    assert table.table.tolist() == [[0, -1, 0]]


def test_partial_table_entries_name_its_own_rows():
    # Coset 1 dies in a coincidence, so live cosets 0 and 2 are rows 0 and 1.
    pres = Presentation(A3.generators, A3.relators + (("1",),))
    table = _with_rows(pres, (), budget=3)
    assert (table.status, table.n_live, table.cosets_defined) == (BUDGET_EXCEEDED, 2, 3)
    assert _dump(table) == "1: 1 2 -\n2: 2 1 -\n"


@pytest.mark.parametrize(
    "relators, budget, status, edge",
    [
        # Coset 1 dies; live coset 0 had a gap at generator 3.
        (A3.relators + (("1",),), 3, BUDGET_EXCEEDED, (2, 0, 1)),
        # Cosets 2 and 3 die; the walk from coset 0 would reach them.
        (COINCIDENCE_CASES["a3_plus_13"][0], 1000, CLOSED, (0, 1, 2)),
    ],
    ids=["partial", "closed"],
)
def test_a_live_row_naming_a_dead_coset_raises(relators, budget, status, edge):
    # Renumbering maps a dead coset to -1; it must not pass for a gap.
    # A closed run is read by _live_table, an open one by the tests' _open_rows.
    enum = _Enumerator(Presentation(A3.generators, relators), budget)
    assert enum.run([]) == status
    read = _live_table if status == CLOSED else _open_rows
    x, alpha, dead = edge
    assert enum.parent[alpha] is None and enum.parent[dead] is not None
    read(enum)
    enum.cols[x][alpha] = dead
    with pytest.raises(AssertionError):
        read(enum)
    # Past the defined cosets the grown columns hold gaps, but no entry can
    # name a coset there: the first such coset and any later one fail the
    # same check, before the walk reads the table.
    for past in (enum.defined, enum.defined + 5):
        enum.cols[x][alpha] = past
        with pytest.raises(AssertionError, match="dead coset"):
            read(enum)


def test_enumerated_tables_are_read_only():
    table = enumerate_diagram_group("a3")
    with pytest.raises(ValueError, match="read-only"):
        table.table[0, 0] = 5
    assert enumerate_diagram_group("a3").table[0, 0] == 1
    group = enumeration.projective_action(tuple(wall_reflections_mod3(2).values()))
    with pytest.raises(ValueError, match="read-only"):
        group.columns[0, 0] = 5
    assert np.array_equal(base_orbit_table(group.columns, group.base), table.table)


def _sympy_table(pres, subgroup):
    """sympy's standardized coset table, generator columns only, by HLT.

    sympy keeps a column for x and one for x^-1; the relators (x, x) make
    them equal, so its standardization matches the breadth-first one here.
    Its Felsch enumerator, coset_enumeration_c, is no oracle: it gives a3
    plus the relator (1,) two cosets, in a table that breaks (2,3)^3.
    """
    from sympy.combinatorics import fp_groups
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(",".join(f"t{g}" for g in pres.generators))
    letter = dict(zip(pres.generators, gens))

    def word(w):
        out = free.identity
        for a in w:
            out = out * letter[a]
        return out

    group = fp_groups.FpGroup(free, [word(r) for r in pres.relators])
    cosets = fp_groups.coset_enumeration_r(group, [word(w) for w in subgroup])
    cosets.compress()
    cosets.standardize()
    return [row[::2] for row in cosets.table]


ORACLE_CASES = {
    "a3": (A3.relators, []),
    "a3_over_13": (A3.relators, [("1",), ("3",)]),
    # With 1 = e, (1 3)^3 = e gives 3 = e, then (2 3)^3 = e gives 2 = e: index 1.
    "a3_plus_1": (A3.relators + (("1",),), []),
    **{case: spec[:2] for case, spec in COINCIDENCE_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_index_matches_sympy_coset_enumeration(case):
    pytest.importorskip("sympy")
    relators, subgroup = ORACLE_CASES[case]
    pres = Presentation(A3.generators, relators)
    table = todd_coxeter(pres, subgroup)
    assert table.table.tolist() == _sympy_table(pres, subgroup)
    if case == "a3_plus_1":
        assert table.n_live == 1


def _fixes_coset_0(table, generators, word):
    column = {g: k for k, g in enumerate(generators)}
    coset = 0
    for a in word:
        coset = table.table[coset][column[a]]
    return coset == 0


def test_random_extensions_match_sympy_or_stay_symmetric():
    # Extra relators collapse the group, so scans meet coincidences; small
    # budgets stop some runs with deductions still pending.  sympy's Felsch
    # enumerator gives a3 plus the relator (1,) two cosets, in a table that
    # breaks the relator (2,3)^3, so the oracle is its HLT enumerator.  It
    # takes 3-5 s on an affine_a5 extension even when the quotient is
    # trivial, so closed affine_a5 tables are held to the replay certificate
    # and the subgroup words instead.
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40)
    @hypothesis.given(st.sampled_from(["a3", "affine_a5"]), st.data())
    def extended(kind, data):
        pres = build_presentation(kind)
        words = st.lists(st.sampled_from(pres.generators), min_size=1, max_size=6).map(tuple)
        extra = data.draw(st.lists(words, min_size=1, max_size=2))
        subgroup = data.draw(st.lists(words, max_size=2))
        budget = data.draw(st.integers(2, 40))
        pres = Presentation(pres.generators, pres.relators + tuple(extra))
        table = _with_rows(pres, subgroup, budget)
        assert table.n_live <= table.cosets_defined <= budget
        if table.status == CLOSED:
            assert _standard_rows(table) is not None
        if table.status == CLOSED and kind == "a3":
            assert table.table.tolist() == _sympy_table(pres, subgroup)
            return
        if table.status == CLOSED:
            assert verify_table(table, pres)
            assert all(_fixes_coset_0(table, pres.generators, w) for w in subgroup)
            return
        assert table.status == BUDGET_EXCEEDED
        # Live rows name live cosets only, by row (_open_rows raises on an
        # entry that names a dead coset), each edge stored both ways, and the
        # partial table reaches them all from coset 0.
        rows = table.table
        assert rows.shape == (table.n_live, len(pres.generators))
        assert ((rows >= -1) & (rows < table.n_live)).all()
        for a, row in enumerate(rows.tolist()):
            for x, b in enumerate(row):
                assert b < 0 or rows[b, x] == a
        assert len(table_walk(rows)) == table.n_live

    extended()


def test_scans_never_meet_an_edge_a_coincidence_cleared(monkeypatch):
    # A coincidence clears the edges into each dead coset and pushes them as
    # deductions; it restores every one before any scan reads it, so the
    # scans, which pop them and re-read beta after a merge, find beta known.
    A5 = build_presentation("affine_a5")
    pres = Presentation(A5.generators, A5.relators + (("1", "4"),))
    pushed, rescans = [], []
    coincidence, rescan = _Enumerator._coincidence, _Enumerator._rescan

    def checked_coincidence(enum, a, b):
        start = len(enum.deductions)
        coincidence(enum, a, b)
        pushed.append(len(enum.deductions) - start)
        assert all(enum.cols[x][enum._find(c)] is not None for c, x in enum.deductions)

    def checked_rescan(enum, f, b, a, x):
        a, beta = rescan(enum, f, b, a, x)
        rescans.append(beta)
        return a, beta

    monkeypatch.setattr(_Enumerator, "_coincidence", checked_coincidence)
    monkeypatch.setattr(_Enumerator, "_rescan", checked_rescan)
    table = todd_coxeter(pres)
    assert (table.status, table.n_live, table.cosets_defined) == (CLOSED, 2, 17)
    assert (len(pushed), sum(pushed)) == (4, 40)
    assert len(rescans) == 4 and None not in rescans


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


def test_a_long_relator_closes_without_compiling(monkeypatch, fresh_scanners):
    # The dihedral group of order 3000: one relator of 3000 letters, whose
    # compiled scans would grow with the square of its length.  A word over
    # _UNROLL_LETTERS letters keeps the whole run interpreted, even with the
    # switch set at the first coset.
    monkeypatch.setattr(enumeration, "_COMPILE_PER_LETTER", 0)
    pres = Presentation(("a", "b"), (("a", "a"), ("b", "b"), ("a", "b") * 1500))
    table = todd_coxeter(pres)
    assert (table.status, table.n_live, table.cosets_defined) == (CLOSED, 3000, 3000)
    assert fresh_scanners.cache_info().misses == 0


def test_without_deflation_the_affine_group_is_infinite():
    pres = build_presentation("affine_a5", deflate=False)
    table = _with_rows(pres, (), budget=100_000)
    assert table.status == BUDGET_EXCEEDED
    assert table.cosets_defined == table.n_live == 100_000
    with pytest.raises(ValueError):
        table.order
    # Reading the partial rows checks that no live row names a dead coset.
    assert _table_sha256(table) == CONTROL_TABLE_SHA256["affine_a5"]


def test_without_deflation_the_petersen_group_exceeds_budget(traced_peak_mb):
    pres = build_presentation("petersen", deflate=False)
    table, peak = traced_peak_mb(todd_coxeter, pres, (), 100_000)
    assert (table.status, table.table) == (BUDGET_EXCEEDED, None)
    assert table.cosets_defined == table.n_live == 100_000
    # The peak bounds the enumerator, dropped when todd_coxeter returns: ten
    # columns, the union-find and the scanners (12.4 MB).
    assert peak <= 14
    assert _table_sha256(_with_rows(pres, (), budget=100_000)) == CONTROL_TABLE_SHA256["petersen"]


def test_an_open_run_keeps_nothing_of_its_enumerator():
    # No lazy table pins the enumerator's column lists once todd_coxeter
    # returns: they were 12.3 MB for the 100,000-coset Petersen control.
    pres = build_presentation("petersen", deflate=False)
    todd_coxeter(pres, budget=20_000)  # the compiled scanners stay cached
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        table = todd_coxeter(pres, budget=20_000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (table.status, table.table) == (BUDGET_EXCEEDED, None)
    assert (kept - start) * 10 < peak - start


def test_the_columns_stop_at_the_budget():
    enum = _Enumerator(build_presentation("petersen", deflate=False), 100_000)
    assert enum.run([]) == BUDGET_EXCEEDED
    # Doubling from one slot would reach 131,072; the growth stops at the
    # budget, and a live coset holds no parent.
    assert len(enum.cols[0]) == len(enum.parent) == 100_000
    assert enum.parent.count(None) == enum.live == 100_000


@pytest.mark.parametrize("compiled", [False, True], ids=["default", "compiled"])
@pytest.mark.parametrize("kind, order", [("a3", 24), ("affine_a5", 720)])
def test_a_budget_of_the_group_order_closes_and_one_less_does_not(
    monkeypatch, fresh_scanners, compiled, kind, order
):
    if compiled:  # switch at the fill loop's first definition, as SCHEDULES does
        monkeypatch.setattr(enumeration, "_COMPILE_PER_LETTER", 0)
    pres = build_presentation(kind)
    table = todd_coxeter(pres, budget=order)
    assert (table.status, table.n_live, table.cosets_defined) == (CLOSED, order, order)
    cut = todd_coxeter(pres, budget=order - 1)
    assert (cut.status, cut.n_live, cut.cosets_defined) == (BUDGET_EXCEEDED, order - 1, order - 1)


@pytest.mark.parametrize("switch_at", [None, 0, 8], ids=["default", "compiled", "switched_at_8"])
@pytest.mark.parametrize("words", [[], [("1", "2", "3") * 6]], ids=["fill_loop", "subgroup_word"])
def test_a3_stops_at_every_budget_around_a_column_doubling(
    monkeypatch, fresh_scanners, switch_at, words
):
    # The columns double from one slot, so the budgets 2^k - 1, 2^k and
    # 2^k + 1 stop just before, at and just after a doubling; switch_at 8
    # also switches to compiled scans at coset 8, where the columns double
    # to 16 slots.  a3 closes at 24 with no coincidence, and the 18-letter
    # subgroup word defines a coset at each letter of its trace, so every
    # run stops at its budget, in the fill loop or in the trace.
    if switch_at is not None:
        monkeypatch.setattr(enumeration, "_COMPILE_PER_LETTER", switch_at / _template_letters(A3))
    used = []
    scanners = _Enumerator._scanners

    def spy(enum, compiled):
        used.append((compiled, sys._getframe(1).f_locals["defined"]))
        return scanners(enum, compiled)

    monkeypatch.setattr(_Enumerator, "_scanners", spy)
    for budget in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17):
        used.clear()
        enum = _Enumerator(A3, budget)
        assert enum.run([enum.indexed(w, "subgroup word") for w in words]) == BUDGET_EXCEEDED
        assert enum.defined == enum.live == budget
        assert len(enum.cols[0]) == len(enum.parent) == budget
        # The fill loop alone switches, at its first definition at the earliest.
        expected = [(False, 1)]
        if switch_at is not None and not words and budget > max(switch_at, 1):
            expected.append((True, max(switch_at, 1)))
        assert used == expected, budget


@pytest.mark.parametrize("n", [3, 4])
def test_the_negative_controls_build_no_partial_table(monkeypatch, row_report, n):
    # The control's open run keeps no rows, and no rows are read off it.
    built, runs = [], []
    live_table = enumeration._live_table

    def spy(enum):
        built.append(enum.defined)
        return live_table(enum)

    def recorded(*args, **kwargs):
        runs.append(todd_coxeter(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(enumeration, "_live_table", spy)
    monkeypatch.setattr(enumeration_rows, "todd_coxeter", recorded)
    assert row_report("no_deflation_diverges_{kind}", n).status == "pass"
    assert [(run.status, run.table) for run in runs] == [(BUDGET_EXCEEDED, None)]
    assert built == []


def _random_extension(seed):
    """A diagram presentation, deflated or not, with one more relator, some
    subgroup words and a small budget, drawn from the seed."""
    rng = random.Random(seed)
    kind = rng.choice(["a3", "affine_a5", "petersen"])
    pres = build_presentation(kind, deflate=rng.random() < 0.5)

    def word(length):
        return tuple(rng.choice(pres.generators) for _ in range(length))

    extra = word(rng.choice([2, 4, 6, 8]))
    subgroup = [word(rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
    budget = rng.choice([8, 30, 120, 600, 3000])
    return Presentation(pres.generators, pres.relators + (extra,)), subgroup, budget


def _equivalence_corpus():
    """(name, presentation, subgroup words, budget) of each pinned enumeration."""
    for kind, (generators, _) in sorted(LIFT_PINS.items()):
        pres = build_presentation(kind)
        among = tuple(r for r in pres.relators if set(r) <= set(generators))
        yield f"{kind}_over_h", pres, [(g,) for g in generators], 200_000
        yield f"{kind}_h_relators", Presentation(generators, among), [], 200_000
    for kind in ("affine_a5", "petersen"):
        yield f"{kind}_undeflated", build_presentation(kind, deflate=False), [], 5_000
    for seed in EXTENSION_SEEDS:
        yield (f"extension_{seed}", *_random_extension(seed))


EXTENSION_SEEDS = (0, 1, 5, 6, 7, 13, 15, 17, 20, 24, 26, 27, 29, 33, 39, 42, 45, 47, 53, 56)

# (status, n_live, cosets_defined, sha256 of the int32 table) of each
# enumeration of _equivalence_corpus, taken before the scanners wrote their
# own deductions and the fill loop defined cosets inline.
EQUIVALENCE_PINS = {
    "a3_over_h": (
        CLOSED, 6, 8, "67e82b8ad90bf2dffb99a453e5bcc33c7650cc68e1df9f30c6596ef83b3d6364"
    ),
    "a3_h_relators": (
        CLOSED, 4, 4, "8bf2de7d3c30ecd6719a5d7a8b3a2e65ed13f84fa1328edd7b6eb0849175b655"
    ),
    "affine_a5_over_h": (
        CLOSED, 90, 93, "2c0cbfcf4d802c79897fe397a54297642f2eb83a45d3e1452adca3b5486c4839"
    ),
    "affine_a5_h_relators": (
        CLOSED, 8, 8, "31c9f4f801ff06331262d82860ccd77bf0084fbe340afd10a9df8812dded8edb"
    ),
    "petersen_over_h": (
        CLOSED, 540, 548, "bf91985cb54a0740cc4de18138429f5bf2f4b8f31a31886b71c9b9508ee417ae"
    ),
    "petersen_h_relators": (
        CLOSED, 96, 96, "e8a60934d516849e86a28f0df16efa0078d051f01da34fdba29c77f728f5e0aa"
    ),
    "affine_a5_undeflated": (
        BUDGET_EXCEEDED,
        5000,
        5000,
        "3ac8f6277d667bc6b3ab1b66ae0df819ca50d8556b32dd0e44ce23851531adf2",
    ),
    "petersen_undeflated": (
        BUDGET_EXCEEDED,
        5000,
        5000,
        "27ea1e971a99594d970b9ba603e3a85aefd836df6006288bee5b6daa8862654a",
    ),
    "extension_0": (
        CLOSED, 1, 11, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"
    ),
    "extension_1": (
        CLOSED, 2, 5, "7ceee0fded46cc97352513679bcce94c310e55f4f496f6b5c0a3b27f93307895"
    ),
    "extension_5": (
        CLOSED, 2, 115, "8acf9aebd58eb34f0bb9530e3b1d62d2b85df7f78053d4f8d3e80412f0e7c24d"
    ),
    "extension_6": (
        CLOSED, 2, 58, "8acf9aebd58eb34f0bb9530e3b1d62d2b85df7f78053d4f8d3e80412f0e7c24d"
    ),
    "extension_7": (
        CLOSED, 2, 29, "99b8aca72e8ef578775b6ef86488cbc4f57f4c06a4143418602e4eb681b23cc6"
    ),
    "extension_13": (
        BUDGET_EXCEEDED, 30, 30, "99db2503979e62ca7214b2e69467e6979722943f0497e3cc5e828e962e00b6a1"
    ),
    "extension_15": (
        BUDGET_EXCEEDED, 8, 8, "a0f1fbc80d18c22238430c6722711764574e5ad879a78fe06a405053589abaf7"
    ),
    "extension_17": (
        BUDGET_EXCEEDED, 30, 30, "fd27f138b9b5842595a5440ff92754b072e941be5afd9744c8fde964876349b6"
    ),
    "extension_20": (
        BUDGET_EXCEEDED, 8, 8, "d199771569f9ce4d6f6355e3f94b1ec90e6613ba6be181802fc0e290bdfcbf1f"
    ),
    "extension_24": (
        BUDGET_EXCEEDED, 6, 8, "1dd970092eb94a20044fa4fd19b188ca6aa0df1a4f371e5b37873e57bcaca91a"
    ),
    "extension_26": (
        CLOSED, 2, 41, "8acf9aebd58eb34f0bb9530e3b1d62d2b85df7f78053d4f8d3e80412f0e7c24d"
    ),
    "extension_27": (
        BUDGET_EXCEEDED, 27, 30, "0e74844f1f1baed18ab449162d91b41a4816520543324eb9d08da90908c6ac8b"
    ),
    "extension_29": (
        BUDGET_EXCEEDED, 8, 8, "d199771569f9ce4d6f6355e3f94b1ec90e6613ba6be181802fc0e290bdfcbf1f"
    ),
    "extension_33": (
        CLOSED, 2, 52, "8acf9aebd58eb34f0bb9530e3b1d62d2b85df7f78053d4f8d3e80412f0e7c24d"
    ),
    "extension_39": (
        CLOSED, 12, 13, "27527f9b1e27a4e4847b200a98a431e4526fe136437b6c8e6c0eea0598e24185"
    ),
    "extension_42": (
        BUDGET_EXCEEDED, 6, 8, "842781897aeed891ec6d66fe83a5364f8c3cbafe95dd395a906100867401491a"
    ),
    "extension_45": (
        BUDGET_EXCEEDED, 8, 8, "2c2cb354c8372ef6fcc46e46fa7e96decb4de601749cef8fd281e7b07ab7674f"
    ),
    "extension_47": (
        BUDGET_EXCEEDED, 6, 8, "39b8b5613f61fab791307879750ca8a43464ef3cd223ff1c809bedfe1f8a62cd"
    ),
    "extension_53": (
        BUDGET_EXCEEDED, 29, 30, "1f0b3e5a50dda0bd174d429b840c4870b6d85e1abc1562f4e74fdee5cf415b0c"
    ),
    "extension_56": (
        BUDGET_EXCEEDED,
        120,
        120,
        "2cc6359ab7842d8e5bb43967a9ceb93abed74348a54275ce739685145a15a0dd",
    ),
}


def _template_letters(pres):
    """The letters of the distinct templates of pres's scan words, which
    _COMPILE_PER_LETTER counts."""
    templates = {template for template, _ in _Enumerator(pres, 1).forms}
    return sum(len(word) for template in templates for word in template)


def _corpus_tables(monkeypatch, schedule):
    """The pinned outcome of each enumeration of _equivalence_corpus, each
    run with _COMPILE_PER_LETTER set to schedule(pinned cosets defined,
    letters of its templates), and the scanner kinds it used, in order."""
    found, used = {}, {}
    scanners = _Enumerator._scanners

    def spy(enum, compiled):
        used[name].append("compiled" if compiled else "interpreted")
        return scanners(enum, compiled)

    monkeypatch.setattr(_Enumerator, "_scanners", spy)
    for name, pres, subgroup, budget in _equivalence_corpus():
        letters = _template_letters(pres)
        monkeypatch.setattr(
            enumeration, "_COMPILE_PER_LETTER", schedule(EQUIVALENCE_PINS[name][2], letters)
        )
        used[name] = []
        table = _with_rows(pres, subgroup, budget)
        assert table.status != CLOSED or _standard_rows(table) is not None
        found[name] = (table.status, table.n_live, table.cosets_defined, _table_sha256(table))
    return found, used


# Each schedule: _COMPILE_PER_LETTER of an enumeration from its cosets
# defined and its letters, and the scanners it runs on.  Every run starts
# interpreted; "compiled" switches at the fill loop's first definition.
SCHEDULES = {
    "interpreted": (lambda defined, letters: math.inf, ["interpreted"]),
    "compiled": (lambda defined, letters: 0, ["interpreted", "compiled"]),
    "switched_mid_run": (
        lambda defined, letters: defined / 2 / letters, ["interpreted", "compiled"]
    ),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_the_equivalence_corpus_keeps_every_table(monkeypatch, fresh_scanners, schedule):
    # Every table, partial ones included, with its counts: the next change
    # to the enumerator cannot move one unnoticed, and neither the scanner
    # kind nor the coset it switches at moves one.
    switch, kinds = SCHEDULES[schedule]
    found, used = _corpus_tables(monkeypatch, switch)
    assert found == EQUIVALENCE_PINS
    expected = dict.fromkeys(EQUIVALENCE_PINS, kinds)
    if schedule != "interpreted":
        # Its one subgroup word defines all five cosets before the fill
        # loop, where the switch is made.
        expected["extension_1"] = ["interpreted"]
    assert used == expected


def test_a_scanner_one_backward_step_short_moves_a_pinned_table(monkeypatch, fresh_scanners):
    # The mutant drops the last backward step of every gap at position 1: it
    # deduces a·x·u_1 = a·u_K...u_3 where the cycle needs a·u_K...u_2.
    source = enumeration._scanner_source

    def one_step_short(template):
        lines = source(template).split("\n")
        for k, line in enumerate(lines):
            if line.startswith("        if (f1 := ") and " and " in lines[k + 1]:
                lines[k + 1] = lines[k + 1].rsplit(" and ", 1)[0] + ":"
        return "\n".join(lines)

    monkeypatch.setattr(enumeration, "_scanner_source", one_step_short)
    found, _ = _corpus_tables(monkeypatch, SCHEDULES["compiled"][0])
    assert found != EQUIVALENCE_PINS


def test_a_template_bound_with_two_slots_swapped_moves_a_pinned_table(
    monkeypatch, fresh_scanners
):
    # The mutant binds each compiled template with the columns of slots 1
    # and 2, and their generators, in each other's place: the template then
    # scans words that are not the presentation's.
    def swapped(template):
        bind = fresh_scanners(template)

        def bind_swapped(cols, ids, push, rescan):
            if len(cols) > 2:
                cols = [cols[0], cols[2], cols[1], *cols[3:]]
                ids = (ids[0], ids[2], ids[1], *ids[3:])
            return bind(cols, ids, push, rescan)

        return bind_swapped

    monkeypatch.setattr(enumeration, "_compile_scanner", swapped)
    found, _ = _corpus_tables(monkeypatch, SCHEDULES["compiled"][0])
    assert found != EQUIVALENCE_PINS


@pytest.mark.parametrize("schedule", ["interpreted", "compiled"])
def test_the_order_of_scan_words_moves_no_pinned_table(monkeypatch, fresh_scanners, schedule):
    # Each drain of the deduction stack reaches the least fixpoint of its
    # deductions and coincidences, so the words a scanner visits may come in
    # any order.  Each example shuffles every generator's template words on
    # its own, which also parts the generators that shared a template.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    slot_form = enumeration._slot_form

    @hypothesis.settings(max_examples=3)
    @hypothesis.given(st.integers(0, 2**32 - 1))
    def shuffled(seed):
        rng = random.Random(seed)

        def shuffled_form(x, words):
            template, ids = slot_form(x, words)
            return tuple(rng.sample(template, len(template))), ids

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_slot_form", shuffled_form)
            found, _ = _corpus_tables(patch, SCHEDULES[schedule][0])
        assert found == EQUIVALENCE_PINS

    shuffled()


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
    # Negated matrices give the same certificate: +-M move the classes {v, -v} alike.
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
    broken["1"] = Matrix.identity(3, 3)
    cert = verify_action_against_matrices(table, broken)
    assert not cert.consistent


def test_cross_certificate_rejects_a_non_injective_map():
    # Every generator to I: each edge holds, but all 24 cosets share one image.
    table = enumerate_diagram_group("a3")
    trivial = {g: Matrix.identity(3, 3) for g in table.generators}
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
    rows = enumerate_diagram_group("a3").table.tolist()
    rows[5][0] = entry
    assert rows != enumerate_diagram_group("a3").table.tolist()
    table = CosetTable(A3.generators, tuple(map(tuple, rows)), CLOSED, 24, 24)
    assert not verify_action_against_matrices(table, wall_reflections_mod3(2)).consistent


def test_cross_certificate_rejects_a_repaired_involution(repaired_petersen_rows):
    # The column is still an involution and the tree is unchanged, so the
    # table passes _standard_rows: the labels reject it.
    rows = repaired_petersen_rows
    column = rows[:, 0]
    assert np.array_equal(column[column], np.arange(len(rows)))
    table = CosetTable(enumerate_diagram_group("petersen").generators, rows, CLOSED, 51840, 51840)
    assert _standard_rows(table) is not None
    cert = verify_action_against_matrices(table, wall_reflections_mod3(4))
    assert not cert.consistent
    assert cert.matrix_group_order == 51840


def test_cross_certificate_fails_on_a_rotated_wall(monkeypatch, row_report):
    # w1 w3 has order 3 mod +-I, so no labelling can match the involution
    # that the table's column of 1 is; its inverse w3 w1 need not be a generator.
    walls = wall_reflections_mod3(2)
    rotated = dict(walls, **{"1": walls["1"] @ walls["3"]})
    assert not verify_action_against_matrices(enumerate_diagram_group("a3"), rotated).consistent
    monkeypatch.setattr(enumeration_rows, "wall_reflections_mod3", lambda n: rotated)
    report = row_report("matrix_cross_check_{kind}", 2)
    assert report.status == "fail"
    assert report.actual["consistent"] is False


def test_the_presented_roots_and_matrix_tables_of_w_e6_are_equal():
    # The keyed walks of the roots and of the walls, which verify all no
    # longer makes, kept as reference routes to the table it certifies.
    presented = enumerate_diagram_group("petersen")
    basis = [root_system().root_index(r) for r in SIMPLE_ROOTS]
    walls = wall_reflections_mod3(4)
    matrices = point_action(tuple(walls[g] for g in presented.generators), projective=True)
    assert np.array_equal(presented.table, base_orbit_table(beta_permutations(), basis))
    assert np.array_equal(presented.table, base_orbit_table(*matrices))


def test_cross_certificate_rejects_any_other_numbering_from_coset_0():
    # Relabel the cosets of a3 by a fixed permutation that keeps coset 0:
    # the same action, but not standardized, so no certificate reads it.
    rows = enumerate_diagram_group("a3").table.tolist()
    relabel = [0] + list(range(23, 0, -1))
    moved = [None] * 24
    for old, row in enumerate(rows):
        moved[relabel[old]] = tuple(relabel[b] for b in row)
    table = CosetTable(A3.generators, tuple(moved), CLOSED, 24, 24)
    assert _standard_rows(table) is None
    assert not verify_table(table, A3)
    cert = verify_action_against_matrices(table, wall_reflections_mod3(2))
    assert (cert.consistent, cert.matrix_group_order, cert.edges_checked) == (False, 0, 0)

    # Two disjoint copies: the walk from coset 0 never reaches the second.
    union = rows + [[v + 24 for v in row] for row in rows]
    assert len(union) == 48
    union_table = CosetTable(A3.generators, union, CLOSED, 48, 48)
    assert not verify_action_against_matrices(union_table, wall_reflections_mod3(2)).consistent

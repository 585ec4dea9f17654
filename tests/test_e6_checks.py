"""The one reflection rule of e6, and its configuration checks on crafted defects."""

import numpy as np
import pytest

from gosset import cli, e6, enumeration
from gosset.e6 import (
    E6RootSystem,
    beta_configuration,
    beta_permutations,
    reflection_rows,
    root_system,
    verify_hexagon_sums,
    verify_petersen_gram,
    verify_reflection_fixed_points,
    verify_singletons_commute,
)
from gosset.presentation import Presentation
from gosset.suites import e6 as e6_rows

CHECKS = {
    "gram": verify_petersen_gram,
    "fixed_points": verify_reflection_fixed_points,
    "commute": verify_singletons_commute,
    "hexagons": verify_hexagon_sums,
}


@pytest.fixture
def fresh_memos():
    """Clear the memos that read the configuration, before and after the test."""
    memos = (beta_configuration, beta_permutations, e6.generation_order)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_reflection_rows_is_an_involution_that_negates_beta_and_keeps_the_pairing():
    cartan = np.array(e6.cartan_matrix())
    for beta in beta_configuration().values():
        r = reflection_rows(beta)
        assert (r @ r == np.eye(6, dtype=np.int64)).all()
        assert (np.array(beta) @ r == -np.array(beta)).all()
        assert (r @ cartan @ r.T == cartan).all()  # (xR, yR) = x R C R^T y^T


def test_reflection_rule_refuses_vectors_of_norm_other_than_two():
    norm_four = (1, 0, 0, 0, 0, 1)  # two orthogonal simple roots
    with pytest.raises(ValueError, match="norm-2"):
        reflection_rows(norm_four)
    with pytest.raises(ValueError, match="norm-2"):
        root_system().reflection_permutation(norm_four)


def test_beta_permutations_are_read_only_rows_in_label_order():
    perms = beta_permutations()
    rs = root_system()
    assert perms.shape == (10, 72) and not perms.flags.writeable
    for row, beta in zip(perms.tolist(), beta_configuration().values()):
        assert tuple(row) == rs.reflection_permutation(beta)


def test_e6_suite_builds_the_ten_beta_permutations_once(fresh_memos, monkeypatch):
    calls = []
    original = E6RootSystem.reflection_permutation

    def counted(self, beta):
        calls.append(beta)
        return original(self, beta)

    monkeypatch.setattr(E6RootSystem, "reflection_permutation", counted)
    reports = cli.run_suite("e6")
    assert all(r.status == "pass" for r in reports)
    assert len(calls) == 10
    assert beta_permutations.cache_info().misses == 1


def _with_betas(monkeypatch, edit):
    betas = dict(beta_configuration())
    edit(betas)
    monkeypatch.setattr(e6, "beta_configuration", lambda: betas)


def _negate_13(monkeypatch):
    _with_betas(monkeypatch, lambda b: b.update({"13": tuple(-x for x in b["13"])}))


def _swap_1_and_12(monkeypatch):
    _with_betas(monkeypatch, lambda b: b.update({"1": b["12"], "12": b["1"]}))


def _compose_1_with_a_transposition(monkeypatch):
    """The permutation of beta_1 composed with a swap of two roots orthogonal to beta_1."""
    original = E6RootSystem.reflection_permutation
    beta_1 = beta_configuration()["1"]

    def defective(self, beta):
        perm = list(original(self, beta))
        if beta == beta_1:
            i, j = [k for k, image in enumerate(perm) if image == k][:2]
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    monkeypatch.setattr(E6RootSystem, "reflection_permutation", defective)


@pytest.mark.parametrize(
    "defect, broken",
    [
        (_negate_13, {"gram", "hexagons"}),
        (_swap_1_and_12, {"gram", "commute", "hexagons"}),
        (_compose_1_with_a_transposition, {"fixed_points", "commute"}),
    ],
)
def test_configuration_checks_fail_on_crafted_defects(fresh_memos, monkeypatch, defect, broken):
    assert all(check() for check in CHECKS.values())
    beta_permutations.cache_clear()
    defect(monkeypatch)
    assert {name for name, check in CHECKS.items() if not check()} == broken


CAYLEY_ROW = "cayley_table_roots_matches_presentation"


def _replace_1_by_another_root(monkeypatch):
    _with_betas(monkeypatch, lambda b: b.update({"1": (1, 1, 0, 0, 0, 0)}))


def test_cayley_table_row_passes_and_reads_a_sign_class(fresh_memos, monkeypatch, row_report):
    assert row_report(CAYLEY_ROW, None).status == "pass"
    # s_beta = s_-beta: the tables see the reflection, not the sign of beta,
    # so negating one beta leaves the row passing (the Gram check sees it).
    _negate_13(monkeypatch)
    beta_permutations.cache_clear()
    assert row_report(CAYLEY_ROW, None).status == "pass"


@pytest.mark.parametrize("defect", [_swap_1_and_12, _replace_1_by_another_root])
def test_cayley_table_row_fails_on_a_wrong_beta(fresh_memos, monkeypatch, row_report, defect):
    defect(monkeypatch)
    assert row_report(CAYLEY_ROW, None).status == "fail"


def test_cayley_table_row_fails_without_a_relator_the_presentation_needs(monkeypatch, row_report):
    pres = enumeration.build_presentation("petersen")
    dropped = Presentation(pres.generators, tuple(r for r in pres.relators if r != ("3", "4") * 2))
    uncached = enumeration.enumerate_diagram_group.__wrapped__
    monkeypatch.setattr(enumeration, "build_presentation", lambda kind: dropped)
    monkeypatch.setattr(e6_rows, "enumerate_diagram_group", uncached)
    report = row_report(CAYLEY_ROW, None)
    assert report.status == "error"
    assert "the relators among H's generators: enumeration budget_exceeded" in report.details


def test_one_hexagon_traversal_decides_all_twelve():
    # Generic vectors, not the betas, so that the sums are not zero.
    betas = {lab: (k, k * k, 1 - k, 3, -(k**3), 2 * k + 1) for k, lab in enumerate("abcdef")}
    hexagon = tuple("abcdef")
    total = e6.hexagon_alternating_sum(hexagon, betas)
    negated = tuple(-x for x in total)
    assert total != negated
    for r in range(6):
        rotated = hexagon[r:] + hexagon[:r]
        assert e6.hexagon_alternating_sum(rotated, betas) == (negated if r % 2 else total)
        assert e6.hexagon_alternating_sum(rotated[::-1], betas) == (total if r % 2 else negated)

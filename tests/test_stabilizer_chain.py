"""Group orders and membership from the Schreier-Sims stabilizer chain."""

import numpy as np
import pytest

from gosset import isometry
from gosset.geometry import simple_reflection_matrices, wall_reflections_mod3
from gosset.isometry import (
    ClosureBudgetExceeded,
    GroupClosure,
    Matrix,
    _base_orbit,
    _pack_int8,
    _stabilizer_chain,
    long_simple_reflections,
    orbit,
    point_action,
)
from gosset.suites import STABILIZER_ORDERS

# The linear and projective mod-3 images of the simple reflections, n = 2, 3, 4.
IMAGE_ORDERS = {2: (48, 24), 3: (1440, 720), 4: (103680, 51840)}


def _images(n):
    return [g.reduce(3) for g in simple_reflection_matrices(n)]


def _pinned_orders():
    """The six images, the stabilizers' linear images and the walls' groups."""
    orders = {}
    for n in (2, 3, 4):
        for projective in (False, True):
            orders[n, "images", projective] = GroupClosure(_images(n), projective).order
        stabilizer = [g.reduce(3) for g in long_simple_reflections(n)]
        orders[n, "stabilizer"] = GroupClosure(stabilizer).order
        orders[n, "walls"] = GroupClosure(tuple(wall_reflections_mod3(n).values()), True).order
    return orders


PINNED_ORDERS = {
    **{(n, "images", p): IMAGE_ORDERS[n][p] for n in (2, 3, 4) for p in (False, True)},
    **{(n, "stabilizer"): STABILIZER_ORDERS[n] for n in (2, 3, 4)},
    **{(n, "walls"): order for n, order in ((2, 24), (3, 720), (4, 51840))},
}


def test_chain_orders_are_pinned():
    assert _pinned_orders() == PINNED_ORDERS


def _points_of_rows(rows, images, modulus):
    """The permutations that images, one block of rows per generator, make of
    the distinct rows of rows, reduced mod modulus unless it is None."""
    keys = [_pack_int8(r if modulus is None else r % modulus) for r in (rows, *images)]
    distinct = np.unique(keys[0])
    columns = np.empty((len(images), len(distinct)), dtype=np.intp)
    for x, image in enumerate(keys[1:]):
        assert np.isin(image, distinct).all()
        columns[x, np.searchsorted(distinct, keys[0])] = np.searchsorted(distinct, image)
    return columns


def test_e7_congruence_kernels_are_trivial_by_schreier_sims():
    # An independent route to the n = 7 fact, which assumes nothing about
    # parabolic subgroups.  The long simple reflections at n = 7 permute the
    # 632 rows of the orbit of e_0..e_7.  Those rows span Z^8, and mod p they
    # span (Z/p)^8, so the kernel of the action on them is trivial over Z and
    # is the congruence kernel mod p.  Three orders of |E7| make both
    # congruence kernels trivial.
    mats = np.array([g.entries for g in long_simple_reflections(7)])
    rows = orbit(np.eye(8, dtype=np.int64), lambda f: f @ mats)
    assert len(rows) == 632
    for modulus, points in ((None, 632), (3, 632), (2, 128)):
        columns = _points_of_rows(rows, rows @ mats, modulus)
        assert columns.shape == (7, points)
        _, order = _stabilizer_chain(columns)
        assert order == STABILIZER_ORDERS[7] == 2903040, modulus


def test_chain_order_and_membership_match_the_walk_of_the_base():
    # Any generators drawn from the simple reflections and the walls mod 3:
    # the chain's order is the length of the walk of the base's orbit, and a
    # matrix sifts to the identity exactly when its base image is walked.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 4]), st.booleans(), st.data())
    def same_group(n, projective, data):
        pool = list(dict.fromkeys(_images(n) + list(wall_reflections_mod3(n).values())))
        picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, unique=True))
        gens = [pool[i] for i in picks]
        group = GroupClosure(gens, projective)
        columns, base = point_action(gens, projective)
        images = _base_orbit(columns, base)[0]
        assert group.order == len(images)
        minus = Matrix.identity(n + 1, 3).neg()
        for matrix in (*pool, minus):
            (column,), _ = point_action([matrix], projective)
            walked = bool((images == column[list(base)]).all(axis=1).any())
            assert group.contains(matrix) == walked
        assert group.contains_minus_identity == group.contains(minus)

    same_group()


def test_a_sift_over_every_other_schreier_generator_moves_a_pinned_order(monkeypatch):
    real = isometry._schreier_generators

    def half(level, gens):
        return real(level, gens)[::2]

    monkeypatch.setattr(isometry, "_schreier_generators", half)
    assert _pinned_orders() != PINNED_ORDERS


def test_a_dropped_generator_moves_a_pinned_order():
    for n in (2, 3, 4):
        for projective in (False, True):
            dropped = GroupClosure(_images(n)[1:], projective).order
            assert dropped != IMAGE_ORDERS[n][projective], (n, projective)


def test_a_non_member_does_not_sift_to_the_identity():
    # The first simple reflection is in the whole image and outside the
    # image of the others; the walls' linear group at n = 2 misses -I.
    for n in (2, 3, 4):
        first, rest = _images(n)[0], _images(n)[1:]
        for projective in (False, True):
            assert GroupClosure(_images(n), projective).contains(first)
            assert not GroupClosure(rest, projective).contains(first), (n, projective)
    walls = GroupClosure(tuple(wall_reflections_mod3(2).values()))
    assert not walls.contains_minus_identity
    assert not walls.contains(Matrix.identity(3, 3).neg())


@pytest.mark.parametrize("n, projective", [(3, True), (4, False)])
def test_the_chain_stops_once_its_order_passes_the_budget(n, projective, monkeypatch):
    # Every orbit is far shorter than the order, so only the product of the
    # orbit lengths can pass a budget of the order less one.
    order = IMAGE_ORDERS[n][projective]
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", order)
    assert GroupClosure(_images(n), projective).order == order
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", order - 1)
    with pytest.raises(ClosureBudgetExceeded):
        GroupClosure(_images(n), projective)


def test_the_identity_group_has_an_empty_chain():
    chain, order = _stabilizer_chain(np.arange(5)[None])
    assert chain == [] and order == 1
    assert GroupClosure([Matrix.identity(3, 3)], projective=True).contains_minus_identity
    assert not GroupClosure([Matrix.identity(3, 3)]).contains_minus_identity


def test_a_chain_walks_no_orbit_of_the_base(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closure walked the orbit of its base")

    monkeypatch.setattr(isometry, "_tuple_orbit", refuse)
    assert GroupClosure(_images(4)).order == 103680

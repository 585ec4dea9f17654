"""Lorentzian lattice arithmetic and the fundamental chamber."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gosset.lattice import (
    basis,
    chamber_vertices,
    inner,
    gram,
    norm,
    reflect,
    reflection_rows,
    root,
    simple_roots,
)


def test_inner_product_signature():
    e0 = basis(3)[0]
    e1 = basis(3)[1]
    assert inner(e0, e0) == -1
    assert inner(e1, e1) == 1
    assert inner(e0, e1) == 0


def test_inner_product_bilinear():
    rng = random.Random(0)
    for _ in range(100):
        u = tuple(rng.randint(-9, 9) for _ in range(4))
        v = tuple(rng.randint(-9, 9) for _ in range(4))
        w = tuple(rng.randint(-9, 9) for _ in range(4))
        assert inner(np.add(u, v), w) == inner(u, w) + inner(v, w)
        assert inner(u, v) == inner(v, u)
        assert inner(3 * np.array(u), v) == 3 * inner(u, v)


def test_root_factory_rejects_bad_norms():
    root((0, 1, 0))
    root((0, 1, -1, 0))
    with pytest.raises(ValueError):
        root((0, 1, 1, 1))
    with pytest.raises(ValueError):
        root((1, 0, 0))


def test_root_factory_keeps_its_coordinate_checks():
    assert root([0, 1, -1]) == (0, 1, -1)
    with pytest.raises(ValueError, match="at least"):
        root((1,))
    with pytest.raises(ValueError, match="integers"):
        root((0, 1.0, 0))
    with pytest.raises(ValueError, match="integers"):
        root((0, np.int64(1), 0))


def test_reflection_rule_matches_the_exact_rational_formula():
    # Every alpha with entries in [-2, 2] at n = 2..4: norm 1 or 2 gives
    # I - 2 (J alpha^T) alpha / (alpha J alpha^T), any other norm raises.
    sympy = pytest.importorskip("sympy")
    for n in (2, 3, 4):
        j = sympy.diag(-1, *[1] * n)
        for alpha in product(range(-2, 3), repeat=n + 1):
            if norm(alpha) not in (1, 2):
                with pytest.raises(ValueError):
                    reflection_rows(alpha)
                continue
            a = sympy.Matrix([alpha])
            want = sympy.eye(n + 1) - 2 * (j * a.T) * a / (a * j * a.T)[0]
            assert sympy.Matrix(reflection_rows(alpha).tolist()) == want


def test_reflection_rows_keep_the_lattice_and_the_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    roots = [a for n in range(2, 9) for a in simple_roots(n)]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(roots), st.data())
    def exact(alpha, data):
        rows = st.lists(st.integers(-10**6, 10**6), min_size=len(alpha), max_size=len(alpha))
        x, y = np.array(data.draw(rows)), np.array(data.draw(rows))
        r, j = reflection_rows(alpha), gram(len(alpha))
        coefficient = Fraction(2 * inner(x, alpha), norm(alpha))
        assert coefficient.denominator == 1  # x R is integral
        assert (x @ r).tolist() == (x - int(coefficient) * np.array(alpha)).tolist()
        assert (x @ r @ r == x).all()
        assert (x @ r) @ j @ (y @ r) == x @ j @ y

    exact()


@pytest.mark.parametrize("n", range(2, 9))
def test_simple_root_norms(n):
    norms = [norm(a) for a in simple_roots(n)]
    if n == 2:
        assert norms == [1, 2, 1]
    else:
        assert norms == [2] * n + [1]


def test_simple_root_count_and_span():
    for n in range(2, 9):
        roots = simple_roots(n)
        assert len(roots) == n + 1
        assert all(len(a) == n + 1 for a in roots)


def test_first_root_attaches_at_position_three():
    # e0-e1-e2-e3 pairs to -1 only with e3-e4 (or with the short root e3
    # when n=3); everything nearer the apex is orthogonal to it.
    for n in range(4, 9):
        roots = simple_roots(n)
        pairings = [inner(roots[0], roots[i]) for i in range(1, n + 1)]
        assert pairings[2] == -1
        assert all(p == 0 for i, p in enumerate(pairings) if i != 2)


def test_consecutive_roots_pair_to_minus_one():
    for n in range(3, 9):
        roots = simple_roots(n)
        for i in range(1, n):
            assert inner(roots[i], roots[i + 1]) == -1


def test_reflection_negates_its_root():
    for n in range(2, 9):
        for a in simple_roots(n):
            assert reflect(a, a) == tuple(-1 * x for x in a)


def test_reflection_is_integral_involutive_isometry():
    rng = random.Random(1)
    for n in range(2, 7):
        for a in simple_roots(n):
            for _ in range(50):
                u = tuple(rng.randint(-9, 9) for _ in range(n + 1))
                v = tuple(rng.randint(-9, 9) for _ in range(n + 1))
                ru = reflect(a, u)
                assert all(isinstance(c, int) for c in ru)
                assert reflect(a, ru) == u
                assert inner(ru, reflect(a, v)) == inner(u, v)


def test_reflection_rejects_non_root():
    with pytest.raises(ValueError):
        reflect((0, 1, 1, 1), (1, 0, 0, 0))


def test_chamber_vertex_norms():
    for n in range(2, 9):
        norms = [norm(v) for v in chamber_vertices(n)]
        assert norms == [-1, 0, -2] + [j - 9 for j in range(3, n + 1)]


def test_chamber_incidence():
    # Vertex j lies on every wall except wall j, and sits on the negative
    # side of that one.
    for n in range(2, 9):
        roots = simple_roots(n)
        verts = chamber_vertices(n)
        for j, v in enumerate(verts):
            for i, a in enumerate(roots):
                assert inner(v, a) == (-1 if i == j else 0)


def test_exactly_one_ideal_vertex():
    for n in range(2, 9):
        null = [v for v in chamber_vertices(n) if norm(v) == 0]
        assert len(null) == 1

"""Eisenstein integers, the hermitian form, and hexaflections, against complex arithmetic."""

import cmath
import random

import numpy as np
import pytest

from gosset.eisenstein import CONJ, OMEGA, forms, hexaflection_rows, scalar_rows

OMEGA_COMPLEX = cmath.exp(2j * cmath.pi / 3)
I2 = np.eye(2, dtype=np.int64)

# All of these pair to one with themselves under the (3,1) form; a + b omega
# is the pair (a, b), so the last is (1, omega, 1, 0).
UNIT_AXES = np.array(
    [
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 1, 0, 0, 0),
    ]
)


def _rand_eis(rng):
    return np.array([rng.randint(-9, 9), rng.randint(-9, 9)])


def _rand_vec(rng, d=4):
    return np.array([rng.randint(-9, 9) for _ in range(2 * d)])


def _to_complex(row):
    """The complex coordinates of a row of pairs a + b omega."""
    return [a + b * OMEGA_COMPLEX for a, b in np.reshape(row, (-1, 2))]


def _times(x, y):
    return x @ scalar_rows(y, 1)


def _herm(u, v):
    """<u, v> as a pair (p, q): p + q omega."""
    p, q = forms(len(u) // 2)
    return np.array([u @ p @ v, u @ q @ v])


def _herm_complex(u, v):
    signs = [-1] + [1] * (len(u) // 2 - 1)
    return sum(s * a * b.conjugate() for s, a, b in zip(signs, _to_complex(u), _to_complex(v)))


def _close(exact, approx):
    return max(abs(a - b) for a, b in zip(_to_complex(exact), approx)) < 1e-9


def test_omega_is_primitive_cube_root():
    assert not (OMEGA @ OMEGA + OMEGA + I2).any()
    assert (np.linalg.matrix_power(OMEGA, 3) == I2).all()
    assert (OMEGA != I2).any()


def test_ring_operations_match_complex_arithmetic():
    # Cross-check exact arithmetic against floating point in C.
    rng = random.Random(2)
    for _ in range(200):
        x, y = _rand_eis(rng), _rand_eis(rng)
        (cx,), (cy,) = _to_complex(x), _to_complex(y)
        for exact, approx in ((x + y, cx + cy), (x - y, cx - cy), (_times(x, y), cx * cy)):
            assert _close(exact, [approx])
        assert _close(x @ CONJ, [cx.conjugate()])
        assert _close(x @ OMEGA, [cx * OMEGA_COMPLEX])


def test_conjugation_is_ring_automorphism_of_order_two():
    rng = random.Random(3)
    assert (CONJ @ CONJ == I2).all()
    for _ in range(200):
        x, y = _rand_eis(rng), _rand_eis(rng)
        assert (_times(x, y) @ CONJ == _times(x @ CONJ, y @ CONJ)).all()
        assert ((x + y) @ CONJ == x @ CONJ + y @ CONJ).all()
        norm = _times(x, x @ CONJ)
        assert norm[1] == 0 and norm[0] >= 0


def test_hermitian_form_signature():
    basis = np.eye(8, dtype=np.int64)[::2]
    assert _herm(basis[0], basis[0]).tolist() == [-1, 0]
    for i in range(1, 4):
        assert _herm(basis[i], basis[i]).tolist() == [1, 0]
    for i in range(4):
        for j in range(i + 1, 4):
            assert _herm(basis[i], basis[j]).tolist() == [0, 0]


def test_hermitian_form_sesquilinear():
    rng = random.Random(4)
    for _ in range(100):
        u, v = _rand_vec(rng), _rand_vec(rng)
        z = _rand_eis(rng)
        assert _close(_herm(u, v), [_herm_complex(u, v)])
        assert (_herm(u, v) == _herm(v, u) @ CONJ).all()
        assert (_herm(u @ scalar_rows(z, 4), v) == _times(_herm(u, v), z)).all()
        assert (_herm(u, v @ scalar_rows(z, 4)) == _times(_herm(u, v), z @ CONJ)).all()


def test_hexaflection_requires_unit_axis():
    for norm_minus_one_or_two in ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0)):
        with pytest.raises(ValueError):
            hexaflection_rows(norm_minus_one_or_two)


def test_hexaflection_matches_the_complex_formula():
    # h(l) = l - (omega^2 + 1) <l, e> e
    rng = random.Random(8)
    minus_omega_sq_minus_one = -(OMEGA_COMPLEX**2 + 1)
    for axis in UNIT_AXES:
        h = hexaflection_rows(axis)
        e = _to_complex(axis)
        for _ in range(20):
            lam = _rand_vec(rng)
            coeff = minus_omega_sq_minus_one * _herm_complex(lam, axis)
            assert _close(lam @ h, [a + coeff * b for a, b in zip(_to_complex(lam), e)])


def test_hexaflection_rotates_axis_by_sixth_root():
    for axis in UNIT_AXES:
        assert (axis @ hexaflection_rows(axis) == axis @ scalar_rows((1, 1), 4)).all()


def test_hexaflection_fixes_orthogonal_vectors():
    h = hexaflection_rows(UNIT_AXES[0])
    for v in np.eye(8, dtype=np.int64)[[0, 1, 4, 5, 6, 7]]:
        assert _herm(v, UNIT_AXES[0]).tolist() == [0, 0]
        assert (v @ h == v).all()


def test_hexaflection_preserves_form():
    rng = random.Random(5)
    for axis in UNIT_AXES:
        h = hexaflection_rows(axis)
        for _ in range(40):
            u, v = _rand_vec(rng), _rand_vec(rng)
            assert (_herm(u @ h, v @ h) == _herm(u, v)).all()


def _orbit_length(h, v, max_power):
    w = v
    for k in range(1, max_power + 1):
        w = w @ h
        if (w == v).all():
            return k
    return 0


def test_hexaflection_has_exact_order_six():
    rng = random.Random(6)
    for axis in UNIT_AXES:
        h = hexaflection_rows(axis)
        # The axis itself realizes the full period.
        assert _orbit_length(h, axis, 6) == 6
        for _ in range(20):
            assert 6 % _orbit_length(h, _rand_vec(rng), 6) == 0


def test_squared_hexaflection_has_order_three():
    rng = random.Random(7)
    for axis in UNIT_AXES:
        h = hexaflection_rows(axis)
        t = h @ h
        assert (axis @ t != axis).any() and (axis @ t @ t != axis).any()
        assert (t @ t @ t == np.eye(8, dtype=np.int64)).all()
        for _ in range(20):
            v = _rand_vec(rng)
            assert (v @ t @ t @ t == v).all()


def test_the_dimension_comes_from_the_axis():
    # (1, omega, 0, 0, 1) in Z[omega]^{4,1}: -1 + 1 + 1 = 1.
    axis = np.array((1, 0, 0, 1, 0, 0, 0, 0, 1, 0))
    h = hexaflection_rows(axis)
    assert h.shape == (10, 10)
    assert _orbit_length(h, axis, 6) == 6
    assert (np.linalg.matrix_power(h, 6) == np.eye(10, dtype=np.int64)).all()
    rng = random.Random(9)
    for _ in range(20):
        u, v = _rand_vec(rng, 5), _rand_vec(rng, 5)
        assert (_herm(u @ h, v @ h) == _herm(u, v)).all()

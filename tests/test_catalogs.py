"""The plain-arithmetic catalogs against their sympy originals, and the
complex-step Jacobians against exact symbolic ones."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from saucer import catalogs

_COORDS = sp.symbols("x y z a b", real=True)
_R = sp.Rational


def _attacking_exprs():
    x, y, z, a, b = _COORDS
    e = z - a * x - b * y
    return [
        (z * x, z * y, z * z, e * a, e * b),
        (x * x, x * y, x * z, e, 0),
        (0, -z, 0, b * a, b * b),
        (0, -x, 0, b, 0),
        (-z, 0, 0, a * a, a * b),
        (-x, 0, 0, a, 0),
        (0, 0, x, 1, 0),
        (y * x, y * y, y * z, 0, e),
        (-y, 0, 0, 0, a),
        (x, 0, z, 0, b),
        (0, 0, y, 0, 1),
        (x, y, z, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
    ]


def _landing_exprs():
    x, y, z, a, b = _COORDS
    s = sp.sqrt(a * a + b * b + 1)
    return [
        (-z * x, -z * y, (x * x + y * y - z * z) / 2,
         (1 + a * a) * x + a * b * y, (1 + b * b) * y + a * b * x),
        ((y * y + z * z - x * x) / 2, -x * y, -x * z,
         -((1 + a * a) * z - b * y), -a * (b * z + y)),
        (y * x, (y * y - x * x - z * z) / 2, y * z,
         b * (a * z + x), (1 + b * b) * z - a * x),
        (-(x * x + y * y + z * z) / 2 * a / s,
         -(x * x + y * y + z * z) / 2 * b / s,
         (x * x + y * y + z * z) / 2 / s,
         s * (a * z + x), s * (b * z + y)),
        (-z, 0, x, a * a + 1, a * b),
        (0, -z, y, a * b, b * b + 1),
        (y, -x, 0, b, -a),
        (-x * a / s, -x * b / s, x / s, s, 0),
        (-z * a / s, -z * b / s, z / s, s * a, s * b),
        (-y * a / s, -y * b / s, y / s, 0, s),
        (-a / s, -b / s, 1 / s, 0, 0),
        (x, y, z, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
    ]


def _g2_exprs():
    x, y, z, a, b = _COORDS
    return [
        (y ** 3 + x * z,
         y * z - _R(1, 9) * b * b * x - _R(2, 3) * b * y * y,
         z * z - _R(2, 27) * b ** 3 * x - _R(1, 3) * b * b * y * y,
         a * z - a * a * x - a * b * y + _R(1, 27) * b ** 3,
         b * z - a * b * x - 3 * a * y * y - _R(1, 3) * b * b * y),
        (x * x, x * y, x * z - y ** 3, z - a * x - b * y, -3 * y * y),
        (-z / 2, _R(1, 18) * b * b, _R(1, 27) * b ** 3, a * a / 2, a * b / 2),
        (-3 * y * y, _R(4, 3) * b * y - z, _R(2, 3) * b * b * y,
         a * b, 6 * a * y + _R(1, 3) * b * b),
        (0, y / 3, z, a, _R(2, 3) * b),
        (_R(9, 2) * x * y, _R(3, 2) * y * y - b * x, (9 * y * z - b * b * x) / 2,
         b * b / 2, (9 * z + 3 * b * y - 9 * a * x) / 2),
        (0, -x, 3 * y * y, b, 6 * y),
        (x, _R(2, 3) * y, z, 0, b / 3),
        (y, -_R(2, 9) * b, -_R(1, 9) * b * b, 0, -a),
        (0, 0, x, 1, 0),
        (0, 0, y, 0, 1),
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
    ]


#: The sympy catalog expressions the package shipped before its fields were
#: written as plain arithmetic.
ORACLES = {"attacking": (catalogs.ATTACKING_FIELDS, _attacking_exprs),
           "landing": (catalogs.LANDING_FIELDS, _landing_exprs),
           "g2": (catalogs.G2_FIELDS, _g2_exprs)}


def _points(seed, m):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(m, 5))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_fields_equal_the_sympy_catalog(name):
    fields, exprs = ORACLES[name]
    old = exprs()
    assert len(fields) == len(old) == len(catalogs.catalog(name))
    for k, (fn, want) in enumerate(zip(fields, old)):
        # the landing square root comes back as a float power of one half
        got = [sp.nsimplify(sp.sympify(c), rational=True) for c in fn(*_COORDS)]
        for i, (g, w) in enumerate(zip(got, want)):
            diff = sp.expand(g - w)
            assert diff == 0 or sp.simplify(diff) == 0, (name, k, i)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_complex_step_jacobians_match_symbolic_ones(name):
    _, exprs = ORACLES[name]
    pts = _points(sum(map(ord, name)), 200)
    for X, comps in zip(catalogs.catalog(name), exprs()):
        comps = sp.Matrix([sp.sympify(c) for c in comps])
        value = sp.lambdify(_COORDS, comps, modules="numpy")
        jacobian = sp.lambdify(_COORDS, comps.jacobian(_COORDS), modules="numpy")
        want_v = np.array([np.asarray(value(*p), dtype=float).ravel() for p in pts])
        want_j = np.array([np.asarray(jacobian(*p), dtype=float) for p in pts])
        got_v, got_j = X.value(pts), X.jacobian(pts)
        assert got_v.shape == (200, 5) and got_j.shape == (200, 5, 5)
        np.testing.assert_allclose(got_v, want_v, rtol=1e-13, atol=1e-13, err_msg=X.id)
        np.testing.assert_allclose(got_j, want_j, rtol=1e-13, atol=1e-13, err_msg=X.id)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stacked_evaluation_equals_per_point_calls(name):
    pts = _points(7, 9)
    for X in catalogs.catalog(name):
        values, jacobians = X.value(pts), X.jacobian(pts)
        for p, v, J in zip(pts, values, jacobians):
            np.testing.assert_array_equal(X.value(p), v)
            np.testing.assert_array_equal(X.jacobian(p), J)
        grid = pts.reshape(3, 3, 5)
        np.testing.assert_array_equal(X.value(grid), values.reshape(3, 3, 5))
        np.testing.assert_array_equal(X.jacobian(grid), jacobians.reshape(3, 3, 5, 5))


def test_catalog_names():
    assert catalogs.catalog("g2s") is catalogs.catalog("G2") is catalogs.catalog(" g2d ")
    with pytest.raises(ValueError):
        catalogs.catalog("octonion")


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_catalog_fill_equals_the_per_field_calls(name):
    fields = catalogs.catalog(name)
    pts = _points(11, 200)
    values, jacobians = fields.values(pts), fields.jacobians(pts)
    assert values.shape == (200, len(fields), 5)
    assert jacobians.shape == (200, len(fields), 5, 5)
    for i, X in enumerate(fields):
        np.testing.assert_array_equal(values[:, i], X.value(pts), err_msg=X.id)
        np.testing.assert_array_equal(jacobians[:, i], X.jacobian(pts), err_msg=X.id)
    np.testing.assert_array_equal(fields.values(pts[0]), values[0])
    np.testing.assert_array_equal(fields.jacobians(pts[0]), jacobians[0])

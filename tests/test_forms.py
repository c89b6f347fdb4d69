"""Tensor calculus: brackets, Lie derivatives of symmetric tensors, d."""
from __future__ import annotations

import numpy as np
import pytest

from saucer.chart import contact_covector
from saucer.forms import (FD_STEP, VectorField, bracket, constant_field,
                          exterior_derivative_stack, lie_derivative_stack,
                          lie_derivative_symtensor, SymTensorField)
from saucer.maneuvers import ATTACKING_METRIC_FIELD, LANDING_METRIC_FIELD, QUARTIC_FIELD
from saucer.sampling import sample_chart_points
from saucer.symmetry import CONTACT_TENSOR


def _poly_field() -> VectorField:
    def value(p: np.ndarray) -> np.ndarray:
        x, y, z, a, b = p
        return np.array([y, -x, x * z, 0.5 * b, a * a])

    def jac(p: np.ndarray) -> np.ndarray:
        x, y, z, a, b = p
        J = np.zeros((5, 5))
        J[0, 1] = 1.0
        J[1, 0] = -1.0
        J[2, 0] = z
        J[2, 2] = x
        J[3, 4] = 0.5
        J[4, 3] = 2.0 * a
        return J

    return VectorField("poly-field", 5, value, jac)


def _lie_derivative(X: VectorField, S: SymTensorField, p: np.ndarray) -> np.ndarray:
    """L_X S at one point, through the stacked routine."""
    return lie_derivative_stack(X.value(p)[None], X.jacobian(p)[None],
                                S.value(p)[None], S.point_derivative(p)[None])[0]


def test_cartan_formula_matches_flow_pullback():
    """L_X w0 from the stacked Lie derivative vs a finite-difference flow pullback."""
    X = _poly_field()
    alpha = CONTACT_TENSOR
    eps = 1e-4
    def flow(p: np.ndarray, h: float) -> np.ndarray:
        # single RK4 step is exact enough for the eps-flow of a polynomial field
        k1 = X.value(p)
        k2 = X.value(p + 0.5 * h * k1)
        k3 = X.value(p + 0.5 * h * k2)
        k4 = X.value(p + h * k3)
        return p + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    for p in sample_chart_points(10, label="test.cartan"):
        lie = _lie_derivative(X, alpha, p)
        J = X.jacobian(p)
        a_plus = alpha.value(flow(p, eps))
        a_minus = alpha.value(flow(p, -eps))
        for i in range(5):
            v = np.zeros(5)
            v[i] = 1.0
            quotient = (a_plus @ ((np.eye(5) + eps * J) @ v)
                        - a_minus @ ((np.eye(5) - eps * J) @ v)) / (2 * eps)
            assert abs(lie @ v - quotient) < 1e-4


def test_bracket_antisymmetry_and_jacobi():
    X = _poly_field()
    Y = constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0])

    def zval(p: np.ndarray) -> np.ndarray:
        x, y, z, a, b = p
        return np.array([a, 0.0, y * y, -b, x])

    Z = VectorField("zfield", 5, zval)
    for p in sample_chart_points(10, label="test.jacobi"):
        assert np.max(np.abs(bracket(X, Y, p) + bracket(Y, X, p))) < 1e-12
        cyc = (bracket_of(X, Y, Z, p) + bracket_of(Y, Z, X, p)
               + bracket_of(Z, X, Y, p))
        assert np.max(np.abs(cyc)) < 1e-6


def bracket_of(A: VectorField, B: VectorField, C: VectorField,
               p: np.ndarray) -> np.ndarray:
    """[[A, B], C](p) with the inner bracket wrapped as a field."""
    inner = VectorField(f"[{A.id},{B.id}]", 5, lambda q: bracket(A, B, q))
    return bracket(inner, C, p)


def test_symtensor_lie_derivative_directional_term():
    """For a constant field the Lie derivative reduces to X^m d_m S."""
    def gval(p: np.ndarray) -> np.ndarray:
        G = np.zeros(p.shape + (5,))
        G[..., 0, 0] = p[..., 3] ** 2
        G[..., 0, 1] = G[..., 1, 0] = p[..., 2]
        return G

    def gder(p: np.ndarray) -> np.ndarray:
        dG = np.zeros(p.shape + (5, 5))
        dG[..., 3, 0, 0] = 2.0 * p[..., 3]
        dG[..., 2, 0, 1] = dG[..., 2, 1, 0] = 1.0
        return dG

    S = SymTensorField("g-test", gval, gder)
    X = constant_field("dir", [0.0, 0.0, 1.0, 2.0, 0.0])
    pts = sample_chart_points(10, label="test.liesym")
    lie = lie_derivative_stack(X.value(pts), X.jacobian(pts), S.value(pts),
                               S.point_derivative(pts))
    for p, L in zip(pts, lie):
        expected = np.zeros((5, 5))
        expected[0, 0] = 2.0 * p[3] * 2.0
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.max(np.abs(L - expected)) < 1e-9
        np.testing.assert_array_equal(lie_derivative_symtensor(X, S, p), L)


@pytest.mark.parametrize("S", [LANDING_METRIC_FIELD, CONTACT_TENSOR,
                               ATTACKING_METRIC_FIELD, QUARTIC_FIELD],
                         ids=lambda S: S.name)
def test_stacked_symtensor_fields_equal_pointwise_ones(S):
    pts = sample_chart_points(40, label="test.stacked-symtensor")
    T, dT = S.value(pts), S.point_derivative(pts)
    rank = S.value(pts[0]).ndim
    assert T.shape == (40,) + (5,) * rank
    assert dT.shape == (40, 5) + (5,) * rank
    np.testing.assert_array_equal(T, [S.value(p) for p in pts])
    np.testing.assert_array_equal(dT, [S.point_derivative(p) for p in pts])
    # the closed-form derivative against central differences of the value
    h = FD_STEP
    fd = np.stack([(S.value(pts + h * e) - S.value(pts - h * e)) / (2.0 * h)
                   for e in np.eye(5)], axis=1)
    np.testing.assert_allclose(dT, fd, rtol=0.0, atol=1e-8)


def test_complex_step_exterior_derivative_of_the_contact_form():
    # dw0 = dx ^ da + dy ^ db to roundoff; central differences agree to
    # their own truncation level
    exact = np.zeros((5, 5))
    exact[0, 3] = exact[1, 4] = 1.0
    exact = exact - exact.T
    pts = sample_chart_points(40, label="test.cstep")
    dw = exterior_derivative_stack(contact_covector, pts)
    assert dw.shape == (40, 5, 5)
    for p, F in zip(pts, dw):
        assert np.max(np.abs(F - exact)) <= 1e-14
        h = FD_STEP * max(1.0, float(np.linalg.norm(p)))
        grad = np.array([(contact_covector(p + h * e) - contact_covector(p - h * e)) / (2.0 * h)
                         for e in np.eye(5)])
        assert np.max(np.abs(F - (grad - grad.T))) <= 1e-8
    np.testing.assert_array_equal(exterior_derivative_stack(contact_covector, pts[0]), dw[0])


def test_complex_step_exterior_derivative_of_a_polynomial_form():
    # w = zy dx + x^2 dy + ab dz + y da + xz db
    def components(q):
        x, y, z, a, b = np.moveaxis(q, -1, 0)
        return np.stack([z * y, x * x, a * b, y, x * z], axis=-1)

    pts = sample_chart_points(10, label="test.cstep.poly")
    dw = exterior_derivative_stack(components, pts)
    for (x, y, z, a, b), F in zip(pts, dw):
        grad = np.zeros((5, 5))   # grad[i, j] = d_i w_j
        grad[1, 0], grad[2, 0] = z, y
        grad[0, 1] = 2.0 * x
        grad[3, 2], grad[4, 2] = b, a
        grad[1, 3] = 1.0
        grad[0, 4], grad[2, 4] = z, x
        np.testing.assert_allclose(F, grad - grad.T, rtol=0.0, atol=1e-14)


def test_stacked_brackets_equal_pointwise_brackets():
    # a closed-form Jacobian pair, and a bracket field whose Jacobian falls
    # back to differences with each point's own step
    def value(p):
        x, y, z, a, b = np.moveaxis(p, -1, 0)
        return np.stack([y, -x, x * z, 0.5 * b, a * a], axis=-1)

    def jac(p):
        x, y, z, a, b = np.moveaxis(p, -1, 0)
        J = np.zeros(p.shape + (5,))
        J[..., 0, 1], J[..., 1, 0], J[..., 3, 4] = 1.0, -1.0, 0.5
        J[..., 2, 0], J[..., 2, 2], J[..., 4, 3] = z, x, 2.0 * a
        return J

    X = VectorField("poly-field", 5, value, jac)
    Y = constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0])
    Z = VectorField("[X,ey]", 5, lambda p: bracket(X, Y, p))
    pts = sample_chart_points(30, label="test.stacked-bracket")
    for p in pts[:3]:
        np.testing.assert_array_equal(X.jacobian(p), _poly_field().jacobian(p))
    for A, B in ((X, Y), (Z, X), (Z, Y)):
        stacked = bracket(A, B, pts)
        assert stacked.shape == (30, 5)
        np.testing.assert_array_equal(stacked, [bracket(A, B, p) for p in pts])
    np.testing.assert_array_equal(Z.jacobian(pts), [Z.jacobian(p) for p in pts])

"""Exterior calculus engine: wedge, d, Lie derivatives, brackets."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer.chart import CONTACT_FORM, contact_covector
from saucer.forms import (DifferentialForm, FormValue, VectorField, bracket,
                          constant_field, exterior_derivative,
                          exterior_derivative_stack,
                          lie_derivative_form, lie_derivative_symtensor,
                          SymTensorField, wedge)
from saucer.sampling import rng_for, sample_chart_points

vec5 = st.lists(st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                min_size=5, max_size=5).map(np.array)


@given(vec5, vec5, vec5, vec5)
@settings(max_examples=40, deadline=None)
def test_wedge_of_covectors_is_antisymmetric_determinant(c1, c2, v, w):
    a = FormValue.covector(c1)
    b = FormValue.covector(c2)
    ab = wedge(a, b)
    ba = wedge(b, a)
    det = (c1 @ v) * (c2 @ w) - (c1 @ w) * (c2 @ v)
    assert abs(ab.evaluate(v, w) - det) < 1e-9
    assert abs(ab.evaluate(v, w) + ba.evaluate(v, w)) < 1e-9


def test_wedge_is_associative_on_covectors():
    rng = rng_for(0, "forms.assoc")
    for _ in range(10):
        a, b, c = (FormValue.covector(rng.uniform(-1, 1, 5)) for _ in range(3))
        v = rng.uniform(-1, 1, (3, 5))
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert abs(left.evaluate(*v) - right.evaluate(*v)) < 1e-12


def test_interior_product_is_evaluation_slot():
    rng = rng_for(0, "forms.interior")
    a = FormValue.covector(rng.uniform(-1, 1, 5))
    b = FormValue.covector(rng.uniform(-1, 1, 5))
    v, w = rng.uniform(-1, 1, (2, 5))
    two = wedge(a, b)
    assert abs(two.interior(v).evaluate(w) - two.evaluate(v, w)) < 1e-12


def test_registered_and_fd_exterior_derivative_agree():
    # same coefficients as the contact form but without the registered d
    fd_only = DifferentialForm("w0-fd", 5, 1,
                               lambda p: FormValue.covector(contact_covector(p)))
    for p in sample_chart_points(20, label="test.dreg"):
        d_reg = exterior_derivative(CONTACT_FORM, p)
        d_fd = exterior_derivative(fd_only, p)
        diff = d_reg - d_fd
        assert diff.norm() < 1e-9


def _poly_one_form() -> DifferentialForm:
    def coeff(p: np.ndarray) -> FormValue:
        x, y, z, a, b = p
        return FormValue.covector(np.array([z * y, x * x, a * b, y, x * z]))

    return DifferentialForm("poly1", 5, 1, coeff)


def test_d_squared_vanishes():
    alpha = _poly_one_form()
    dalpha = DifferentialForm("d(poly1)", 5, 2,
                              lambda q: exterior_derivative(alpha, q))
    for p in sample_chart_points(15, label="test.d2"):
        dd = exterior_derivative(dalpha, p)
        assert dd.norm() < 1e-6


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


def test_cartan_formula_matches_flow_pullback():
    """L_X alpha from Cartan's formula vs a finite-difference flow pullback."""
    X = _poly_field()
    alpha = CONTACT_FORM
    eps = 1e-4
    def flow(p: np.ndarray, h: float) -> np.ndarray:
        # single RK4 step is exact enough for the eps-flow of a polynomial field
        k1 = X.value(p)
        k2 = X.value(p + 0.5 * h * k1)
        k3 = X.value(p + 0.5 * h * k2)
        k4 = X.value(p + h * k3)
        return p + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    for p in sample_chart_points(10, label="test.cartan"):
        lie = lie_derivative_form(X, alpha, p)
        J = X.jacobian(p)
        a_plus = alpha.value(flow(p, eps))
        a_minus = alpha.value(flow(p, -eps))
        for i in range(5):
            v = np.zeros(5)
            v[i] = 1.0
            quotient = (a_plus.evaluate((np.eye(5) + eps * J) @ v)
                        - a_minus.evaluate((np.eye(5) - eps * J) @ v)) / (2 * eps)
            assert abs(lie.evaluate(v) - quotient) < 1e-4


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
        G = np.zeros((5, 5))
        G[0, 0] = p[3] ** 2
        G[0, 1] = G[1, 0] = p[2]
        return G

    S = SymTensorField("g-test", 5, 2, "coords", gval)
    X = constant_field("dir", [0.0, 0.0, 1.0, 2.0, 0.0])
    for p in sample_chart_points(10, label="test.liesym"):
        lie = lie_derivative_symtensor(X, S, p)
        expected = np.zeros((5, 5))
        expected[0, 0] = 2.0 * p[3] * 2.0
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.max(np.abs(lie - expected)) < 1e-9


def test_complex_step_exterior_derivative_of_the_contact_form():
    # dw0 = dx ^ da + dy ^ db, the registered closed form, to roundoff; the
    # central differences it replaced agree to their own truncation level
    fd_only = DifferentialForm("w0-fd", 5, 1,
                               lambda p: FormValue.covector(contact_covector(p)))
    pts = sample_chart_points(40, label="test.cstep")
    dw = exterior_derivative_stack(contact_covector, pts)
    assert dw.shape == (40, 5, 5)
    for p, F in zip(pts, dw):
        for d_ref, tol in ((exterior_derivative(CONTACT_FORM, p), 1e-14),
                           (exterior_derivative(fd_only, p), 1e-8)):
            for (i, j), c in d_ref.coeffs.items():
                assert abs(F[i, j] - c) <= tol
                assert abs(F[j, i] + c) <= tol
            listed = set(d_ref.coeffs)
            rest = [F[i, j] for i in range(5) for j in range(i + 1, 5) if (i, j) not in listed]
            assert max(map(abs, rest)) <= tol
    np.testing.assert_array_equal(exterior_derivative_stack(contact_covector, pts[0]), dw[0])


def test_complex_step_exterior_derivative_of_a_polynomial_form():
    alpha = _poly_one_form()

    def components(q):
        x, y, z, a, b = np.moveaxis(q, -1, 0)
        return np.stack([z * y, x * x, a * b, y, x * z], axis=-1)

    pts = sample_chart_points(10, label="test.cstep.poly")
    dw = exterior_derivative_stack(components, pts)
    for p, F in zip(pts, dw):
        d_fd = exterior_derivative(alpha, p)
        for (i, j), c in d_fd.coeffs.items():
            assert abs(F[i, j] - c) < 1e-8


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

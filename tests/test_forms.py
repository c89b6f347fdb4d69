"""Tensor calculus: brackets, Lie derivatives of symmetric tensors, d."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from saucer.chart import contact_covector
from saucer.forms import (FieldStack, VectorField, bracket, brackets, complex_step_derivative,
                          constant_field, exterior_derivative_stack, lie_derivative_stack,
                          lie_derivative_symtensor, SymTensorField)
from saucer.maneuvers import ATTACKING_METRIC_FIELD, LANDING_METRIC_FIELD, QUARTIC_FIELD
from saucer.sampling import sample_vectors
from saucer.symmetry import CONTACT_TENSOR

#: Step of the test-local central differences.
FD_STEP = 1e-5


def _poly_value(p: np.ndarray) -> np.ndarray:
    x, y, z, a, b = np.moveaxis(p, -1, 0)
    return np.stack([y, -x, x * z, 0.5 * b, a * a], axis=-1)


def _poly_jacobian(p: np.ndarray) -> np.ndarray:
    """The closed-form Jacobian of `_poly_value`, the reference for its complex step."""
    x, y, z, a, b = np.moveaxis(p, -1, 0)
    J = np.zeros(p.shape + (5,))
    J[..., 0, 1], J[..., 1, 0], J[..., 3, 4] = 1.0, -1.0, 0.5
    J[..., 2, 0], J[..., 2, 2], J[..., 4, 3] = z, x, 2.0 * a
    return J


def _poly_field() -> VectorField:
    return VectorField("poly-field", _poly_value)


def _zfield() -> VectorField:
    def value(p: np.ndarray) -> np.ndarray:
        x, y, z, a, b = np.moveaxis(p, -1, 0)
        return np.stack([a, np.zeros_like(x), y * y, -b, x], axis=-1)

    return VectorField("zfield", value)


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

    for p in sample_vectors(10, 5, label="test.cartan"):
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
    Z = _zfield()
    for p in sample_vectors(10, 5, label="test.jacobi"):
        assert np.max(np.abs(bracket(X, Y, p) + bracket(Y, X, p))) < 1e-12
        cyc = (bracket_of(X, Y, Z, p) + bracket_of(Y, Z, X, p)
               + bracket_of(Z, X, Y, p))
        assert np.max(np.abs(cyc)) < 1e-6


def _central_jacobian(fn, p: np.ndarray) -> np.ndarray:
    """J[m, i] = d fn^m / dx^i at one point, by central differences."""
    h = FD_STEP * max(1.0, float(np.linalg.norm(p)))
    return np.stack([(fn(p + h * e) - fn(p - h * e)) / (2.0 * h) for e in np.eye(len(p))],
                    axis=-1)


def bracket_of(A: VectorField, B: VectorField, C: VectorField,
               p: np.ndarray) -> np.ndarray:
    """[[A, B], C](p); the inner bracket's Jacobian by central differences."""
    def inner(q):
        return bracket(A, B, q)

    return C.jacobian(p) @ inner(p) - _central_jacobian(inner, p) @ C.value(p)


def test_symtensor_lie_derivative_directional_term():
    """For a constant field the Lie derivative reduces to X^m d_m S."""
    def gval(p: np.ndarray) -> np.ndarray:
        G = np.zeros(p.shape + (5,), dtype=np.result_type(p, float))
        G[..., 0, 0] = p[..., 3] ** 2
        G[..., 0, 1] = G[..., 1, 0] = p[..., 2]
        return G

    def gder(p: np.ndarray) -> np.ndarray:
        dG = np.zeros(p.shape + (5, 5))
        dG[..., 3, 0, 0] = 2.0 * p[..., 3]
        dG[..., 2, 0, 1] = dG[..., 2, 1, 0] = 1.0
        return dG

    S = SymTensorField("g-test", gval)
    X = constant_field("dir", [0.0, 0.0, 1.0, 2.0, 0.0])
    pts = sample_vectors(10, 5, label="test.liesym")
    np.testing.assert_allclose(S.point_derivative(pts), gder(pts), rtol=0.0, atol=1e-14)
    lie = lie_derivative_stack(X.value(pts), X.jacobian(pts), S.value(pts),
                               S.point_derivative(pts))
    for p, L in zip(pts, lie):
        expected = np.zeros((5, 5))
        expected[0, 0] = 2.0 * p[3] * 2.0
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.max(np.abs(L - expected)) < 1e-9
        np.testing.assert_array_equal(lie_derivative_symtensor(X, S, p), L)


def _landing_metric_derivative(p: np.ndarray) -> np.ndarray:
    """dG[..., m, i, j] = d(G_ij)/dx^m of the landing metric, written out."""
    a, b = p[..., 3], p[..., 4]
    dG = np.zeros(p.shape + (5, 5))
    dG[..., 3, 0, 4] = dG[..., 3, 4, 0] = 2.0 * a
    dG[..., 3, 0, 3] = dG[..., 3, 3, 0] = -b
    dG[..., 3, 1, 4] = dG[..., 3, 4, 1] = b
    dG[..., 4, 0, 3] = dG[..., 4, 3, 0] = -a
    dG[..., 4, 1, 3] = dG[..., 4, 3, 1] = -2.0 * b
    dG[..., 4, 1, 4] = dG[..., 4, 4, 1] = a
    return dG


def _contact_derivative(p: np.ndarray) -> np.ndarray:
    """dS[..., m, i] of w0: the only varying components are w0_x = -a and w0_y = -b."""
    dS = np.zeros(p.shape + (5,))
    dS[..., 3, 0] = dS[..., 4, 1] = -1.0
    return dS


#: The closed forms the complex-step point derivatives replaced; the other
#: tensors are constant.
_CLOSED_FORM_DERIVATIVES = {"landing-metric": _landing_metric_derivative,
                            "w0": _contact_derivative}


@pytest.mark.parametrize("S", [LANDING_METRIC_FIELD, CONTACT_TENSOR,
                               ATTACKING_METRIC_FIELD, QUARTIC_FIELD],
                         ids=lambda S: S.name)
def test_stacked_symtensor_fields_equal_pointwise_ones(S):
    pts = sample_vectors(40, 5, label="test.stacked-symtensor")
    T, dT = S.value(pts), S.point_derivative(pts)
    rank = S.value(pts[0]).ndim
    assert T.shape == (40,) + (5,) * rank
    assert dT.shape == (40, 5) + (5,) * rank
    np.testing.assert_array_equal(T, [S.value(p) for p in pts])
    np.testing.assert_array_equal(dT, [S.point_derivative(p) for p in pts])
    # the complex step against the closed form it replaced
    reference = _CLOSED_FORM_DERIVATIVES.get(S.name)
    want = reference(pts) if reference else np.zeros(dT.shape)
    np.testing.assert_allclose(dT, want, rtol=0.0, atol=1e-14)


def test_complex_step_exterior_derivative_of_the_contact_form():
    # dw0 = dx ^ da + dy ^ db to roundoff; central differences agree to
    # their own truncation level
    exact = np.zeros((5, 5))
    exact[0, 3] = exact[1, 4] = 1.0
    exact = exact - exact.T
    pts = sample_vectors(40, 5, label="test.cstep")
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

    pts = sample_vectors(10, 5, label="test.cstep.poly")
    dw = exterior_derivative_stack(components, pts)
    for (x, y, z, a, b), F in zip(pts, dw):
        grad = np.zeros((5, 5))   # grad[i, j] = d_i w_j
        grad[1, 0], grad[2, 0] = z, y
        grad[0, 1] = 2.0 * x
        grad[3, 2], grad[4, 2] = b, a
        grad[1, 3] = 1.0
        grad[0, 4], grad[2, 4] = z, x
        np.testing.assert_allclose(F, grad - grad.T, rtol=0.0, atol=1e-14)


def test_complex_step_jacobian_matches_the_closed_form():
    X = _poly_field()
    pts = sample_vectors(30, 5, label="test.poly-jacobian")
    np.testing.assert_allclose(X.jacobian(pts), _poly_jacobian(pts), rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(X.jacobian(pts), [X.jacobian(p) for p in pts])
    np.testing.assert_array_equal(constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0]).jacobian(pts),
                                  np.zeros((30, 5, 5)))


def test_stacked_brackets_equal_pointwise_brackets():
    X, Z = _poly_field(), _zfield()
    Y = constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0])
    pts = sample_vectors(30, 5, label="test.stacked-bracket")
    for A, B in ((X, Y), (Z, X), (Z, Y)):
        stacked = bracket(A, B, pts)
        assert stacked.shape == (30, 5)
        np.testing.assert_array_equal(stacked, [bracket(A, B, p) for p in pts])


def test_bracket_table_equals_pairwise_brackets():
    fields = (_poly_field(), constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0]), _zfield())
    pts = sample_vectors(30, 5, label="test.bracket-table")
    V = np.stack([X.value(pts) for X in fields], axis=1)
    J = np.stack([X.jacobian(pts) for X in fields], axis=1)
    B = brackets(V, J)
    assert B.shape == (30, 3, 3, 5)
    for i, X in enumerate(fields):
        for j, Y in enumerate(fields):
            np.testing.assert_allclose(B[:, i, j], bracket(X, Y, pts), rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(B[:, i, j], -B[:, j, i])
    for k in range(len(pts)):
        np.testing.assert_array_equal(B[k], brackets(V[k], J[k]))


def test_field_stack_rows_are_the_single_fields():
    fields = (_poly_field(), constant_field("ey", [0.0, 1.0, 0.0, 0.0, 0.0]), _zfield())
    stack = FieldStack.of(*fields)
    pts = sample_vectors(30, 5, label="test.field-stack")
    assert len(stack) == 3 and stack.ids == ("poly-field", "ey", "zfield")
    V, J = stack.values(pts), stack.jacobians(pts)
    assert V.shape == (30, 3, 5) and J.shape == (30, 3, 5, 5)
    for i, X in enumerate(fields):
        # the stack's rows, and each row as a field of its own, are X bit for bit
        for got_v, got_j in ((V[:, i], J[:, i]), (stack[i].value(pts), stack[i].jacobian(pts))):
            np.testing.assert_array_equal(got_v, X.value(pts), err_msg=X.id)
            np.testing.assert_array_equal(got_j, X.jacobian(pts), err_msg=X.id)
        assert stack[i].id == X.id
    assert [X.id for X in stack] == list(stack.ids)
    values, B = stack.brackets(pts)
    np.testing.assert_array_equal(values, V)
    for i, X in enumerate(fields):
        for j, Y in enumerate(fields):
            np.testing.assert_allclose(B[:, i, j], bracket(X, Y, pts), rtol=0.0, atol=1e-14)
    for k, p in enumerate(pts):
        np.testing.assert_array_equal(stack.values(p), V[k])
        np.testing.assert_array_equal(stack.jacobians(p), J[k])
        np.testing.assert_array_equal(stack.brackets(p)[1], B[k])


def test_complex_step_rejects_a_value_function_that_drops_the_imaginary_part():
    def as_float(p):
        return np.asarray(p, dtype=float) * 2.0

    def real_buffer(p):
        out = np.zeros(p.shape)
        out[..., 0] = p[..., 1] * p[..., 2]
        return out

    p = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    for fn in (as_float, real_buffer):
        with pytest.raises(np.exceptions.ComplexWarning):
            complex_step_derivative(fn, p)
        with pytest.raises(np.exceptions.ComplexWarning):
            VectorField("real", fn).jacobian(p)
    with pytest.raises(np.exceptions.ComplexWarning):
        SymTensorField("real", real_buffer).point_derivative(p)
    # the error is confined to the call
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        as_float(p + 1j)
    assert [w.category for w in seen] == [np.exceptions.ComplexWarning]

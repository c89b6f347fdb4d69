"""The quartic invariant, its polarization, and the Sym^3 group action."""
from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import gl2

comp = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
vec4 = st.tuples(comp, comp, comp, comp).map(np.array)
mat2 = st.tuples(comp, comp, comp, comp).map(
    lambda q: np.array(q).reshape(2, 2))


def _invertible(alpha, floor=0.1):
    return abs(np.linalg.det(alpha)) > floor


@given(vec4)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_quartic_routes_agree(X):
    lhs = gl2.quartic_upsilon(X)
    rhs = gl2.quartic_upsilon_det(X)
    scale = max(1.0, np.linalg.norm(X) ** 4)
    assert abs(lhs - rhs) <= 1e-10 * scale


@given(vec4)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_endomorphism_spinor_route(X):
    closed = gl2.endomorphism_L(X)
    spinor = gl2.endomorphism_L_spinor(X)
    np.testing.assert_allclose(spinor, closed,
                               atol=1e-12 * max(1.0, np.linalg.norm(X) ** 2))
    assert abs(np.trace(closed)) < 1e-12 * max(1.0, np.linalg.norm(X) ** 2)


@given(vec4)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_polarization_diagonal(X):
    diag = gl2.upsilon_polarized(X, X, X, X)
    scale = max(1.0, np.linalg.norm(X) ** 4)
    assert abs(diag - gl2.quartic_upsilon(X)) <= 1e-8 * scale


def test_polarization_is_symmetric():
    rng = np.random.default_rng(11)
    args = [rng.normal(size=4) for _ in range(4)]
    base = gl2.upsilon_polarized(*args)
    shuffled = gl2.upsilon_polarized(args[2], args[0], args[3], args[1])
    assert abs(base - shuffled) < 1e-10


def test_upsilon_tensor_matches_quartic_and_is_symmetric():
    T = gl2.UPSILON_TENSOR
    assert T.shape == (4, 4, 4, 4)
    for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 2, 1, 0)):
        np.testing.assert_allclose(np.transpose(T, perm), T, atol=0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.normal(size=4)
        quad = np.einsum("ijkl,i,j,k,l->", T, X, X, X, X)
        assert abs(quad - gl2.quartic_upsilon(X)) < 1e-9


def test_upsilon_tensor_equals_the_polarization_of_every_basis_quadruple():
    eye = np.eye(4)
    for i, j, k, l in itertools.product(range(4), repeat=4):
        want = gl2.upsilon_polarized(eye[i], eye[j], eye[k], eye[l])
        assert abs(gl2.UPSILON_TENSOR[i, j, k, l] - want) <= 1e-15


@given(mat2, mat2)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_action_is_a_homomorphism(alpha, beta):
    if not (_invertible(alpha) and _invertible(beta)):
        return
    lhs = gl2.gl2_action(alpha @ beta)
    rhs = gl2.gl2_action(alpha) @ gl2.gl2_action(beta)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, np.abs(rhs).max()))


@given(mat2, vec4)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_quartic_is_relative_invariant(alpha, X):
    if not _invertible(alpha):
        return
    rho = gl2.gl2_action(alpha)
    lhs = gl2.quartic_upsilon(rho @ X)
    rhs = np.linalg.det(alpha) ** 6 * gl2.quartic_upsilon(X)
    scale = max(1.0, abs(rhs), np.abs(rho @ X).max() ** 4)
    assert abs(lhs - rhs) <= 1e-8 * scale


def test_action_derivative_is_leibniz_linearization():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    eps = 1e-6
    plus = gl2.gl2_action(np.eye(2) + eps * A)
    minus = gl2.gl2_action(np.eye(2) - eps * A)
    quotient = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(gl2.gl2_action_derivative(A), quotient,
                               atol=1e-8)


def _action_reference(alpha):
    """rho(alpha) column by column, as it was first written."""
    rho = np.empty((4, 4))
    for col in range(4):
        T = gl2.spinor_from_vector(np.eye(4)[col])
        rho[:, col] = gl2.vector_from_spinor(
            np.einsum("Aa,Bb,Cc,abc->ABC", alpha, alpha, alpha, T))
    return rho


def _action_derivative_reference(A):
    """d rho(A) column by column, one einsum per spinor slot."""
    out = np.empty((4, 4))
    for col in range(4):
        T = gl2.spinor_from_vector(np.eye(4)[col])
        out[:, col] = gl2.vector_from_spinor(np.einsum("Aa,aBC->ABC", A, T)
                                             + np.einsum("Bb,AbC->ABC", A, T)
                                             + np.einsum("Cc,ABc->ABC", A, T))
    return out


def test_action_and_derivative_equal_the_column_loops():
    rng = np.random.default_rng(20)
    for _ in range(20):
        alpha = rng.uniform(-1.0, 1.0, size=(2, 2))
        A = rng.uniform(-1.0, 1.0, size=(2, 2))
        rho = gl2.gl2_action(alpha)
        assert rho.flags.c_contiguous
        np.testing.assert_array_equal(rho, _action_reference(alpha))
        np.testing.assert_array_equal(gl2.gl2_action_derivative(A),
                                      _action_derivative_reference(A))


def test_classification_on_the_variety():
    assert gl2.classify_direction(gl2.cubic_point(0.7)) is gl2.NullClass.TYPE_N
    assert gl2.classify_direction(
        gl2.tangent_point(0.7, 1.3)) is gl2.NullClass.TYPE_II
    assert gl2.classify_direction(
        np.array([1.0, 0.0, 0.0, 1.0])) is gl2.NullClass.NOT_NULL


def test_classification_published_example():
    # (1, 2, 4, 8) sits on the cubic cone at parameter 2.
    assert gl2.classify_direction(
        np.array([1.0, 2.0, 4.0, 8.0])) is gl2.NullClass.TYPE_N


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        gl2.classify_direction(np.zeros(4))


#: nu(0.5) + 1e-6 e1: type N within a 1e-3 tolerance, only type II within 1e-9.
NEAR_CUBIC = gl2.cubic_point(0.5) + 1e-6 * np.eye(4)[0]


@pytest.mark.parametrize("tol,expected", [(1e-3, gl2.NullClass.TYPE_N),
                                          (gl2.CLASSIFY_TOL, gl2.NullClass.TYPE_II)])
def test_classify_direction_uses_its_tolerance(tol, expected):
    assert gl2.NULL_CLASSES[int(gl2.classify_directions(NEAR_CUBIC[None], tol=tol)[0])] is expected
    assert gl2.classify_direction(NEAR_CUBIC, tol=tol) is expected


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-100, 1.0, 1e100, 1e200, 2.0 ** 1000])
def test_classification_does_not_depend_on_the_scale(scale):
    # each row is scaled by a power of two before the relative tests
    X = np.array([gl2.cubic_point(1.0), gl2.cubic_point(0.0), gl2.tangent_point(0.7, 1.3),
                  [1.0, 0.0, 0.0, 1.0], NEAR_CUBIC])
    np.testing.assert_array_equal(gl2.classify_directions(X * scale), [0, 0, 1, 2, 1])
    with pytest.raises(ValueError):
        gl2.classify_directions(np.vstack([X * scale, np.zeros(4)]))


def test_a_subnormal_direction_is_classified():
    assert gl2.classify_direction(np.full(4, 5e-324)) is gl2.NullClass.TYPE_N
    assert gl2.classify_direction(np.array([0.0, 0.0, 0.0, 5e-324])) is gl2.NullClass.TYPE_N


def test_action_rejects_singular_matrix():
    with pytest.raises(ValueError):
        gl2.gl2_action(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        gl2.gl2_action(np.stack([np.eye(2), np.zeros((2, 2))]))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (5, 3, 3), (2,)])
def test_action_rejects_a_matrix_that_is_not_2x2(shape):
    with pytest.raises(ValueError, match=r"2x2 .*" + re.escape(str(shape))):
        gl2.gl2_action(np.ones(shape))


def test_stacked_action_equals_the_single_calls():
    alpha = np.random.default_rng(43).uniform(-1.0, 1.0, (200, 2, 2))
    rho = gl2.gl2_action(alpha)
    assert rho.shape == (200, 4, 4) and rho.flags["C_CONTIGUOUS"]
    for a, r in zip(alpha, rho):
        np.testing.assert_array_equal(gl2.gl2_action(a), r)
    np.testing.assert_array_equal(gl2.gl2_action(alpha.reshape(10, 20, 2, 2)),
                                  rho.reshape(10, 20, 4, 4))


def test_bilinears_and_two_form_on_cubic_frame():
    # Tangent vectors along the cubic pair to zero against all three bilinears.
    t = 0.9
    X = gl2.cubic_point(t)
    V = gl2.cubic_velocity(t)
    assert max(abs(g) for g in gl2.bilinears(X, X)) < 1e-12
    omega = X @ gl2.OMEGA_MATRIX @ V
    assert abs(omega) < 1e-12


def _classify_pointwise(X, tol=gl2.CLASSIFY_TOL):
    """The one-vector classifier as it was written before it was stacked."""
    norm = float(np.linalg.norm(X))
    g = gl2.bilinears(X, X)
    if max(abs(v) for v in g) < tol * norm ** 2:
        return gl2.NullClass.TYPE_N
    if abs(gl2.quartic_upsilon(X)) < tol * norm ** 4:
        return gl2.NullClass.TYPE_II
    return gl2.NullClass.NOT_NULL


def _spinor_route_pointwise(X):
    """L by the explicit loop over spinor indices."""
    T = gl2.spinor_from_vector(X)
    L = np.zeros((2, 2))
    for A, H in itertools.product((0, 1), repeat=2):
        L[A, H] = sum(T[A, B, C] * T[D, E, F] * gl2.EPSILON[C, D]
                      * gl2.EPSILON[B, E] * gl2.EPSILON[F, H]
                      for B, C, D, E, F in itertools.product((0, 1), repeat=5))
    return L


def test_stacked_classifier_matches_the_pointwise_one():
    rng = np.random.default_rng(41)
    t = rng.uniform(-1.5, 1.5, 1000)
    s = rng.uniform(0.1, 2.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    X = np.concatenate([s[:300, None] * gl2.cubic_point(t[:300]),
                        gl2.tangent_point(t[300:600], s[300:600]),
                        rng.uniform(-2.0, 2.0, (400, 4))])
    codes = gl2.classify_directions(X)
    got = [gl2.NULL_CLASSES[c] for c in codes]
    assert got == [_classify_pointwise(v) for v in X]
    assert got == [gl2.classify_direction(v) for v in X]
    np.testing.assert_array_equal(np.bincount(codes), [300, 300, 400])
    with pytest.raises(ValueError):
        gl2.classify_directions(np.vstack([X[:3], np.zeros(4)]))


def test_stacked_gl2_routes_equal_pointwise_calls():
    X = np.random.default_rng(42).uniform(-2.0, 2.0, (200, 4))
    np.testing.assert_array_equal(gl2.upsilon_polarized(X, X, X, X),
                                  [gl2.upsilon_polarized(v, v, v, v) for v in X])
    Y = X[::-1]
    np.testing.assert_array_equal(gl2.upsilon_polarized(X, Y, X, Y),
                                  [gl2.upsilon_polarized(v, w, v, w) for v, w in zip(X, Y)])
    for route in (gl2.endomorphism_L, gl2.endomorphism_L_spinor, gl2.quartic_upsilon_det):
        np.testing.assert_array_equal(route(X), [route(v) for v in X])
    spinor = gl2.endomorphism_L_spinor(X)
    np.testing.assert_allclose(spinor, [_spinor_route_pointwise(v) for v in X],
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(spinor, gl2.endomorphism_L(X), rtol=0, atol=1e-12)


def test_bilinear_diagonals_are_the_bilinears_on_the_diagonal():
    X = np.random.default_rng(43).uniform(-2.0, 2.0, (200, 4))
    stacked = gl2.bilinear_diagonals(X)
    for k, v in enumerate(X):
        single = gl2.bilinear_diagonals(v)
        assert tuple(g[k] for g in stacked) == single
        np.testing.assert_allclose(single, gl2.bilinears(v, v), rtol=0,
                                   atol=1e-14 * float(v @ v))
    t = np.linspace(-1.5, 1.5, 7)
    for g in gl2.bilinear_diagonals(gl2.cubic_point(t)):
        np.testing.assert_array_equal(g, np.zeros_like(t))

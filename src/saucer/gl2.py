"""Irreducible GL(2,R) calculus on R^4.

R^4 is identified with binary cubics / third symmetric powers of spinors:
X = (X1, X2, X3, X4) corresponds to the totally symmetric Psi with
Psi^111 = X1, Psi^112 = X2, Psi^122 = X3, Psi^222 = X4, or to the cubic
P(s, t) = X1 s^3 + 3 X2 s^2 t + 3 X3 s t^2 + X4 t^3.

The module carries the natural endomorphism L(X), the invariant quartic
Upsilon = det L, the bilinear module (g1, g2, g3), the invariant 2-form, the
GL(2,R) action on Sym^3, and the null-direction classification: the twisted
cubic nu(t) = (1, t, t^2, t^3) is the type-N locus and its tangent variety is
the Upsilon-null cone.
"""
from __future__ import annotations

import enum
import itertools

import numpy as np

#: Spinor volume form, eps_{12} = +1.
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])

CLASSIFY_TOL = 1e-9


class NullClass(enum.Enum):
    TYPE_N = "TypeN"
    TYPE_II = "TypeII"
    NOT_NULL = "NotNull"


def spinor_from_vector(X: np.ndarray) -> np.ndarray:
    """Totally symmetric (2,2,2) tensor for X; entry by count of index 1."""
    X = np.asarray(X, dtype=float)
    T = np.empty((2, 2, 2))
    for idx in itertools.product((0, 1), repeat=3):
        T[idx] = X[sum(idx)]
    return T


def vector_from_spinor(T: np.ndarray) -> np.ndarray:
    return np.array([T[0, 0, 0], T[0, 0, 1], T[0, 1, 1], T[1, 1, 1]])


def endomorphism_L(X: np.ndarray) -> np.ndarray:
    """The natural trace-free 2x2 endomorphism of X (closed form)."""
    x1, x2, x3, x4 = np.asarray(X, dtype=float)
    return np.array([
        [x2 * x3 - x1 * x4, -2.0 * x2 ** 2 + 2.0 * x1 * x3],
        [2.0 * x3 ** 2 - 2.0 * x2 * x4, -x2 * x3 + x1 * x4],
    ])


def endomorphism_L_spinor(X: np.ndarray) -> np.ndarray:
    """L via the spinor contraction Psi Psi eps eps eps; cross-check route."""
    T = spinor_from_vector(X)
    L = np.zeros((2, 2))
    rng = (0, 1)
    for A, H in itertools.product(rng, rng):
        total = 0.0
        for B, C, D, E, F in itertools.product(rng, repeat=5):
            total += (T[A, B, C] * T[D, E, F]
                      * EPSILON[C, D] * EPSILON[B, E] * EPSILON[F, H])
        L[A, H] = total
    return L


def quartic_upsilon(X: np.ndarray) -> "float | np.ndarray":
    """Upsilon(X) = 3 x2^2 x3^2 - 4 x1 x3^3 - 4 x2^3 x4 + 6 x1 x2 x3 x4 - x1^2 x4^2.

    X is one vector (4,), giving a float, or a stack (..., 4), giving (...).
    The polynomial is evaluated in factored form, with products only.
    """
    X = np.asarray(X, dtype=float)
    x1, x2, x3, x4 = np.moveaxis(X, -1, 0)
    value = (x3 * x3 * (3.0 * x2 * x2 - 4.0 * x1 * x3)
             + x4 * (x2 * (6.0 * x1 * x3 - 4.0 * x2 * x2) - x1 * x1 * x4))
    return float(value) if X.ndim == 1 else value


def quartic_upsilon_det(X: np.ndarray) -> float:
    """Upsilon(X) as det L(X); independent route, tested against the polynomial."""
    return float(np.linalg.det(endomorphism_L(X)))


def upsilon_polarized(X1, X2, X3, X4) -> float:
    """The symmetric 4-linear extension of Upsilon by finite polarization."""
    args = [np.asarray(v, dtype=float) for v in (X1, X2, X3, X4)]
    total = 0.0
    for r in range(1, 5):
        for subset in itertools.combinations(range(4), r):
            s = sum(args[i] for i in subset)
            total += (-1.0) ** (4 - r) * quartic_upsilon(s)
    return total / 24.0


def _build_upsilon_tensor() -> np.ndarray:
    eye = np.eye(4)
    T = np.empty((4, 4, 4, 4))
    for i, j, k, l in itertools.product(range(4), repeat=4):
        T[i, j, k, l] = upsilon_polarized(eye[i], eye[j], eye[k], eye[l])
    return T


#: Upsilon as a constant symmetric rank-4 tensor over the quartic-mode coframe.
UPSILON_TENSOR = _build_upsilon_tensor()

#: Bilinear module as symmetric matrices: g_i(X, Y) = X^T G_i Y.
G1_MATRIX = np.zeros((4, 4))
G1_MATRIX[0, 2] = G1_MATRIX[2, 0] = 0.5
G1_MATRIX[1, 1] = -1.0

G2_MATRIX = np.zeros((4, 4))
G2_MATRIX[2, 2] = 1.0
G2_MATRIX[1, 3] = G2_MATRIX[3, 1] = -0.5

G3_MATRIX = np.zeros((4, 4))
G3_MATRIX[0, 3] = G3_MATRIX[3, 0] = 0.5
G3_MATRIX[1, 2] = G3_MATRIX[2, 1] = -0.5

BILINEAR_MATRICES = (G1_MATRIX, G2_MATRIX, G3_MATRIX)


def bilinears(X: np.ndarray, Y: np.ndarray) -> tuple[float, float, float]:
    """(g1, g2, g3)(X, Y); on the diagonal g1 = X1 X3 - X2^2 and so on."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return tuple(float(X @ G @ Y) for G in BILINEAR_MATRICES)


#: Invariant 2-form omega(X, Y) = X1 Y4 - X4 Y1 - 3 X2 Y3 + 3 X3 Y2.
OMEGA_MATRIX = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -3.0, 0.0],
    [0.0, 3.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


def invariant_two_form(X: np.ndarray, Y: np.ndarray) -> float:
    return float(np.asarray(X, dtype=float) @ OMEGA_MATRIX @ np.asarray(Y, dtype=float))


def gl2_action(alpha: np.ndarray) -> np.ndarray:
    """rho(alpha): the Sym^3 action pulled back to R^4; rho(ab) = rho(a)rho(b)."""
    alpha = np.asarray(alpha, dtype=float)
    assert alpha.shape == (2, 2)
    if abs(np.linalg.det(alpha)) < 1e-300:
        raise ValueError("alpha must be invertible")
    rho = np.empty((4, 4))
    eye = np.eye(4)
    for col in range(4):
        T = spinor_from_vector(eye[col])
        T = np.einsum("Aa,Bb,Cc,abc->ABC", alpha, alpha, alpha, T)
        rho[:, col] = vector_from_spinor(T)
    return rho


def gl2_action_derivative(A: np.ndarray) -> np.ndarray:
    """d/dt rho(exp(tA)) at t = 0: the Leibniz action on Sym^3."""
    A = np.asarray(A, dtype=float)
    out = np.empty((4, 4))
    eye = np.eye(4)
    for col in range(4):
        T = spinor_from_vector(eye[col])
        dT = (np.einsum("Aa,aBC->ABC", A, T)
              + np.einsum("Bb,AbC->ABC", A, T)
              + np.einsum("Cc,ABc->ABC", A, T))
        out[:, col] = vector_from_spinor(dT)
    return out


def cubic_point(t: float) -> np.ndarray:
    return np.array([1.0, t, t ** 2, t ** 3])


def cubic_velocity(t: float) -> np.ndarray:
    return np.array([0.0, 1.0, 2.0 * t, 3.0 * t ** 2])


def tangent_point(t: float, s: float) -> np.ndarray:
    return cubic_point(t) + s * cubic_velocity(t)


def classify_direction(X: np.ndarray, tol: float = CLASSIFY_TOL) -> NullClass:
    """Type N on the cubic cone, type II on its tangent variety, else not null.

    Thresholds are relative: |g_i| against |X|^2, |Upsilon| against |X|^4.
    """
    X = np.asarray(X, dtype=float)
    norm = float(np.linalg.norm(X))
    if norm == 0.0:
        raise ValueError("cannot classify the zero vector")
    g = bilinears(X, X)
    if max(abs(v) for v in g) < tol * norm ** 2:
        return NullClass.TYPE_N
    if abs(quartic_upsilon(X)) < tol * norm ** 4:
        return NullClass.TYPE_II
    return NullClass.NOT_NULL

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
import math

import numpy as np

from .forms import leibniz_stack

#: Spinor volume form, eps_{12} = +1.
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])

CLASSIFY_TOL = 1e-9


class NullClass(enum.Enum):
    TYPE_N = "TypeN"
    TYPE_II = "TypeII"
    NOT_NULL = "NotNull"


#: Slot of X holding the spinor entry T[A, B, C]: the count of index 1.
_SPINOR_SLOTS = np.indices((2, 2, 2)).sum(axis=0)


def spinor_from_vector(X: np.ndarray) -> np.ndarray:
    """Totally symmetric (2,2,2) tensor for X (4,), or (..., 2, 2, 2) for a stack."""
    return np.asarray(X, dtype=float)[..., _SPINOR_SLOTS]


def vector_from_spinor(T: np.ndarray) -> np.ndarray:
    """X (4,) for a symmetric (2, 2, 2) tensor, or (..., 4) for a stack."""
    return np.stack([T[..., 0, 0, 0], T[..., 0, 0, 1], T[..., 0, 1, 1], T[..., 1, 1, 1]],
                    axis=-1)


def endomorphism_L(X: np.ndarray) -> np.ndarray:
    """The natural trace-free 2x2 endomorphism of X (closed form).

    X is one vector (4,), giving (2, 2), or a stack (..., 4), giving (..., 2, 2);
    products only, so a stacked row equals the single call.
    """
    x1, x2, x3, x4 = np.moveaxis(np.asarray(X, dtype=float), -1, 0)
    return np.stack([
        np.stack([x2 * x3 - x1 * x4, -2.0 * x2 * x2 + 2.0 * x1 * x3], axis=-1),
        np.stack([2.0 * x3 * x3 - 2.0 * x2 * x4, -x2 * x3 + x1 * x4], axis=-1),
    ], axis=-2)


def endomorphism_L_spinor(X: np.ndarray) -> np.ndarray:
    """L via the spinor contraction Psi Psi eps eps eps; cross-check route.

    L[A, H] = T[A, B, C] T[D, E, F] eps[C, D] eps[B, E] eps[F, H], one
    einsum over one vector (4,) or a stack (..., 4).
    """
    T = spinor_from_vector(X)
    return np.einsum("...ABC,...DEF,CD,BE,FH->...AH", T, T, EPSILON, EPSILON, EPSILON)


def quartic_upsilon(X: np.ndarray) -> "float | np.ndarray":
    """Upsilon(X) = 3 x2^2 x3^2 - 4 x1 x3^3 - 4 x2^3 x4 + 6 x1 x2 x3 x4 - x1^2 x4^2.

    X is one vector (4,), giving a float, or a stack (..., 4), giving (...).
    The polynomial is evaluated in factored form, with products only.
    """
    X = np.asarray(X, dtype=float)
    x1, x2, x3, x4 = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
    value = (x3 * x3 * (3.0 * x2 * x2 - 4.0 * x1 * x3)
             + x4 * (x2 * (6.0 * x1 * x3 - 4.0 * x2 * x2) - x1 * x1 * x4))
    return float(value) if X.ndim == 1 else value


def quartic_upsilon_det(X: np.ndarray) -> "float | np.ndarray":
    """Upsilon(X) as det L(X); independent route, tested against the polynomial.

    One vector (4,) gives a float, a stack (..., 4) one stacked determinant.
    """
    value = np.linalg.det(endomorphism_L(X))
    return float(value) if np.ndim(value) == 0 else value


def upsilon_polarized(X1, X2, X3, X4) -> "float | np.ndarray":
    """The symmetric 4-linear extension of Upsilon by finite polarization.

    The arguments are vectors (4,), giving a float, or stacks (..., 4) that
    broadcast together, giving one value per row from 15 stacked quartic calls.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (X1, X2, X3, X4)))
    total = 0.0
    for r in range(1, 5):
        for subset in itertools.combinations(range(4), r):
            s = sum(args[i] for i in subset)
            total += (-1.0) ** (4 - r) * quartic_upsilon(s)
    return total / 24.0


#: Upsilon as a constant symmetric rank-4 tensor over the quartic-mode coframe:
#: `upsilon_polarized` on all 256 basis quadruples, in one stacked call.
UPSILON_TENSOR = upsilon_polarized(
    *np.eye(4)[np.indices((4,) * 4).reshape(4, -1)]).reshape(4, 4, 4, 4)

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
    """(g1, g2, g3)(X, Y); on the diagonal see `bilinear_diagonals`."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return tuple(float(X @ G @ Y) for G in BILINEAR_MATRICES)


def bilinear_diagonals(X: np.ndarray) -> tuple:
    """(g1, g2, g3)(X, X) = (X1 X3 - X2^2, X3^2 - X2 X4, X1 X4 - X2 X3).

    X is one vector (4,), giving three floats, or a stack (..., 4), giving
    three arrays (...); products only, so a stacked row equals the single call.
    """
    X = np.asarray(X, dtype=float)
    x1, x2, x3, x4 = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
    return x1 * x3 - x2 * x2, x3 * x3 - x2 * x4, x1 * x4 - x2 * x3


#: Invariant 2-form omega(X, Y) = X1 Y4 - X4 Y1 - 3 X2 Y3 + 3 X3 Y2.
OMEGA_MATRIX = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -3.0, 0.0],
    [0.0, 3.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


#: Spinor tensors of the four basis vectors of R^4, stacked (4, 2, 2, 2).
_SPINOR_BASIS = spinor_from_vector(np.eye(4))


def _columns(images: np.ndarray) -> np.ndarray:
    """The matrix (C order, so products with it round as before) whose
    column k is the image (4,) of basis vector k, from the rows of images;
    (..., 4, 4) for a stack of them."""
    return np.ascontiguousarray(np.swapaxes(images, -1, -2))


def gl2_action(alpha: np.ndarray) -> np.ndarray:
    """rho(alpha): the Sym^3 action pulled back to R^4; rho(ab) = rho(a)rho(b).

    alpha is one matrix (2, 2), giving (4, 4), or a stack (..., 2, 2), giving
    (..., 4, 4); a stacked matrix equals the single call bit for bit.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-2:] != (2, 2):
        raise ValueError(f"alpha must be a 2x2 matrix or a stack of them; got {alpha.shape}")
    if np.any(np.abs(np.linalg.det(alpha)) < 1e-300):
        raise ValueError("alpha must be invertible")
    T = np.einsum("...Aa,...Bb,...Cc,zabc->...zABC", alpha, alpha, alpha, _SPINOR_BASIS)
    return _columns(vector_from_spinor(T))


def gl2_action_derivative(A: np.ndarray) -> np.ndarray:
    """d/dt rho(exp(tA)) at t = 0: the Leibniz action of A on Sym^3.

    A acts on each spinor index, T[..a..] -> A[A, a] T[..a..], which is
    `forms.leibniz_stack` with the matrix A^T.
    """
    A = np.asarray(A, dtype=float)
    J = np.broadcast_to(A.T, (4, 2, 2))
    return _columns(vector_from_spinor(leibniz_stack(J, _SPINOR_BASIS, 0.0)))


def cubic_point(t) -> np.ndarray:
    """nu(t) = (1, t, t^2, t^3): (4,) for one parameter, (..., 4) for an array."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.ones_like(t), t, t * t, t * t * t], axis=-1)


def cubic_velocity(t) -> np.ndarray:
    """nu'(t) = (0, 1, 2 t, 3 t^2): (4,) for one parameter, (..., 4) for an array."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.zeros_like(t), np.ones_like(t), 2.0 * t, 3.0 * t * t], axis=-1)


def tangent_point(t, s) -> np.ndarray:
    """nu(t) + s nu'(t), for one (t, s) or arrays of them that broadcast."""
    return cubic_point(t) + np.asarray(s, dtype=float)[..., None] * cubic_velocity(t)


#: The classes in the order of the codes `classify_directions` returns.
NULL_CLASSES = (NullClass.TYPE_N, NullClass.TYPE_II, NullClass.NOT_NULL)


def classify_directions(X: np.ndarray, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Codes into NULL_CLASSES for a stack of directions (m, 4), as (m,).

    Type N on the cubic cone, type II on its tangent variety, else not null.
    Thresholds are relative: |g_i| against |X|^2, |Upsilon| against |X|^4;
    X must be finite, and tol finite and positive. Each row is first scaled
    by a power of two to a largest |component| in [1/2, 1), which changes
    no class of a normal input and keeps |X|^4 from overflowing or
    underflowing at the ends of the float range.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("cannot classify a direction that is not finite")
    X = np.ldexp(X, -np.frexp(np.max(np.abs(X), axis=-1))[1][..., None])
    norm2 = np.einsum("...i,...i->...", X, X)
    if np.any(norm2 == 0.0):
        raise ValueError("cannot classify the zero vector")
    g1, g2, g3 = (np.abs(g) for g in bilinear_diagonals(X))
    type_n = np.maximum(np.maximum(g1, g2), g3) < tol * norm2
    type_ii = np.abs(quartic_upsilon(X)) < tol * norm2 * norm2
    return np.where(type_n, 0, np.where(type_ii, 1, 2))


def classify_direction(X: np.ndarray, tol: float = CLASSIFY_TOL) -> NullClass:
    """The null class of one direction (4,); see `classify_directions`."""
    X = np.asarray(X, dtype=float)
    if X.shape != (4,):
        raise ValueError(f"expected one direction of 4 components, got shape {X.shape}")
    return NULL_CLASSES[int(classify_directions(X[None], tol)[0])]

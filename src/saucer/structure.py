"""Structural-tensor operators on the contact distribution.

The pair (metric, invariant 2-form) on the rank-4 distribution determines an
endomorphism K with K^2 = +Id (attacking: a paracomplex structure) or
K^2 = -Id after normalization (landing: a complex structure). This module
computes K from a pair of matrices, splits its eigenbundles, evaluates the
Levi pairing of the landing CR structure, and solves for the joint
infinitesimal stabilizer of a set of structural tensors.

The K-operators, the landing frame and the Levi form take one point (5,)
or a stack of points (m, 5), as the chart and form layers do: one point
gives floats and tuples, a stack gives arrays whose rows equal the
one-point results bit for bit.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import gl2
from .forms import leibniz_stack
from .maneuvers import attacking_metric, invariant_two_form_dist, landing_metric

KAPPA_SCALAR_TOL = 1e-8
STABILIZER_THRESHOLD = 1e-10
EIGEN_SPLIT_TOL = 1e-10
SPAN_TOL = 1e-8


class NotScalarSquare(ValueError):
    """Raised when (g^{-1} Omega)^2 is not a scalar multiple of the identity."""


@dataclasses.dataclass(frozen=True)
class KOperator:
    """K at one point (float, int) or at each point of a stack (arrays)."""
    matrix: np.ndarray                  # normalized endomorphism, matrix^2 = sign * Id
    square_scalar: float | np.ndarray   # lambda with (g^{-1} Omega)^2 = lambda Id
    sign: int | np.ndarray              # +1 paracomplex, -1 complex


def k_operator(g: np.ndarray, omega: np.ndarray,
               orientation: tuple[np.ndarray, complex] | None = None) -> KOperator:
    """Normalized K = g^{-1} Omega / sqrt|lambda|, with (g^{-1} Omega)^2 = lambda Id.

    g and omega are one pair of matrices (n, n) or stacks (m, n, n) that
    broadcast together. `orientation` picks the overall sign: a pair (v, mu),
    v of shape (n,) or (m, n), asking that v be an eigenvector of K with
    eigenvalue mu rather than -mu. Raises NotScalarSquare if any pair fails.
    """
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n = g.shape[-1]
    raw = np.linalg.solve(g, omega)
    sq = raw @ raw
    lam = np.trace(sq, axis1=-2, axis2=-1) / n
    off = np.linalg.norm(sq - lam[..., None, None] * np.eye(n), axis=(-2, -1))
    if np.any(off > KAPPA_SCALAR_TOL * np.maximum(1.0, np.abs(lam))):
        raise NotScalarSquare("K^2 is not scalar for this (g, omega) pair")
    if np.any(lam == 0.0):
        raise NotScalarSquare("K is nilpotent for this (g, omega) pair")
    K = raw / np.sqrt(np.abs(lam))[..., None, None]
    if orientation is not None:
        v, mu = orientation
        v = np.asarray(v, dtype=complex)[..., None]
        plus = np.linalg.norm((K @ v - mu * v)[..., 0], axis=-1)
        minus = np.linalg.norm((-K @ v - mu * v)[..., 0], axis=-1)
        K = np.where((minus < plus)[..., None, None], -K, K)
    if lam.ndim == 0:
        return KOperator(K, float(lam), 1 if lam > 0.0 else -1)
    return KOperator(K, lam, np.where(lam > 0.0, 1, -1))


def attacking_k_operator() -> KOperator:
    """K of the attacking pair, oriented so dx-directions get eigenvalue +1."""
    p = np.zeros(5)
    e0 = np.zeros(4)
    e0[0] = 1.0
    return k_operator(attacking_metric(p), invariant_two_form_dist(p),
                      orientation=(e0, 1.0))


def landing_frame_z(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex frame (Z1, Z2) of the landing structure over DIST_COFRAME.

    Z1 spans the +i eigendirection used to orient K; Z2 its partner. One
    point (5,) gives two (4,) vectors, a stack (m, 5) two (m, 4) stacks.
    """
    p = np.asarray(p, dtype=float)
    a, b = p[..., 3], p[..., 4]
    s = np.sqrt(1.0 + a * a + b * b)
    zero = np.zeros_like(a)
    Z1 = np.stack([zero, zero, 1j * (1.0 + a * a), s + 1j * a * b], axis=-1)
    Z2 = np.stack([1j * (1.0 + b * b), s - 1j * a * b, zero, zero], axis=-1)
    return Z1, Z2


def landing_k_operator(p: np.ndarray) -> KOperator:
    """K of the landing pair at one point (5,) or a stack (m, 5), oriented
    so K Z1 = +i Z1.

    The raw operator squares to -(1 + a^2 + b^2)^{-1} Id.
    """
    Z1, _ = landing_frame_z(p)
    return k_operator(landing_metric(p), invariant_two_form_dist(p),
                      orientation=(Z1, 1j))


def eigen_split(K: KOperator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the two eigenbundles of K.

    Paracomplex K: the +1 and -1 eigenspaces (real). Complex K: the +i and -i
    eigenspaces inside the complexification. Each keeps the singular
    values of its projector above `EIGEN_SPLIT_TOL` times the largest.
    """
    n = K.matrix.shape[0]
    if K.sign > 0:
        P_plus = 0.5 * (np.eye(n) + K.matrix)
        P_minus = 0.5 * (np.eye(n) - K.matrix)
    else:
        M = K.matrix.astype(complex)
        P_plus = 0.5 * (np.eye(n) - 1j * M)
        P_minus = 0.5 * (np.eye(n) + 1j * M)
    out = []
    for P in (P_plus, P_minus):
        U, s, _ = np.linalg.svd(P)
        rank = int(np.sum(s > EIGEN_SPLIT_TOL * s[0]))
        out.append(U[:, :rank])
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class LeviForm:
    """The Levi form at one point (complex, tuple) or a stack (arrays)."""
    matrix: np.ndarray                  # 2x2 Hermitian pairing in the (Z1, Z2) frame
    c_value: complex | np.ndarray       # the single independent entry C
    signature: tuple[int, int] | np.ndarray   # (pos, neg); (m, 2) over a stack


def levi_form(p: np.ndarray) -> LeviForm:
    """Levi pairing of the landing CR structure in the (Z1, Z2) frame, at
    one point (5,) or each point of a stack (m, 5).

    The raw pairing Omega(Z_A, conj(Z_B)) is antisymmetric-Hermitian with
    off-diagonal entry -C; the reported form is the Hermitian normalization
    [[0, -C], [-conj(C), 0]], of signature (1, 1).
    """
    Z1, Z2 = landing_frame_z(p)
    W = invariant_two_form_dist(p).astype(complex)
    C = -(Z1[..., None, :] @ W @ np.conj(Z2)[..., :, None])[..., 0, 0]
    M = np.zeros(C.shape + (2, 2), dtype=complex)
    M[..., 0, 1] = -C
    M[..., 1, 0] = -np.conj(C)
    eig = np.linalg.eigvalsh(M)
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(eig), axis=-1))[..., None]
    signature = np.stack([np.sum(eig > tol, axis=-1), np.sum(eig < -tol, axis=-1)], axis=-1)
    if C.ndim == 0:
        return LeviForm(M, complex(C), tuple(int(k) for k in signature))
    return LeviForm(M, C, signature)


# -- infinitesimal stabilizers ------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StabilizerSolution:
    dimension: int
    matrices: tuple[np.ndarray, ...]   # basis of endomorphisms Y
    residual: float                    # largest violation over the basis

    def contains(self, Y: np.ndarray) -> bool:
        """Whether Y lies in the solved span, to `SPAN_TOL` times max(1, |Y|)."""
        if self.dimension == 0:
            return float(np.linalg.norm(Y)) <= SPAN_TOL
        A = np.stack([M.ravel() for M in self.matrices], axis=1)
        coef, *_ = np.linalg.lstsq(A, np.asarray(Y, dtype=float).ravel(), rcond=None)
        mis = np.linalg.norm(A @ coef - Y.ravel())
        return mis <= SPAN_TOL * max(1.0, float(np.linalg.norm(Y)))


def _stabilizer_rows(S: np.ndarray, t_index: int, n_tensors: int) -> np.ndarray:
    """Coefficient block of Y . S - f_t S = 0 in the unknowns (vec Y, f_1..f_T).

    Column m * n + c is the Leibniz action of the unit matrix E_mc on S.
    """
    n = S.shape[0]
    units = np.eye(n * n).reshape(n * n, n, n)
    action = leibniz_stack(units, np.broadcast_to(S, units.shape[:1] + S.shape), 0.0)
    scales = np.zeros((S.size, n_tensors))
    scales[:, t_index] = -S.ravel()
    return np.hstack([action.reshape(n * n, -1).T, scales])


def solve_infinitesimal_stabilizer(tensors: Sequence[np.ndarray]) -> StabilizerSolution:
    """Joint conformal stabilizer of covariant tensors of any rank.

    Solves for endomorphisms Y and one scale f_S per tensor with Y acting
    by the Leibniz rule on each S equal to f_S * S; all tensors must share
    one frame. The nullspace is cut at `STABILIZER_THRESHOLD` times the
    largest singular value.
    """
    tensors = [np.asarray(S, dtype=float) for S in tensors]
    if not tensors:
        raise ValueError("need at least one tensor")
    n = tensors[0].shape[0]
    n_t = len(tensors)
    A = np.vstack([_stabilizer_rows(S, t, n_t) for t, S in enumerate(tensors)])
    _, sv, Vt = np.linalg.svd(A, full_matrices=True)
    cut = STABILIZER_THRESHOLD * sv[0]
    n_unknowns = n * n + n_t
    dim = n_unknowns - int(np.sum(sv > cut))
    basis = Vt[n_unknowns - dim:] if dim else Vt[:0]
    matrices = tuple(row[:n * n].reshape(n, n) for row in basis)
    residual = float(np.max(np.abs(A @ basis.T))) if dim else 0.0
    return StabilizerSolution(dim, matrices, residual)


# -- the five-parameter stabilizer of the attacking pair ----------------------

def _prop_matrices() -> tuple[np.ndarray, ...]:
    Y1 = np.diag([1.0, -1.0, 1.0, -1.0])
    Y2 = np.zeros((4, 4))
    Y2[0, 1] = 1.0
    Y2[2, 3] = -1.0
    Y3 = np.zeros((4, 4))
    Y3[1, 0] = 1.0
    Y3[3, 2] = -1.0
    Y4 = np.diag([1.0, 1.0, -1.0, -1.0])
    Y5 = np.eye(4)
    return Y1, Y2, Y3, Y4, Y5


#: Stabilizer basis of the quartic-mode pair (g's, omega), quartic-mode frame.
STABILIZER_BASIS = _prop_matrices()

#: Nonzero brackets among STABILIZER_BASIS, 0-based: [Y1,Y2]=2Y2, [Y1,Y3]=-2Y3,
#: [Y2,Y3]=Y1; Y4 and Y5 are central.
STABILIZER_TABLE = {
    (0, 1): {1: 2.0},
    (0, 2): {2: -2.0},
    (1, 2): {0: 1.0},
}


def verify_commutation_table(basis: Sequence[np.ndarray],
                             table: dict[tuple[int, int], dict[int, float]]) -> float:
    """Largest deviation of matrix brackets from the stated table."""
    worst = 0.0
    m = len(basis)
    for i in range(m):
        for j in range(i + 1, m):
            expected = np.zeros_like(basis[0])
            for k, c in table.get((i, j), {}).items():
                expected = expected + c * basis[k]
            B = basis[i] @ basis[j] - basis[j] @ basis[i]
            worst = max(worst, float(np.max(np.abs(B - expected))))
    return worst


def attacking_pair_e() -> tuple[np.ndarray, np.ndarray]:
    """(attacking metric, invariant 2-form) in the frame of STABILIZER_BASIS.

    The distribution pair in coframe order (dx, dy, db, da): the metric becomes
    antidiag(1, 1, 1, 1) and dx ^ da + dy ^ db becomes antidiag(1, 1, -1, -1).
    The joint conformal stabilizer of this pair is exactly span(STABILIZER_BASIS).
    """
    p, order = np.zeros(5), np.ix_([0, 1, 3, 2], [0, 1, 3, 2])
    return attacking_metric(p)[order], invariant_two_form_dist(p)[order]


def quartic_mode_pair() -> tuple[np.ndarray, np.ndarray]:
    """(Upsilon tensor, invariant 2-form) in the quartic-mode frame.

    The joint conformal stabilizer of this pair is the image of gl(2, R)
    under the Sym^3 action derivative, of dimension 4.
    """
    return gl2.UPSILON_TENSOR.copy(), gl2.OMEGA_MATRIX.copy()

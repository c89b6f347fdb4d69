"""Symmetry-algebra verification for the maneuver geometries.

A chart vector field X is a symmetry candidate when L_X w0 is proportional
to w0 (contact residual) and the Lie derivative of the structural tensor S
stays inside the conformal ideal spanned by S itself and terms divisible by
w0 (membership residual). The tensors divisible by w0 are exactly those that
vanish on the distribution D = ker w0, so membership is tested on D: L_X S is
built restricted to D through the E-frame, never as a full chart tensor, and
asked to be proportional to S restricted there. Every residual and bracket
is evaluated for all sample points and all fields at once, over (points x
fields) stacks: the fields come as one `FieldStack`, whose values and
Jacobians are one call each (a catalog fills all its fields at once), and a
single field X as the stack `FieldStack.of(X)`. Each certificate is written
once, as a `stacked_*` function of the stacked values and Jacobians, so one
fill can serve several point sets; the field-taking names wrap them.
Catalogs of candidates are compressed into structure constants by least
squares over sample points, and the resulting algebras are identified
through their Killing forms against independently constructed matrix
models: sl(4, R), su(2, 2), and the split form of the 14-dimensional
exceptional algebra realized as derivations of the split octonions.
"""
from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .chart import E_FRAME, contact_covector
from .forms import FieldStack, SymTensorField, VectorField, brackets
from .maneuvers import QUARTIC_FIELD

#: w0 as a rank-1 tensor field.
CONTACT_TENSOR = SymTensorField("w0", contact_covector)

KILLING_ZERO_TOL = 1e-8
RANK_TOL = 1e-8
CATALOG_TOL = 1e-7   # a catalog field's contact and membership residuals
CLOSURE_TOL = 1e-8   # structure-constant misfits and cross-set disagreement


# -- stacked evaluation ----------------------------------------------------------

def _as_points(points: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


def _distribution_frames(pts: np.ndarray) -> np.ndarray:
    """(m, 5, 4): the E-frame of D = ker w0 as columns at every point."""
    return np.swapaxes(E_FRAME.values(pts), -1, -2)


def _restrict_slots(T: np.ndarray, frames: np.ndarray, count: int) -> np.ndarray:
    """Restrict the first `count` slots of stacked tensors (m, 5, ...) to D.

    Each restricted slot moves to the end, (m, 5, rest) -> (m, rest, 4), so
    restricting every slot of a tensor keeps their order.
    """
    m = len(T)
    for _ in range(count):
        shape = (m,) + T.shape[2:] + (frames.shape[-1],)
        T = (T.reshape(m, T.shape[1], -1).transpose(0, 2, 1) @ frames).reshape(shape)
    return T


def _contact_residuals(V: np.ndarray, J: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(m, n): |(L_X w0) ^ w0| / (|w0| (|w0| + |L_X w0|)) for n fields at m
    points; zero iff L_X w0 || w0. w0 and d w0 are evaluated once."""
    w, dw = CONTACT_TENSOR.value(pts), CONTACT_TENSOR.point_derivative(pts)
    lie = np.einsum("znm,zmi->zni", V, dw) + np.einsum("zm,znmi->zni", w, J)
    wedge = lie[..., :, None] * w[:, None, None, :]
    wedge = wedge - np.swapaxes(wedge, -1, -2)
    wedge_norm = np.sqrt(0.5 * np.sum(wedge ** 2, axis=(-2, -1)))
    nw = np.linalg.norm(w, axis=-1)[:, None]
    return wedge_norm / (nw * (nw + np.linalg.norm(lie, axis=-1)))


def _restricted_lie(V: np.ndarray, J: np.ndarray, S: SymTensorField,
                    pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l = (L_X S)|_D for n fields at m points, (m, n, 4^k), and s = S|_D, (m, 4^k).

    l is built on D directly, never as a chart tensor of 5^k components:
    with E the frame of D and P = S restricted on all slots but one,
    (m, 5, 4, .., 4),

        l = V . (dS)|_D + sum over slots of (J E)^T P, that slot first,

    and since S is symmetric the slot sum is one product and k - 1
    transposes. S, dS and E are evaluated once for all the fields.
    """
    T, dT = S.value(pts), S.point_derivative(pts)
    frames = _distribution_frames(pts)
    m, n = V.shape[:2]
    k = T.ndim - 1
    P = _restrict_slots(T, frames, k - 1)
    s = _restrict_slots(P, frames, 1).reshape(m, -1)
    dS = _restrict_slots(np.moveaxis(dT, 1, -1), frames, k)
    Q = np.swapaxes(J @ frames[:, None], -1, -2) @ P.reshape(m, 1, 5, -1)
    Q = Q.reshape((m, n) + (4,) * k)
    # one (1, 5) row per field and point, so a field's rows do not depend on n
    lie = (V[..., None, :] @ dS.reshape(m, 1, 5, -1)).reshape(Q.shape)
    for slot in range(k):
        lie += np.moveaxis(Q, 2, 2 + slot)
    return lie.reshape(m, n, -1), s


def _membership_residuals(V: np.ndarray, J: np.ndarray, S: SymTensorField,
                          pts: np.ndarray) -> np.ndarray:
    """(m, n): distance of (L_X S)|_D from span{S|_D} for n fields at m points.

    |l - (l.s / s.s) s| / (|s| + |l|) with l = (L_X S)|_D and s = S|_D: zero
    exactly when L_X S lies in span{S} + w0 . Sym^(k-1).
    """
    lie, s = _restricted_lie(V, J, S, pts)
    coef = np.einsum("zni,zi->zn", lie, s) / np.einsum("zi,zi->z", s, s)[:, None]
    mis = np.linalg.norm(lie - coef[..., None] * s[:, None], axis=-1)
    return mis / (np.linalg.norm(s, axis=-1)[:, None] + np.linalg.norm(lie, axis=-1))


# -- residuals ---------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SymmetryReport:
    contact: float        # worst contact residual over the points
    membership: float     # worst structural-tensor membership residual
    worst_point: tuple[float, ...]  # sample where max(contact, membership) peaks

    def passed(self) -> bool:
        return self.contact <= CATALOG_TOL and self.membership <= CATALOG_TOL


def stacked_symmetry_reports(V: np.ndarray, J: np.ndarray, S: SymTensorField,
                             pts: np.ndarray) -> list[SymmetryReport]:
    """One SymmetryReport per field against (w0, S), from the fields' stacked
    values V (m, n, 5) and Jacobians J (m, n, 5, 5) at the points pts (m, 5)."""
    contact = _contact_residuals(V, J, pts)
    member = _membership_residuals(V, J, S, pts)
    worst = np.argmax(np.maximum(contact, member), axis=0)
    return [SymmetryReport(float(np.max(contact[:, i])), float(np.max(member[:, i])),
                           tuple(float(v) for v in pts[worst[i]]))
            for i in range(V.shape[1])]


def catalog_symmetry_reports(fields: FieldStack, S: SymTensorField,
                             points: np.ndarray) -> list[SymmetryReport]:
    """One SymmetryReport per field against (w0, S), from one (points x fields)
    stack: one values call and one Jacobians call."""
    pts = _as_points(points)
    return stacked_symmetry_reports(fields.values(pts), fields.jacobians(pts), S, pts)


def legendrean_symmetry_residual(X: VectorField, metric: SymTensorField,
                                 points: np.ndarray) -> SymmetryReport:
    """Worst-case residuals of X as a conformal symmetry of (w0, metric)."""
    return catalog_symmetry_reports(FieldStack.of(X), metric, points)[0]


def g2_symmetry_residual(X: VectorField, points: np.ndarray) -> SymmetryReport:
    """Worst-case residuals of X as a symmetry of (w0, quartic cone field)."""
    return catalog_symmetry_reports(FieldStack.of(X), QUARTIC_FIELD, points)[0]


# -- structure constants -------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StructureConstants:
    c: np.ndarray         # (n, n, n): [X_i, X_j] = c[i, j, k] X_k
    misfit: float         # worst relative least-squares residual over pairs
    rank: int             # numerical rank of the stacked evaluation matrix

    @property
    def dimension(self) -> int:
        return self.c.shape[0]


def _solve_structure(A: np.ndarray, B: np.ndarray, n: int) -> StructureConstants:
    """Least squares A c = B, one column of B per ordered pair i < j.

    The rank counts the singular values of A that the least-squares solve
    returns above RANK_TOL * |A|_F. A system with a non-finite entry is a
    failed certificate, rank 0 and misfit inf, and never reaches LAPACK.
    """
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        return StructureConstants(np.zeros((n, n, n)), np.inf, 0)
    C, _, _, sv = np.linalg.lstsq(A, B, rcond=None)
    scale = max(float(np.linalg.norm(A)), 1e-300)
    denom = np.maximum(np.linalg.norm(B, axis=0), scale)
    misfit = float(np.max(np.linalg.norm(A @ C - B, axis=0) / denom, initial=0.0))
    upper, lower = np.triu_indices(n, 1)
    c = np.zeros((n, n, n))
    c[upper, lower] = C.T
    c[lower, upper] = -C.T
    rank = int(np.count_nonzero(sv > RANK_TOL * scale))
    return StructureConstants(c, misfit, rank)


def _stacked_columns(values: np.ndarray) -> np.ndarray:
    """(m, n, 5) -> (5m, n): one column per field, points stacked down the rows."""
    m, n, d = values.shape
    return values.transpose(0, 2, 1).reshape(m * d, n)


def stacked_structure_constants(V: np.ndarray, J: np.ndarray) -> StructureConstants:
    """Structure constants of n fields from their stacked values V (m, n, 5)
    and Jacobians J (m, n, 5, 5) at m sample points.

    Stacks the field values at every point into one matrix and solves all
    bracket pairs simultaneously; the misfit certifies closure under brackets.
    """
    n = V.shape[1]
    upper, lower = np.triu_indices(n, 1)
    B = brackets(V, J)[:, upper, lower]
    return _solve_structure(_stacked_columns(V), _stacked_columns(B), n)


def extract_structure_constants(fields: FieldStack,
                                points: np.ndarray) -> StructureConstants:
    """Structure constants of a catalog from values at sample points."""
    pts = _as_points(points)
    return stacked_structure_constants(fields.values(pts), fields.jacobians(pts))


def matrix_structure_constants(basis: Sequence[np.ndarray]) -> StructureConstants:
    """Structure constants of a matrix Lie algebra over a real basis.

    Complex matrices are flattened into real vectors (real and imaginary
    parts); the basis must be closed under real-linear commutators.
    """
    def flat(M: np.ndarray) -> np.ndarray:
        M = np.asarray(M)
        if np.iscomplexobj(M):
            return np.concatenate([M.real.ravel(), M.imag.ravel()])
        return M.astype(float).ravel()

    n = len(basis)
    A = np.stack([flat(M) for M in basis], axis=1)
    cols = []
    for i, j in itertools.combinations(range(n), 2):
        cols.append(flat(basis[i] @ basis[j] - basis[j] @ basis[i]))
    B = np.stack(cols, axis=1)
    return _solve_structure(A, B, n)


def jacobi_residual(c: np.ndarray) -> float:
    """Largest violation of the Jacobi identity by the constants."""
    # P[i, j, k, l] = c[i, j, m] c[m, k, l]; the cyclic sum permutes (i, j, k),
    # P + P.transpose(2, 0, 1, 3) + P.transpose(1, 2, 0, 3), summed four slabs
    # of i at a time: the same additions, and the max is the same float, but
    # the temporaries stay small enough to reuse freed memory, where full-size
    # ones are faulted in as fresh pages on every call
    P = np.tensordot(c, c, axes=(2, 0))
    return float(np.max([np.max(np.abs(P[i:i + 4] + P[:, :, i:i + 4].transpose(2, 0, 1, 3)
                                       + P[:, i:i + 4].transpose(1, 2, 0, 3)))
                         for i in range(0, len(P), 4)]))


def killing_matrix(c: np.ndarray) -> np.ndarray:
    """B_ij = c^a_{ib} c^b_{ja}."""
    return np.tensordot(c, c, axes=([0, 2], [2, 0]))


def killing_signature(B: np.ndarray) -> tuple[int, int, int]:
    eig = np.linalg.eigvalsh(0.5 * (B + B.T))
    scale = float(np.max(np.abs(eig))) if len(eig) else 0.0
    if scale == 0.0:
        return (0, 0, len(eig))
    cut = KILLING_ZERO_TOL * scale
    pos = int(np.sum(eig > cut))
    neg = int(np.sum(eig < -cut))
    return (pos, neg, len(eig) - pos - neg)


@dataclasses.dataclass(frozen=True)
class KillingDiagnostics:
    matrix: np.ndarray
    signature: tuple[int, int, int]
    jacobi: float


def killing_diagnostics(sc: StructureConstants) -> KillingDiagnostics:
    B = killing_matrix(sc.c)
    return KillingDiagnostics(B, killing_signature(B), jacobi_residual(sc.c))


def stacked_rank(V: np.ndarray) -> int:
    """Numerical rank of stacked values (m, n, 5); full rank = pointwise
    independence. Non-finite values have rank 0 and never reach LAPACK."""
    A = _stacked_columns(V)
    if not np.isfinite(A).all():
        return 0
    return int(np.linalg.matrix_rank(A, tol=RANK_TOL * np.linalg.norm(A)))


def catalog_rank(fields: FieldStack, points: np.ndarray) -> int:
    """Numerical rank of a catalog's values at sample points."""
    return stacked_rank(fields.values(_as_points(points)))


# -- reference matrix models ---------------------------------------------------

def sl4_basis() -> list[np.ndarray]:
    """Traceless real 4x4 matrices; 15 elements."""
    basis = []
    for p in range(4):
        for q in range(4):
            if p != q:
                E = np.zeros((4, 4))
                E[p, q] = 1.0
                basis.append(E)
    for k in range(3):
        D = np.zeros((4, 4))
        D[k, k] = 1.0
        D[k + 1, k + 1] = -1.0
        basis.append(D)
    return basis


def su22_basis() -> list[np.ndarray]:
    """Real basis of su(2, 2) for eta = diag(1, 1, -1, -1); 15 elements."""
    sigma = [np.eye(2, dtype=complex),
             np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    basis = []
    for k in (1, 2, 3):
        M = np.zeros((4, 4), dtype=complex)
        M[:2, :2] = 1j * sigma[k]
        basis.append(M)
        M = np.zeros((4, 4), dtype=complex)
        M[2:, 2:] = 1j * sigma[k]
        basis.append(M)
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = 1j * sigma[0]
    M[2:, 2:] = -1j * sigma[0]
    basis.append(M)
    for p in range(2):
        for q in range(2):
            for scal in (1.0, 1j):
                B = np.zeros((2, 2), dtype=complex)
                B[p, q] = scal
                M = np.zeros((4, 4), dtype=complex)
                M[:2, 2:] = B
                M[2:, :2] = B.conj().T
                basis.append(M)
    return basis


# Split octonions as Zorn vector matrices ((alpha, v), (w, beta)).

def octonion_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    a1, b1 = u[0], u[7]
    v1, w1 = u[1:4], u[4:7]
    a2, b2 = v[0], v[7]
    v2, w2 = v[1:4], v[4:7]
    out = np.empty(8)
    out[0] = a1 * a2 + v1 @ w2
    out[1:4] = a1 * v2 + b2 * v1 - np.cross(w1, w2)
    out[4:7] = a2 * w1 + b1 * w2 + np.cross(v1, v2)
    out[7] = b1 * b2 + w1 @ v2
    return out


def octonion_norm(u: np.ndarray) -> float:
    """The split quadratic form alpha*beta - v.w; multiplicative."""
    return float(u[0] * u[7] - u[1:4] @ u[4:7])


@lru_cache(maxsize=None)
def _octonion_table() -> np.ndarray:
    eye = np.eye(8)
    T = np.empty((8, 8, 8))
    for i in range(8):
        for j in range(8):
            T[i, j] = octonion_product(eye[i], eye[j])
    return T


def _derivation_system(T: np.ndarray) -> np.ndarray:
    """(512, 64): row (i, j, c), column (r, s) is the coefficient of D[r, s]
    in the c component of D(e_i e_j) - D(e_i) e_j - e_i D(e_j)."""
    eye = np.eye(8)
    return (np.einsum("rc,ijs->ijcrs", eye, T)
            - np.einsum("si,rjc->ijcrs", eye, T)
            - np.einsum("sj,irc->ijcrs", eye, T)).reshape(8 * 8 * 8, 64)


def split_g2_basis() -> list[np.ndarray]:
    """Derivations of the split octonions; a 14-dimensional matrix algebra."""
    A = _derivation_system(_octonion_table())
    _, sv, Vt = np.linalg.svd(A, full_matrices=False)
    cut = 1e-10 * sv[0]
    dim = 64 - int(np.sum(sv > cut))
    return [Vt[64 - dim + k].reshape(8, 8) for k in range(dim)]


@dataclasses.dataclass(frozen=True)
class LieAlgebraModel:
    name: str
    dimension: int
    killing_signature: tuple[int, int, int]


@lru_cache(maxsize=None)
def reference_model(name: str) -> LieAlgebraModel:
    """Killing data of a reference algebra computed from its matrix model."""
    builders: dict[str, Callable[[], list[np.ndarray]]] = {
        "sl4": sl4_basis,
        "su22": su22_basis,
        "g2-split": split_g2_basis,
    }
    if name not in builders:
        raise ValueError(f"unknown reference algebra {name!r}")
    basis = builders[name]()
    sc = matrix_structure_constants(basis)
    if sc.misfit > CLOSURE_TOL:
        raise RuntimeError(f"reference model {name} is not closed: {sc.misfit}")
    diag = killing_diagnostics(sc)
    return LieAlgebraModel(name, len(basis), diag.signature)

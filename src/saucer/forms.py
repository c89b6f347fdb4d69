"""Exterior calculus and tensor fields on coordinate charts of dimension <= 6.

Form values at one point are stored sparsely over sorted index combinations
of the coordinate coframe. The certificates work on whole sample sets, so
the array routines take one point (d,) or a stack (m, d) and evaluate it
with array expressions: brackets, Lie derivatives of symmetric tensors and
the exterior derivative of a 1-form. That derivative is a complex step,

    d_i w_j = Im w_j(p + i h e_i) / h,    h = 1e-30,

exact to roundoff for real-analytic forms (Squire and Trapp, SIAM Review 40,
1998), so it leaves no sqrt(eps) floor. Vector fields carry closed-form
Jacobians where the caller knows them; everything else falls back to central
finite differences with step h = 1e-5 * max(1, |p|), one step per point.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

FD_STEP = 1e-5

#: Step of the complex-step derivatives; far below the rounding unit, since
#: nothing is subtracted.
COMPLEX_STEP = 1e-30

Coeffs = dict[tuple[int, ...], float]


def _fd_step(p: np.ndarray) -> np.ndarray:
    """1e-5 * max(1, |p|) for one point (1,) or for each row of a stack (m, 1).

    |p| is summed the same way for a point and for a row, so a stacked
    difference quotient equals the per-point ones bit for bit.
    """
    return FD_STEP * np.maximum(1.0, np.sqrt(np.sum(p * p, axis=-1, keepdims=True)))


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two sorted index tuples; return (sorted tuple, sign) or None."""
    if set(left) & set(right):
        return None
    merged = left + right
    # count inversions of the concatenation; both halves are already sorted
    inversions = 0
    for i, j in itertools.combinations(range(len(merged)), 2):
        if merged[i] > merged[j]:
            inversions += 1
    order = tuple(sorted(merged))
    sign = -1.0 if inversions % 2 else 1.0
    return order, sign


@dataclass(frozen=True)
class FormValue:
    """A k-form at a point: coefficients over sorted coordinate combinations."""

    dim: int
    degree: int
    coeffs: Coeffs

    def __post_init__(self):
        assert 0 <= self.degree <= self.dim
        for idx in self.coeffs:
            assert len(idx) == self.degree and tuple(sorted(idx)) == idx

    @staticmethod
    def covector(components: np.ndarray) -> "FormValue":
        comps = np.asarray(components, dtype=float)
        coeffs = {(i,): float(c) for i, c in enumerate(comps) if c != 0.0}
        return FormValue(len(comps), 1, coeffs)

    def components(self) -> np.ndarray:
        assert self.degree == 1
        out = np.zeros(self.dim)
        for (i,), c in self.coeffs.items():
            out[i] = c
        return out

    def __add__(self, other: "FormValue") -> "FormValue":
        assert (self.dim, self.degree) == (other.dim, other.degree)
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + c
        return FormValue(self.dim, self.degree, coeffs)

    def __sub__(self, other: "FormValue") -> "FormValue":
        return self + other.scaled(-1.0)

    def scaled(self, factor: float) -> "FormValue":
        return FormValue(self.dim, self.degree,
                         {idx: factor * c for idx, c in self.coeffs.items()})

    def wedge(self, other: "FormValue") -> "FormValue":
        assert self.dim == other.dim
        degree = self.degree + other.degree
        if degree > self.dim:
            raise ValueError("degree overflow: %d + %d > %d"
                             % (self.degree, other.degree, self.dim))
        coeffs: Coeffs = {}
        for left, cl in self.coeffs.items():
            for right, cr in other.coeffs.items():
                merged = _merge_indices(left, right)
                if merged is None:
                    continue
                idx, sign = merged
                coeffs[idx] = coeffs.get(idx, 0.0) + sign * cl * cr
        return FormValue(self.dim, degree, coeffs)

    def interior(self, vector: np.ndarray) -> "FormValue":
        """Contraction of the first slot with a vector."""
        assert self.degree >= 1
        v = np.asarray(vector, dtype=float)
        coeffs: Coeffs = {}
        for idx, c in self.coeffs.items():
            for pos, i in enumerate(idx):
                if v[i] == 0.0:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                sign = -1.0 if pos % 2 else 1.0
                coeffs[rest] = coeffs.get(rest, 0.0) + sign * v[i] * c
        return FormValue(self.dim, self.degree - 1, coeffs)

    def evaluate(self, *vectors: np.ndarray) -> float:
        """Determinant-convention evaluation on `degree` vectors."""
        assert len(vectors) == self.degree
        if self.degree == 0:
            return float(self.coeffs.get((), 0.0))
        mat = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
        total = 0.0
        for idx, c in self.coeffs.items():
            total += c * float(np.linalg.det(mat[list(idx), :]))
        return total

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs.values()))


def wedge(alpha: "FormValue", beta: "FormValue") -> "FormValue":
    return alpha.wedge(beta)


@dataclass(frozen=True)
class DifferentialForm:
    """A k-form field: a coefficient map, optionally with a registered d."""

    name: str
    dim: int
    degree: int
    coeff_fn: Callable[[np.ndarray], FormValue]
    d_fn: Callable[[np.ndarray], FormValue] | None = None

    def value(self, p: np.ndarray) -> FormValue:
        return self.coeff_fn(np.asarray(p, dtype=float))


def exterior_derivative(alpha: DifferentialForm, p: np.ndarray) -> FormValue:
    """d(alpha) at p; registered closed form if present, else central differences."""
    p = np.asarray(p, dtype=float)
    if alpha.d_fn is not None:
        return alpha.d_fn(p)
    h = _fd_step(p)[0]
    coeffs: Coeffs = {}
    for i in range(alpha.dim):
        step = np.zeros(alpha.dim)
        step[i] = h
        plus = alpha.value(p + step)
        minus = alpha.value(p - step)
        for idx in set(plus.coeffs) | set(minus.coeffs):
            dc = (plus.coeffs.get(idx, 0.0) - minus.coeffs.get(idx, 0.0)) / (2.0 * h)
            if not np.isfinite(dc):
                raise ValueError("non-finite derivative of %r along %d" % (alpha.name, i))
            if dc == 0.0:
                continue
            merged = _merge_indices((i,), idx)
            if merged is None:
                continue
            out_idx, sign = merged
            coeffs[out_idx] = coeffs.get(out_idx, 0.0) + sign * dc
    return FormValue(alpha.dim, alpha.degree + 1, coeffs)


def lie_derivative_form(X: "VectorField", alpha: DifferentialForm, p: np.ndarray) -> FormValue:
    """Cartan formula L_X alpha = X . d(alpha) + d(X . alpha)."""
    p = np.asarray(p, dtype=float)
    term1 = exterior_derivative(alpha, p).interior(X.value(p))
    contracted = DifferentialForm(
        "i_%s(%s)" % (X.id, alpha.name), alpha.dim, alpha.degree - 1,
        lambda q: alpha.value(q).interior(X.value(q)))
    term2 = exterior_derivative(contracted, p)
    return term1 + term2


@dataclass(frozen=True)
class VectorField:
    id: str
    dim: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(p, dtype=float)), dtype=float)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """J[..., m, i] = d(X^m)/dx^i at one point (d,) or a stack (n, d).

        Closed form when registered, else central differences with the step
        of each point, so a stacked row equals the per-point call.
        """
        p = np.asarray(p, dtype=float)
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(p), dtype=float)
        h = _fd_step(p)
        cols = []
        for i in range(self.dim):
            step = h * np.eye(self.dim)[i]
            cols.append((self.value(p + step) - self.value(p - step)) / (2.0 * h))
        return np.stack(cols, axis=-1)


def constant_field(name: str, components) -> VectorField:
    """The same vector at every point; takes one point (dim,) or a stack (m, dim)."""
    comps = np.asarray(components, dtype=float)
    dim = len(comps)
    return VectorField(name, dim, lambda p: np.broadcast_to(comps, p.shape).copy(),
                       lambda p: np.zeros(p.shape + (dim,)))


def _apply(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v for one matrix (d, d) or a stack (m, d, d); a stacked row is the
    same matrix-vector product as the single one, bit for bit."""
    return (J @ v[..., None])[..., 0]


def bracket(X: VectorField, Y: VectorField, p: np.ndarray) -> np.ndarray:
    """[X, Y](p) = J_Y(p) X(p) - J_X(p) Y(p) at one point (d,) or a stack (m, d)."""
    p = np.asarray(p, dtype=float)
    return _apply(Y.jacobian(p), X.value(p)) - _apply(X.jacobian(p), Y.value(p))


def complex_step_derivative(fn: Callable[[np.ndarray], np.ndarray],
                            p: np.ndarray) -> np.ndarray:
    """D[k, ...] = d fn / dx^k at one point (d,) or each point of a stack (m, d).

    fn maps points (..., d) to values (..., *shape) in plain arithmetic (no
    float(), abs or norm), so it takes complex points; it is called once, on
    the d copies p + i h e_k stacked on a new leading axis, h = COMPLEX_STEP.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    steps = (1j * COMPLEX_STEP * np.eye(d)).reshape((d,) + (1,) * (p.ndim - 1) + (d,))
    return np.asarray(fn(p + steps)).imag / COMPLEX_STEP


def exterior_derivative_stack(covector_fn: Callable[[np.ndarray], np.ndarray],
                              p: np.ndarray) -> np.ndarray:
    """d of 1-forms given by their components, by one complex-step call.

    covector_fn maps points (..., d) to components (..., d), or (..., n, d)
    for n forms at once, as `complex_step_derivative` requires. Returns
    dw[..., i, j] = d_i w_j - d_j w_i, the coefficient of dx^i ^ dx^j for
    i < j, at one point (d,) or each point of a stack (m, d).
    """
    grad = np.moveaxis(complex_step_derivative(covector_fn, p), 0, -2)
    return grad - np.swapaxes(grad, -1, -2)


@dataclass(frozen=True)
class SymTensorField:
    """Fully symmetric covariant tensor field over a declared coframe."""

    name: str
    dim: int
    rank: int
    frame: str
    value_fn: Callable[[np.ndarray], np.ndarray]
    point_derivative_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(p, dtype=float)), dtype=float)

    def point_derivative(self, p: np.ndarray) -> np.ndarray:
        """dS[m, i1..ik] = d(S_{i1..ik})/dx^m."""
        p = np.asarray(p, dtype=float)
        if self.point_derivative_fn is not None:
            return np.asarray(self.point_derivative_fn(p), dtype=float)
        h = _fd_step(p)[0]
        out = np.empty((self.dim,) + (self.dim,) * self.rank)
        for m in range(self.dim):
            step = np.zeros(self.dim)
            step[m] = h
            out[m] = (self.value(p + step) - self.value(p - step)) / (2.0 * h)
        return out


def constant_symtensor(name: str, frame: str, T: np.ndarray) -> SymTensorField:
    T = np.asarray(T, dtype=float)
    dim, rank = T.shape[0], T.ndim
    zero = np.zeros((dim,) + T.shape)
    return SymTensorField(name, dim, rank, frame,
                          lambda p: T.copy(), lambda p: zero.copy())


def lie_derivative_symtensor(X: VectorField, S: SymTensorField, p: np.ndarray) -> np.ndarray:
    """(L_X S)_{i...} = X^m dS_{m,i...} + sum over slots S_{..m..} J_X[m, i_slot]."""
    p = np.asarray(p, dtype=float)
    return lie_derivative_stack(X.value(p)[None], X.jacobian(p)[None],
                                S.value(p)[None], S.point_derivative(p)[None])[0]


def lie_derivative_stack(V: np.ndarray, J: np.ndarray, T: np.ndarray,
                         dT: np.ndarray) -> np.ndarray:
    """L_X S at m points at once, from stacked pointwise data.

    V (m, d) and J (m, d, d) are the values and Jacobians of X; T (m, d, .., d)
    and dT (m, d, d, .., d) those of the rank-k tensor S and its point
    derivative. Returns (m, d, .., d).
    """
    out = np.einsum("zm,zm...->z...", V, dT)
    slots = "abcdefgh"[:T.ndim - 1]
    for k, slot in enumerate(slots):
        moved = slots[:k] + "m" + slots[k + 1:]
        out = out + np.einsum(f"z{moved},zm{slot}->z{slots}", T, J)
    return out

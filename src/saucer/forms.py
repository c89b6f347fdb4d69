"""Tensor calculus on coordinate charts: vector fields, symmetric tensors, d.

Every field takes one point (d,) or a stack of points (m, d) and evaluates
it with array expressions, so the certificates work on whole sample sets at
once: brackets, Lie derivatives of symmetric tensors and the exterior
derivative of 1-forms. A field is given by its value function alone. Every
derivative of it, the Jacobian of a vector field, the point derivative of a
tensor field and d of a 1-form, is one complex step of that function,

    d_i w_j = Im w_j(p + i h e_i) / h,    h = 1e-30,

exact to roundoff for real-analytic fields (Squire and Trapp, SIAM Review
40, 1998), so it leaves no sqrt(eps) floor. A family of n fields is one
`FieldStack`: one value function over (points x fields), whose values,
Jacobians and brackets come from one call each; `brackets` gives every
bracket of n fields from their stacked values and Jacobians.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Step of the complex-step derivatives; far below the rounding unit, since
#: nothing is subtracted.
COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class VectorField:
    """A vector field given by its components: value_fn maps one point (d,)
    or a stack (m, d) to (d,) or (m, d) in plain arithmetic, as
    `complex_step_derivative` requires."""

    id: str
    value_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(p, dtype=float)), dtype=float)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """J[..., m, i] = d(X^m)/dx^i at one point (d,) or a stack (n, d)."""
        return np.moveaxis(complex_step_derivative(self.value_fn, p), 0, -1)


def constant_field(name: str, components) -> VectorField:
    """The same vector at every point; takes one point (dim,) or a stack (m, dim)."""
    comps = np.asarray(components, dtype=float)
    return VectorField(name, lambda p: np.broadcast_to(comps, p.shape).copy())


@dataclass(frozen=True)
class FieldStack:
    """n vector fields given by one value function: value_fn maps points
    (..., d) to (..., n, d) in plain arithmetic, as `complex_step_derivative`
    requires. stack[i] is field i, its row of the value function, so
    iterating a stack yields its fields one by one; a row of the stacked
    values or Jacobians equals that field's own, bit for bit."""

    ids: tuple[str, ...]
    value_fn: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def of(cls, *fields: VectorField) -> "FieldStack":
        """Single fields as one stack."""
        return cls(tuple(X.id for X in fields),
                   lambda p: np.stack([X.value_fn(p) for X in fields], axis=-2))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> VectorField:
        return VectorField(self.ids[i], lambda p: self.value_fn(p)[..., i, :])

    def values(self, p: np.ndarray) -> np.ndarray:
        """(..., n, d): every field at one point (d,) or each point of a stack."""
        return np.asarray(self.value_fn(np.asarray(p, dtype=float)), dtype=float)

    def jacobians(self, p: np.ndarray) -> np.ndarray:
        """(..., n, d, d): J[..., i, m, k] = d(X_i^m)/dx^k, one complex step."""
        return np.moveaxis(complex_step_derivative(self.value_fn, p), 0, -1)

    def brackets(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values (..., n, d) and every bracket [X_i, X_j], (..., n, n, d)."""
        V = self.values(p)
        return V, brackets(V, self.jacobians(p))


def _apply(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v for one matrix (d, d) or a stack (m, d, d); a stacked row is the
    same matrix-vector product as the single one, bit for bit."""
    return (J @ v[..., None])[..., 0]


def bracket(X: VectorField, Y: VectorField, p: np.ndarray) -> np.ndarray:
    """[X, Y](p) = J_Y(p) X(p) - J_X(p) Y(p) at one point (d,) or a stack (m, d)."""
    p = np.asarray(p, dtype=float)
    return _apply(Y.jacobian(p), X.value(p)) - _apply(X.jacobian(p), Y.value(p))


def brackets(V: np.ndarray, J: np.ndarray) -> np.ndarray:
    """B[..., i, j, :] = [X_i, X_j] = J_j X_i - J_i X_j for n fields at once.

    V (..., n, d) holds the fields' values and J (..., n, d, d) their
    Jacobians, at one point or each point of a stack; returns (..., n, n, d).
    """
    # JV[..., i, j] = J_i X_j
    JV = np.einsum("...iab,...jb->...ija", J, V)
    return np.swapaxes(JV, -3, -2) - JV


def complex_step_derivative(fn: Callable[[np.ndarray], np.ndarray],
                            p: np.ndarray) -> np.ndarray:
    """D[k, ...] = d fn / dx^k at one point (d,) or each point of a stack (m, d).

    fn maps points (..., d) to values (..., *shape) in plain arithmetic (no
    float(), abs or norm, and arrays it allocates take the points' dtype),
    so it takes complex points; it is called once, on the d copies
    p + i h e_k stacked on a new leading axis, h = COMPLEX_STEP. A value
    function that drops the imaginary part would give a zero derivative, so
    numpy's ComplexWarning is raised as an error inside the call; the guard
    is the process-wide warnings filter, set for the call's duration.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    steps = (1j * COMPLEX_STEP * np.eye(d)).reshape((d,) + (1,) * (p.ndim - 1) + (d,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
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
    """Fully symmetric covariant tensor field over a declared coframe.

    value_fn takes one point (d,) or a stack (m, d), as `VectorField`'s
    does, and gives S[..., i1..ik]; the point derivative
    dS[..., m, i1..ik] = d(S_{i1..ik})/dx^m is its complex step.
    """

    name: str
    value_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(p, dtype=float)), dtype=float)

    def point_derivative(self, p: np.ndarray) -> np.ndarray:
        return np.moveaxis(complex_step_derivative(self.value_fn, p), 0, np.ndim(p) - 1)


def constant_symtensor(name: str, T: np.ndarray) -> SymTensorField:
    """The same tensor T at every point of one point (dim,) or a stack (m, dim).

    Its values are a read-only broadcast view of T: no copy per call."""
    T = np.asarray(T, dtype=float)
    return SymTensorField(name, lambda p: np.broadcast_to(T, p.shape[:-1] + T.shape))


def lie_derivative_symtensor(X: VectorField, S: SymTensorField, p: np.ndarray) -> np.ndarray:
    """L_X S at one point (d,); `lie_derivative_stack` of that one point.

    The symmetry checks build L_X S restricted to the contact distribution
    instead (`symmetry._membership_residuals`); perfbench's tracer lists this
    name among the L1 functions it wraps.
    """
    p = np.asarray(p, dtype=float)
    return lie_derivative_stack(X.value(p)[None], X.jacobian(p)[None],
                                S.value(p)[None], S.point_derivative(p)[None])[0]


def lie_derivative_stack(V: np.ndarray, J: np.ndarray, T: np.ndarray,
                         dT: np.ndarray) -> np.ndarray:
    """L_X S at m points at once, from stacked pointwise data:
    (L_X S)_{i...} = X^m dS_{m,i...} + `leibniz_stack`(J_X, S).

    V (m, d) and J (m, d, d) are the values and Jacobians of X; T (m, d, .., d)
    and dT (m, d, d, .., d) those of the rank-k tensor S and its point
    derivative. Returns (m, d, .., d).
    """
    return leibniz_stack(J, T, np.einsum("zm,zm...->z...", V, dT))


def leibniz_stack(J: np.ndarray, T: np.ndarray, base) -> np.ndarray:
    """base + sum over slots S_{..m..} J[m, i_slot]: the matrices J acting
    on the covariant tensors S by the Leibniz rule, one per stack row.

    J (m, d, d) and T (m, d, .., d), either possibly a broadcast view. The
    slot terms are added to base (0.0, or the transport term of a Lie
    derivative) one at a time in slot order. Returns (m, d, .., d).
    """
    out = base
    slots = "abcdefgh"[:T.ndim - 1]
    for k, slot in enumerate(slots):
        moved = slots[:k] + "m" + slots[k + 1:]
        out = out + np.einsum(f"z{moved},zm{slot}->z{slots}", T, J)
    return out

"""The configuration space R^3 x S^2 and its upper-hemisphere chart.

A disc position is (r, n) with r in R^3 and n a unit normal; on the chart
n_z > 0 we use coordinates (x, y, z, a, b) where (x, y, z) = r and the normal
is the normalization of N = (-a, -b, 1). Admissible disc motions are tangent
to the kernel of the contact form w0 = dz - a dx - b dy.

Coordinate order everywhere: (x, y, z, a, b) = indices 0..4. The E and Z
frames of the distribution are one `FieldStack` each.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forms import FieldStack, exterior_derivative_stack

DIM = 5

#: Chart slots of (dx, dy, da, db), the coframe of the contact distribution:
#: every coordinate but z.
DIST_SLOTS = np.array([0, 1, 3, 4])

_UNIT_NORM_TOL = 1e-12


class OutsideChart(ValueError):
    """Normal does not point into the upper hemisphere."""


@dataclass(frozen=True)
class AmbientConfig:
    """Disc center r and unit normal n in ambient coordinates.

    One configuration holds two (3,) vectors; a stack of them, (m, 3) each.
    """

    r: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))
        if self.r.shape[-1:] != (3,) or self.r.shape != self.n.shape:
            raise ValueError("r and n must be 3-vectors, or stacks of them, "
                             f"of one shape; got {self.r.shape} and {self.n.shape}")
        if np.any(np.abs(np.linalg.norm(self.n, axis=-1) - 1.0) > _UNIT_NORM_TOL):
            raise ValueError("normal must be a unit vector")


def point(x: float, y: float, z: float, a: float, b: float) -> np.ndarray:
    return np.array([x, y, z, a, b], dtype=float)


def normal_scale(p: np.ndarray) -> "float | np.ndarray":
    """|N| = sqrt(1 + a^2 + b^2), the normalization factor of the chart.

    At one point (5,) or each point of a stack (..., 5). No abs or norm, so
    complex-step points pass through: the square root is analytic there.
    """
    p = np.asarray(p)
    a, b = p[..., 3], p[..., 4]
    return np.sqrt(1.0 + a * a + b * b)


def chart_from_ambient(c: AmbientConfig) -> np.ndarray:
    """Chart point (5,) of one configuration, or (m, 5) of a stack."""
    nz = c.n[..., 2]
    if np.any(nz <= 0.0):
        raise OutsideChart("n_z = %.6g is not positive" % np.min(nz))
    ab = -c.n[..., :2] / nz[..., None]
    return np.concatenate([c.r, ab], axis=-1)


def ambient_from_chart(p: np.ndarray) -> AmbientConfig:
    """Configuration of one chart point (5,), or a stack of them for (m, 5)."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("chart point must be finite")
    N = np.concatenate([-p[..., 3:], np.ones(p.shape[:-1] + (1,))], axis=-1)
    return AmbientConfig(r=p[..., :3].copy(), n=N / normal_scale(p)[..., None])


def contact_covector(p: np.ndarray) -> np.ndarray:
    """Components of w0 = dz - a dx - b dy against (dx, dy, dz, da, db).

    At one point (5,) or each point of a stack (..., 5); complex points give
    complex components.
    """
    p = np.asarray(p)
    out = np.zeros(p.shape, dtype=np.result_type(p, float))
    out[..., 0] = -p[..., 3]
    out[..., 1] = -p[..., 4]
    out[..., 2] = 1.0
    return out


def _distribution_stack(ids, comps) -> FieldStack:
    """Fields c1 (dx-dir + a dz-dir) + c2 (dy-dir + b dz-dir) + c3 da-dir +
    c4 db-dir, one per row (c1, c2, c3, c4) of comps; only the dz slot varies."""
    comps = np.array(comps)

    def value(p: np.ndarray) -> np.ndarray:
        out = np.empty(p.shape[:-1] + (len(comps), DIM), dtype=np.result_type(p, float))
        out[..., DIST_SLOTS] = comps
        out[..., 2] = comps[:, 0] * p[..., 3, None] + comps[:, 1] * p[..., 4, None]
        return out

    return FieldStack(ids, value)


#: E-frame of the distribution: E1 = dx-dir + a dz-dir, E2 = dy-dir + b dz-dir,
#: E3 = db-dir, E4 = da-dir. The four controls of the saucer.
E_FRAME = _distribution_stack(("E1", "E2", "E3", "E4"),
                              [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])

#: Z-frame: identical to the E-frame except Z3 = -3 db-dir. Dual to the
#: quartic-mode coframe (dx, dy, -db/3, da).
Z_FRAME = _distribution_stack(("Z1", "Z2", "Z3", "Z4"),
                              [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, -3.0], [0.0, 0.0, 1.0, 0.0]])

#: The frame-oriented coordinate volume is dx^dy^db^da^dz, the orientation in
#: which (E1, E2, E3, E4, dz-dir) is positively oriented. Evaluating a 5-form
#: on this tuple reads off its coefficient against that volume.
_VOLUME_FRAME_VECTORS = (
    np.array([1.0, 0, 0, 0, 0]),
    np.array([0, 1.0, 0, 0, 0]),
    np.array([0, 0, 0, 0, 1.0]),
    np.array([0, 0, 0, 1.0, 0]),
    np.array([0, 0, 1.0, 0, 0]),
)


def _triple_tensor() -> np.ndarray:
    """T with coefficient(dw ^ dw ^ w) = T[i, j, k, l, m] dw_ij dw_kl w_m.

    dw = 1/2 dw_ij dx^i ^ dx^j, so the 5-form is 1/4 eps^{ijklm} dw_ij dw_kl
    w_m against dx^0 ^ .. ^ dx^4; the frame-oriented volume differs from
    that one by the determinant of the frame vectors.
    """
    eps = np.zeros((DIM,) * DIM)
    for perm in itertools.permutations(range(DIM)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(DIM), 2))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return 0.25 * np.linalg.det(np.column_stack(_VOLUME_FRAME_VECTORS)) * eps


_TRIPLE_TENSOR = _triple_tensor()

#: da ^ db ^ dx ^ dy ^ dz against the frame-oriented volume: the determinant
#: of the frame vectors' (a, b, x, y, z) components.
_AREA_VOLUME = float(np.linalg.det(np.column_stack(_VOLUME_FRAME_VECTORS)[[3, 4, 0, 1, 2]]))


def _triple_coefficient(dw: np.ndarray, w: np.ndarray) -> "float | np.ndarray":
    """Coefficient of dw ^ dw ^ w against the frame-oriented volume, per point."""
    # contract w first, G[.., ij, kl] = T[i, j, k, l, m] w_m, then F G F^T
    # over the flattened dw: two matrix products instead of a five-index sum
    G = (w @ _TRIPLE_TENSOR.reshape(DIM ** 4, DIM).T).reshape(w.shape[:-1] + (DIM * DIM,) * 2)
    F = dw.reshape(dw.shape[:-2] + (1, DIM * DIM))
    value = (F @ G @ np.swapaxes(F, -1, -2))[..., 0, 0]
    return float(value) if w.ndim == 1 else value


def contact_nondegeneracy(p: np.ndarray) -> "float | np.ndarray":
    """Coefficient of dw0 ^ dw0 ^ w0 against the frame-oriented volume.

    The constant is 2. The volume is dx^dy^db^da^dz (the orientation that
    makes the distribution frame positive); against the alphabetical ordering
    dx^dy^da^db^dz the same 5-form has coefficient -2, which is the price of
    one transposition. At one point (5,) or each point of a stack (m, 5).
    dw0 is the complex-step exterior derivative of the components.
    """
    p = np.asarray(p, dtype=float)
    return _triple_coefficient(exterior_derivative_stack(contact_covector, p),
                               contact_covector(p))


def _ambient_covector(q: np.ndarray) -> np.ndarray:
    """n . dr pulled back to the chart: w0 / |N|."""
    return contact_covector(q) / normal_scale(q)[..., None]


def ambient_nondegeneracy_pair(p: np.ndarray) -> tuple:
    """Both sides of the ambient identity (n.dr version of the triple product).

    Returns (coefficient of d(w)^d(w)^w, coefficient of -2 vol_{S2}^vol_{R3}),
    both against the frame-oriented volume, where w = n . dr is the unscaled
    ambient contact form pulled back to the chart and vol_{S2} is the sphere
    area form pulled back through a -> n(a, b). At one point (5,), as floats,
    or each point of a stack (m, 5), as arrays; d(w) is a complex step.
    """
    p = np.asarray(p, dtype=float)
    lhs = _triple_coefficient(exterior_derivative_stack(_ambient_covector, p),
                              _ambient_covector(p))
    a, b = p[..., 3], p[..., 4]
    f = (1.0 / normal_scale(p))[..., None]
    N = np.stack([-a, -b, np.ones_like(a)], axis=-1)
    # exact partials of n = f N; df/da = -a f^3, dN/da = (-1, 0, 0)
    n_a = (-a[..., None] * f ** 3) * N + f * np.array([-1.0, 0.0, 0.0])
    n_b = (-b[..., None] * f ** 3) * N + f * np.array([0.0, -1.0, 0.0])
    sigma = np.sum((f * N) * np.cross(n_a, n_b), axis=-1)
    # vol_{S2} ^ vol_{R3} = sigma da^db ^ dx^dy^dz
    rhs = -2.0 * sigma * _AREA_VOLUME
    return lhs, (float(rhs) if p.ndim == 1 else rhs)

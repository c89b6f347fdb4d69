"""Symmetry vector-field catalogs for the three maneuver geometries.

Each catalog holds the paper's printed fields on the chart (x, y, z, a, b),
written once as plain arithmetic: a function of the five coordinates that
returns the five components. Rationals are integer divisions, so the same
functions take floats, numpy arrays (real or complex) and sympy symbols,
exactly. A catalog is one `FieldStack` over `_fill`: the values of all its
fields come from one fill of an (..., n, 5) array over a point (5,) or a
stack (m, 5), and their Jacobians from one fill over the five complex-step
copies of the stack,

    J[..., :, k] = Im F(p + i h e_k) / h,    h = 1e-30,

which is exact to roundoff for real-analytic fields (Squire and Trapp, SIAM
Review 40, 1998): there is no subtraction, so h can be far below the
rounding unit. catalog[i] is field i as a `VectorField`, its row of the
fill. The attacking and landing catalogs span 15-dimensional algebras, the
G2 catalog a 14-dimensional one.
"""
from __future__ import annotations

import numpy as np

from .forms import FieldStack


def _e(x, y, z, a, b):
    return z - a * x - b * y


def _s(a, b):
    return (1 + a * a + b * b) ** 0.5


def _r2(x, y, z):
    return x * x + y * y + z * z


def _with_s(fn):
    """The landing field fn(x, y, z, a, b, s), with s = `_s(a, b)` taken once."""
    return lambda x, y, z, a, b: fn(x, y, z, a, b, _s(a, b))


def _landing_sphere(x, y, z, a, b):
    """The landing field built on r^2 = x^2 + y^2 + z^2, with r^2 and s taken once."""
    r2, s = _r2(x, y, z), _s(a, b)
    return (-r2 / 2 * a / s, -r2 / 2 * b / s, r2 / 2 / s, s * (a * z + x), s * (b * z + y))


ATTACKING_FIELDS = (
    lambda x, y, z, a, b: (z * x, z * y, z * z, _e(x, y, z, a, b) * a,
                           _e(x, y, z, a, b) * b),
    lambda x, y, z, a, b: (x * x, x * y, x * z, _e(x, y, z, a, b), 0),
    lambda x, y, z, a, b: (0, -z, 0, b * a, b * b),
    lambda x, y, z, a, b: (0, -x, 0, b, 0),
    lambda x, y, z, a, b: (-z, 0, 0, a * a, a * b),
    lambda x, y, z, a, b: (-x, 0, 0, a, 0),
    lambda x, y, z, a, b: (0, 0, x, 1, 0),
    lambda x, y, z, a, b: (y * x, y * y, y * z, 0, _e(x, y, z, a, b)),
    lambda x, y, z, a, b: (-y, 0, 0, 0, a),
    lambda x, y, z, a, b: (x, 0, z, 0, b),
    lambda x, y, z, a, b: (0, 0, y, 0, 1),
    lambda x, y, z, a, b: (x, y, z, 0, 0),
    lambda x, y, z, a, b: (0, 1, 0, 0, 0),
    lambda x, y, z, a, b: (1, 0, 0, 0, 0),
    lambda x, y, z, a, b: (0, 0, 1, 0, 0),
)

LANDING_FIELDS = (
    lambda x, y, z, a, b: (-z * x, -z * y, (x * x + y * y - z * z) / 2,
                           (1 + a * a) * x + a * b * y, (1 + b * b) * y + a * b * x),
    lambda x, y, z, a, b: ((y * y + z * z - x * x) / 2, -x * y, -x * z,
                           -((1 + a * a) * z - b * y), -a * (b * z + y)),
    lambda x, y, z, a, b: (y * x, (y * y - x * x - z * z) / 2, y * z,
                           b * (a * z + x), (1 + b * b) * z - a * x),
    _landing_sphere,
    lambda x, y, z, a, b: (-z, 0, x, a * a + 1, a * b),
    lambda x, y, z, a, b: (0, -z, y, a * b, b * b + 1),
    lambda x, y, z, a, b: (y, -x, 0, b, -a),
    _with_s(lambda x, y, z, a, b, s: (-x * a / s, -x * b / s, x / s, s, 0)),
    _with_s(lambda x, y, z, a, b, s: (-z * a / s, -z * b / s, z / s, s * a, s * b)),
    _with_s(lambda x, y, z, a, b, s: (-y * a / s, -y * b / s, y / s, 0, s)),
    _with_s(lambda x, y, z, a, b, s: (-a / s, -b / s, 1 / s, 0, 0)),
    lambda x, y, z, a, b: (x, y, z, 0, 0),
    lambda x, y, z, a, b: (1, 0, 0, 0, 0),
    lambda x, y, z, a, b: (0, 1, 0, 0, 0),
    lambda x, y, z, a, b: (0, 0, 1, 0, 0),
)

G2_FIELDS = (
    lambda x, y, z, a, b: (y * y * y + x * z,
                           y * z - b * b * x / 9 - 2 * b * y * y / 3,
                           z * z - 2 * b * b * b * x / 27 - b * b * y * y / 3,
                           a * z - a * a * x - a * b * y + b * b * b / 27,
                           b * z - a * b * x - 3 * a * y * y - b * b * y / 3),
    lambda x, y, z, a, b: (x * x, x * y, x * z - y * y * y, _e(x, y, z, a, b), -3 * y * y),
    lambda x, y, z, a, b: (-z / 2, b * b / 18, b * b * b / 27, a * a / 2, a * b / 2),
    lambda x, y, z, a, b: (-3 * y * y, 4 * b * y / 3 - z, 2 * b * b * y / 3,
                           a * b, 6 * a * y + b * b / 3),
    lambda x, y, z, a, b: (0, y / 3, z, a, 2 * b / 3),
    lambda x, y, z, a, b: (9 * x * y / 2, 3 * y * y / 2 - b * x, (9 * y * z - b * b * x) / 2,
                           b * b / 2, (9 * z + 3 * b * y - 9 * a * x) / 2),
    lambda x, y, z, a, b: (0, -x, 3 * y * y, b, 6 * y),
    lambda x, y, z, a, b: (x, 2 * y / 3, z, 0, b / 3),
    lambda x, y, z, a, b: (y, -2 * b / 9, -b * b / 9, 0, -a),
    lambda x, y, z, a, b: (0, 0, x, 1, 0),
    lambda x, y, z, a, b: (0, 0, y, 0, 1),
    lambda x, y, z, a, b: (1, 0, 0, 0, 0),
    lambda x, y, z, a, b: (0, 1, 0, 0, 0),
    lambda x, y, z, a, b: (0, 0, 1, 0, 0),
)

def _fill(fns, p: np.ndarray) -> np.ndarray:
    """Every field of fns at every point of a stack (..., 5), as (..., n, 5).

    One preallocated array of p's dtype (real, or complex for the complex
    steps): each component is assigned into it, so constants broadcast
    without an array of their own.
    """
    out = np.empty(p.shape[:-1] + (len(fns), 5), dtype=p.dtype)
    coords = np.moveaxis(p, -1, 0)
    for i, fn in enumerate(fns):
        for k, comp in enumerate(fn(*coords)):
            out[..., i, k] = comp
    return out


def _stack(prefix: str, fns) -> FieldStack:
    """The catalog fns as one stack over `_fill`, looked up at call time."""
    return FieldStack(tuple(f"{prefix}-{i + 1}" for i in range(len(fns))),
                      lambda p: _fill(fns, p))


_G2 = _stack("g2", G2_FIELDS)

#: Each catalog under its geometry name; g2 also under either G2 mode's.
_CATALOGS = {"attacking": _stack("att", ATTACKING_FIELDS),
             "landing": _stack("lnd", LANDING_FIELDS),
             "g2": _G2, "g2s": _G2, "g2d": _G2}


def catalog(name: str) -> FieldStack:
    """Catalog by geometry name: attacking, landing, or g2 (either G2 mode)."""
    try:
        return _CATALOGS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown catalog {name!r}") from None


#: 0-based indices of attacking fields that preserve the contact form and the
#: attacking metric exactly (isometric sub-catalog).
ATTACKING_EXACT = (3, 5, 6, 8, 10, 12, 13, 14)

#: 0-based indices of attacking fields scaling both structures by 1 (homotheties).
ATTACKING_HOMOTHETY = (9, 11)

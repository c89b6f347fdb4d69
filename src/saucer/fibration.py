"""Six-dimensional correspondence space and the joystick pipeline.

Two 6-coordinate charts, x and y, cover the correspondence space that fibers
over the 5-dimensional contact space on one side (forget x5) and over the
engine space on the other (forget y5). A global coframe
(w0, w1, w2, w3, w4, w7) satisfies the structure equations

    d w0 = w1 ^ w4 - 3 w2 ^ w3,    d w1 = 3 w2 ^ w7,    d w2 = 2 w3 ^ w7,
    d w3 = w4 ^ w7,                d w4 = 0,            d w7 = 0.

A joystick input is a pair of scalar controls (u, w), each a
`kernels.ControlSpec`: integrate the engine curve (`_ENGINE_RATES`, by the
same triangular RK4 as the saucer's time-varying law), lift it through
y5 = u/w, push it into the x chart, and certify that the projected contact
velocity is tangent to the twisted-cubic cone with parameter T = -y4.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from . import kernels
from .forms import FieldStack, exterior_derivative_stack
from .kernels import ControlSpec

FDIM = 6
FORM_LABELS = ("w0", "w1", "w2", "w3", "w4", "w7")
LIFT_EPS = 1e-6
#: A joystick run certifies when its worst angular sine and its worst contact
#: ratio stay within these (`TangencyReport.passed`).
ANGULAR_TOL = 1e-5
CONTACT_TOL = 1e-8
SPEED_FLOOR = 1e-12   # slower samples are skipped, not certified
#: 100 times the worst angle, all rounding noise, of `verify` seeds 1-200 and 7919
ANGULAR_FLOOR = 100 * 1.9e-11   # `worst_sample` names only a sample above it


class LiftSingular(ValueError):
    """w vanished along the curve; y5 = u/w has no continuous value."""


# -- charts and coframes -------------------------------------------------------
#
# Each chart's coframe C and its dual frame E = C^-1 are written out as
# matrices of the six chart coordinates. Both coframes are unitriangular up
# to a signed permutation of the last two slots, so the inverses are short
# polynomials.

def _x_coframe(x0, x1, x2, x3, x4, x5):
    return [[1, 0, 0, -3 * x2, x1, 0],
            [0, 1, 3 * x5, 3 * x5 * x5, x5 * x5 * x5, 0],
            [0, 0, 1, 2 * x5, x5 * x5, 0],
            [0, 0, 0, 1, x5, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, -1]]


def _x_frame(x0, x1, x2, x3, x4, x5):
    return [[1, 0, 0, 3 * x2, -x1 - 3 * x2 * x5, 0],
            [0, 1, -3 * x5, 3 * x5 * x5, -x5 * x5 * x5, 0],
            [0, 0, 1, -2 * x5, x5 * x5, 0],
            [0, 0, 0, 1, -x5, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, -1]]


def _y_coframe(y0, y1, y2, y3, y4, y5):
    return [[1, -y5, -3 * y4 * y5, -3 * (y2 + y4 * y4 * y5), 0, 0],
            [0, 1, 3 * y4, 3 * y4 * y4, 0, 0],
            [0, 0, 1, 2 * y4, 0, 0],
            [0, 0, 0, 1, -y5, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0]]


def _y_frame(y0, y1, y2, y3, y4, y5):
    return [[1, y5, 0, 3 * y2, 0, -3 * y2 * y5],
            [0, 1, -3 * y4, 3 * y4 * y4, 0, -3 * y4 * y4 * y5],
            [0, 0, 1, -2 * y4, 0, 2 * y4 * y5],
            [0, 0, 0, 1, 0, -y5],
            [0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 1, 0]]


_CHARTS = {"x": (_x_coframe, _x_frame), "y": (_y_coframe, _y_frame)}


def _chart_at(chart: str, p: np.ndarray) -> tuple:
    """The chart's (coframe, frame) builders, p's six coordinates, and the
    leading shape and dtype of the matrices to build."""
    try:
        builders = _CHARTS[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None
    p = np.asarray(p)
    return builders, np.moveaxis(p, -1, 0), p.shape[:-1], np.result_type(p, float)


def _matrix(rows, lead: tuple, dtype) -> np.ndarray:
    """Written-out entries (numbers or arrays of shape lead) as (*lead, n, n)."""
    out = np.empty(lead + (len(rows), len(rows[0])), dtype=dtype)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def coframe(chart: str, p: np.ndarray) -> np.ndarray:
    """C[..., i, m]: coefficient of d(coord m) in form i, order FORM_LABELS.

    At one point (6,) or each point of a stack (..., 6); the entries are
    plain arithmetic, so complex points give complex coframes.
    """
    builders, coords, lead, dtype = _chart_at(chart, p)
    return _matrix(builders[0](*coords), lead, dtype)


def frame(chart: str, p: np.ndarray) -> np.ndarray:
    """Columns are the frame vectors dual to the coframe: w^i(e_j) = delta.

    At one point (6,) or each point of a stack (..., 6).
    """
    builders, coords, lead, dtype = _chart_at(chart, p)
    return _matrix(builders[1](*coords), lead, dtype)


def frame_fields(chart: str) -> FieldStack:
    """The chart's frame vectors e0..e4, e7 (the columns of `frame`) as one stack."""
    return FieldStack(tuple("e" + label[1:] for label in FORM_LABELS),
                      lambda q: np.swapaxes(frame(chart, q), -1, -2))


def _bracket_coefficients() -> np.ndarray:
    """c[i, j, k] with [e_i, e_j] = sum_k c[i, j, k] e_k, read from `_EDS_RHS`.

    w^k([e_i, e_j]) = -dw^k(e_i, e_j), valid in any coframe convention.
    """
    c = np.zeros((FDIM, FDIM, FDIM))
    for k, terms in _EDS_RHS.items():
        for i, j, coef in terms:
            c[i, j, k] -= coef
            c[j, i, k] += coef
    return c


def frame_commutator_residuals(chart: str, points: np.ndarray) -> np.ndarray:
    """Per point (m,): worst deviation of the 15 frame brackets from the
    structure equations (`_bracket_coefficients`).

    Every bracket of the six frame fields comes from one complex step of
    `frame`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    V, B = frame_fields(chart).brackets(pts)
    expected = np.einsum("ijk,mkd->mijd", _bracket_coefficients(), V)
    return np.max(np.abs(B - expected), axis=(1, 2, 3))


# -- chart transition ----------------------------------------------------------

def _stack_last(rows) -> np.ndarray:
    """The six coordinate arrays stacked as contiguous rows, viewed as (..., 6)."""
    return np.moveaxis(np.stack(rows), 0, -1)


def y_from_x(x: np.ndarray) -> np.ndarray:
    """y chart coordinates of one x point (6,) or a stack (..., 6)."""
    x0, x1, x2, x3, x4, x5 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    # numpy takes a power of a negative base tens of times slower than of a
    # positive one, so the cube is taken once
    x5_3 = x5 ** 3
    return _stack_last([
        x0 + x1 * x4 + 3 * x5 * x2 * x4 - x5_3 * x4 ** 2,
        x1 + x5_3 * x4,
        x2 - x5 ** 2 * x4,
        x3 + x5 * x4,
        x5,
        x4,
    ])


def x_from_y(y: np.ndarray) -> np.ndarray:
    """x chart coordinates of one y point (6,) or a stack (..., 6)."""
    y0, y1, y2, y3, y4, y5 = np.moveaxis(np.asarray(y, dtype=float), -1, 0)
    y4_3 = y4 ** 3
    return _stack_last([
        y0 - y1 * y5 - 3 * y2 * y4 * y5 - y4_3 * y5 ** 2,
        y1 - y4_3 * y5,
        y2 + y4 ** 2 * y5,
        y3 - y4 * y5,
        y5,
        y4,
    ])


def x_from_y_pushforward(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d(x_from_y) at y applied to v, written out column by column; (..., 6)."""
    y, v = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(v, dtype=float))
    _, y1, y2, _, y4, y5 = np.moveaxis(y, -1, 0)
    v0, v1, v2, v3, v4, v5 = np.moveaxis(v, -1, 0)
    y4y4 = y4 * y4
    return _stack_last([
        v0 - y5 * v1 - 3 * y4 * y5 * v2 - 3 * y5 * (y2 + y4y4 * y5) * v4
        - (y1 + 3 * y2 * y4 + 2 * y4y4 * y4 * y5) * v5,
        v1 - 3 * y4y4 * y5 * v4 - y4y4 * y4 * v5,
        v2 + 2 * y4 * y5 * v4 + y4y4 * v5,
        v3 - y5 * v4 - y4 * v5,
        v5,
        v4,
    ])


def x_from_y_jacobian(y: np.ndarray) -> np.ndarray:
    """J[i, j] = d x_i / d y_j at y (6,), or at each point of a stack (..., 6, 6)."""
    y = np.asarray(y, dtype=float)
    columns = x_from_y_pushforward(y[..., None, :], np.eye(FDIM))
    return np.swapaxes(columns, -1, -2)


# -- structure equations -------------------------------------------------------

#: d(w_i) as quadratic coefficients: (i, j, coef) meaning coef * w_i ^ w_j.
_EDS_RHS = {
    0: ((1, 4, 1.0), (2, 3, -3.0)),
    1: ((2, 5, 3.0),),
    2: ((3, 5, 2.0),),
    3: ((4, 5, 1.0),),
    4: (),
    5: (),
}


def eds_residuals(chart: str, points: np.ndarray) -> np.ndarray:
    """Per point (m,): worst coefficient error over the six structure equations.

    The error of an equation is the norm of its 2-form, the root of the sum
    of squared coefficients over i < j. The exterior derivatives are complex
    steps of the coframe's own entries, so the coframe is built once for the
    points and once for their copies.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    C = coframe(chart, pts)
    dw = exterior_derivative_stack(lambda q: coframe(chart, q), pts)
    rhs = np.zeros(dw.shape)
    for k, terms in _EDS_RHS.items():
        for i, j, coef in terms:
            wedge = coef * C[:, i, :, None] * C[:, j, None, :]
            rhs[:, k] += wedge - np.swapaxes(wedge, -1, -2)
    err = dw - rhs
    return np.max(np.sqrt(0.5 * np.sum(err * err, axis=(-2, -1))), axis=1)


# -- engine curves, lift, projection -------------------------------------------

#: The engine velocity u e_row + w e_col as `kernels.rk4_triangular` rates over
#: the controls (u, w): y4' = w from the controls alone, then y2' = -2 y4 u
#: from y4, then y0' = 3 y2 u, y1' = 3 y4^2 u and y3' = u, which no rate reads.
_ENGINE_RATES = (
    ((4,), lambda y, u: (u[1],)),
    ((2,), lambda y, u: (-2.0 * y[4] * u[0],)),
    ((0, 1, 3), lambda y, u: (3.0 * y[2] * u[0], 3.0 * y[4] ** 2 * u[0], u[0])),
)


@dataclasses.dataclass(frozen=True)
class D2Curve:
    times: np.ndarray       # (m,)
    states: np.ndarray      # (m, 5): y0..y4
    u: np.ndarray           # (m,)
    w: np.ndarray           # (m,)
    du: np.ndarray          # (m,)
    dw: np.ndarray          # (m,)


def integrate_d2_curve(u_spec, w_spec, duration: float, n_steps: int,
                       y0: Sequence[float] | None = None) -> D2Curve:
    """RK4 integration of the engine system y' = u e_row + w e_col.

    The system is triangular (`_ENGINE_RATES`), so `kernels.rk4_triangular`
    integrates it over whole columns, with the same stage values and the
    same additions as a per-step RK4 loop.
    """
    u_spec = ControlSpec.from_spec(u_spec)
    w_spec = ControlSpec.from_spec(w_spec)
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps!r}")
    start = np.zeros(5) if y0 is None else np.asarray(y0, dtype=float)
    if start.shape != (5,):
        raise ValueError("engine state must have 5 components")
    if not np.all(np.isfinite(start)):
        raise ValueError(f"engine state must be finite, got {start}")
    times, states, (u, w) = kernels.rk4_triangular(start, duration, n_steps,
                                                   (u_spec, w_spec), _ENGINE_RATES)
    return D2Curve(times, states, u, w, u_spec.derivatives(times), w_spec.derivatives(times))


@dataclasses.dataclass(frozen=True)
class LiftedCurve:
    times: np.ndarray       # (m,)
    states: np.ndarray      # (m, 6): y chart
    velocities: np.ndarray  # (m, 6)


def lift_curve(curve: D2Curve) -> LiftedCurve:
    """Canonical lift y5 = u / w; the curve must stay away from w = 0.

    The engine velocities are `_ENGINE_RATES`, the table the curve was
    integrated by, evaluated at the samples.
    """
    small = np.abs(curve.w) < LIFT_EPS
    if np.any(small):
        idx = int(np.argmax(small))
        raise LiftSingular(f"|w| < {LIFT_EPS:g} at sample {idx} "
                           f"(t = {curve.times[idx]:.6g})")
    y5 = curve.u / curve.w
    states = np.vstack([curve.states.T, y5]).T
    engine = [None] * 5
    for slots, rate in _ENGINE_RATES:
        for slot, value in zip(slots, rate(curve.states.T, (curve.u, curve.w))):
            engine[slot] = value
    vels = np.stack(engine + [(curve.du * curve.w - curve.u * curve.dw) / curve.w ** 2]).T
    return LiftedCurve(curve.times, states, vels)


@dataclasses.dataclass(frozen=True)
class ContactCurve:
    times: np.ndarray       # (m,)
    states: np.ndarray      # (m, 5): x0..x4
    velocities: np.ndarray  # (m, 5)
    cone_parameter: np.ndarray  # (m,): T = -y4 along the source curve


def project_to_contact(lifted: LiftedCurve) -> ContactCurve:
    """Push the lifted curve to the x chart and forget x5."""
    states = x_from_y(lifted.states)[:, :5]
    vels = x_from_y_pushforward(lifted.states, lifted.velocities)[:, :5]
    return ContactCurve(lifted.times, states, vels, -lifted.states[:, 4])


@dataclasses.dataclass(frozen=True)
class TangencyReport:
    angular: np.ndarray         # per-sample sine of angle to the cone direction
    contact: np.ndarray         # per-sample |w0(v)| / |v|
    skipped: int                # samples with negligible velocity
    worst_sample: int | None = None  # index of the largest angular value, if > ANGULAR_FLOOR

    @property
    def max_angular(self) -> float:
        return float(np.max(self.angular)) if len(self.angular) else 0.0

    @property
    def max_contact(self) -> float:
        return float(np.max(self.contact)) if len(self.contact) else 0.0

    def passed(self) -> bool:
        """At least one sample certified, and every certified one within both bounds."""
        return (len(self.angular) > 0 and self.max_angular <= ANGULAR_TOL
                and self.max_contact <= CONTACT_TOL)


def certify_twisted_cubic_tangency(curve: ContactCurve) -> TangencyReport:
    """Angular distance of projected velocities from the cubic cone direction.

    The projected velocity is decomposed against the contact Z frame of the x
    side: c = (v4, v3, v2, v1) plus the contact component w0(v). Tangency to
    the cone means c is parallel to d = (1, T, T^2, T^3) with T = -y4. The
    angle's sine is the projection residual |c - (c.d / d.d) d| / |c|, which
    resolves angles down to rounding, unlike sqrt(1 - cos^2).

    Every quantity is a whole column of samples, read from the velocity
    columns as they are stored, and T^3 is the product T^2 T.
    """
    x, v = curve.states.T, curve.velocities.T
    c0 = v[0] + v[4] * x[1] - 3.0 * v[3] * x[2]
    c = v[4], v[3], v[2], v[1]
    speed = np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
    skip = speed < SPEED_FLOOR
    keep = ~skip
    T = curve.cone_parameter
    if skip.any():
        c = tuple(column[keep] for column in c)
        c0, speed, T = c0[keep], speed[keep], T[keep]
    T2 = T * T
    T3 = T2 * T
    # each dot product sums its four terms in the pairs numpy's einsum takes
    along = (c[0] + c[2] * T2 + (c[1] * T + c[3] * T3)) / (1.0 + T2 * T2 + (T2 + T3 * T3))
    r = c[0] - along, c[1] - along * T, c[2] - along * T2, c[3] - along * T3
    angular = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + r[3] * r[3]) / speed
    k = np.argmax(angular) if len(angular) else None   # a nan comes first, and is named
    worst = None if k is None or angular[k] <= ANGULAR_FLOOR else int(np.flatnonzero(keep)[k])
    return TangencyReport(angular, np.abs(c0) / speed, int(np.count_nonzero(skip)), worst)


@dataclasses.dataclass(frozen=True)
class JoystickRun:
    engine: D2Curve
    lifted: LiftedCurve
    contact: ContactCurve
    report: TangencyReport


def run_joystick(u_spec, w_spec, duration: float = 2.0, n_steps: int = 400,
                 y0: Sequence[float] | None = None) -> JoystickRun:
    """Full pipeline: engine integration, lift, projection, certification."""
    engine = integrate_d2_curve(u_spec, w_spec, duration, n_steps, y0)
    lifted = lift_curve(engine)
    contact_curve = project_to_contact(lifted)
    report = certify_twisted_cubic_tangency(contact_curve)
    return JoystickRun(engine, lifted, contact_curve, report)

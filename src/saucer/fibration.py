"""Six-dimensional correspondence space and the joystick pipeline.

Two 6-coordinate charts, x and y, cover the correspondence space that fibers
over the 5-dimensional contact space on one side (forget x5) and over the
engine space on the other (forget y5). A global coframe
(w0, w1, w2, w3, w4, w7) satisfies the structure equations

    d w0 = w1 ^ w4 - 3 w2 ^ w3,    d w1 = 3 w2 ^ w7,    d w2 = 2 w3 ^ w7,
    d w3 = w4 ^ w7,                d w4 = 0,            d w7 = 0.

A joystick input is a pair of scalar controls (u, w): integrate the engine
curve, lift it through y5 = u/w, push it into the x chart, and certify that
the projected contact velocity is tangent to the twisted-cubic cone with
parameter T = -y4.
"""
from __future__ import annotations

import dataclasses
import numbers
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from . import kernels
from .forms import (DifferentialForm, FormValue, VectorField, bracket,
                    exterior_derivative)

FDIM = 6
FORM_LABELS = ("w0", "w1", "w2", "w3", "w4", "w7")
LIFT_EPS = 1e-6

_XS = sp.symbols("x0 x1 x2 x3 x4 x5", real=True)
_YS = sp.symbols("y0 y1 y2 y3 y4 y5", real=True)


class LiftSingular(ValueError):
    """w vanished along the curve; y5 = u/w has no continuous value."""


# -- charts and coframes -------------------------------------------------------

def _x_coframe_sym():
    x0, x1, x2, x3, x4, x5 = _XS
    return sp.Matrix([
        [1, 0, 0, -3 * x2, x1, 0],
        [0, 1, 3 * x5, 3 * x5 ** 2, x5 ** 3, 0],
        [0, 0, 1, 2 * x5, x5 ** 2, 0],
        [0, 0, 0, 1, x5, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, -1],
    ])


def _y_coframe_sym():
    y0, y1, y2, y3, y4, y5 = _YS
    return sp.Matrix([
        [1, -y5, -3 * y4 * y5, -3 * (y2 + y4 ** 2 * y5), 0, 0],
        [0, 1, 3 * y4, 3 * y4 ** 2, 0, 0],
        [0, 0, 1, 2 * y4, 0, 0],
        [0, 0, 0, 1, -y5, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
    ])


_COFRAME_SYM = {"x": (_x_coframe_sym, _XS), "y": (_y_coframe_sym, _YS)}


@lru_cache(maxsize=None)
def _coframe_fn(chart: str) -> Callable:
    builder, syms = _COFRAME_SYM[chart]
    return sp.lambdify(syms, builder(), modules="numpy")


def coframe(chart: str, p: np.ndarray) -> np.ndarray:
    """C[i, m]: coefficient of d(coord m) in form i, order FORM_LABELS."""
    if chart not in _COFRAME_SYM:
        raise ValueError(f"unknown chart {chart!r}")
    return np.asarray(_coframe_fn(chart)(*np.asarray(p, dtype=float)), dtype=float)


@lru_cache(maxsize=None)
def _frame_fns(chart: str):
    """Lambdified dual frame (columns) and per-column exact Jacobians."""
    builder, syms = _COFRAME_SYM[chart]
    E = builder().inv()
    cols = [sp.Matrix(E[:, j]) for j in range(FDIM)]
    col_fns = [sp.lambdify(syms, c, modules="numpy") for c in cols]
    jac_fns = [sp.lambdify(syms, c.jacobian(syms), modules="numpy") for c in cols]
    return col_fns, jac_fns


def frame(chart: str, p: np.ndarray) -> np.ndarray:
    """Columns are the frame vectors dual to the coframe: w^i(e_j) = delta."""
    col_fns, _ = _frame_fns(chart)
    p = np.asarray(p, dtype=float)
    return np.column_stack([np.asarray(f(*p), dtype=float).ravel() for f in col_fns])


def frame_field(chart: str, j: int) -> VectorField:
    """Frame vector e_j as a vector field on the chart, exact Jacobian."""
    col_fns, jac_fns = _frame_fns(chart)
    fv, fj = col_fns[j], jac_fns[j]
    name = f"{chart}-e{(0, 1, 2, 3, 4, 7)[j]}"

    def value(p: np.ndarray) -> np.ndarray:
        return np.asarray(fv(*p), dtype=float).ravel()

    def jacobian(p: np.ndarray) -> np.ndarray:
        return np.asarray(fj(*p), dtype=float)

    return VectorField(name, FDIM, value, jacobian)


#: Nonzero frame commutators, keyed by frame positions (0..4 = e0..e4, 5 = e7):
#: [e4, e7] = -e3, [e7, e3] = 2 e2, [e7, e2] = 3 e1, [e3, e2] = -3 e0,
#: [e4, e1] = e0; [e4, e2] and [e4, e0] vanish. Each coefficient is forced by
#: the structure equations through w^k([e_i, e_j]) = -dw^k(e_i, e_j), valid in
#: any coframe convention, and holds in both charts.
FRAME_COMMUTATORS = {
    (4, 5): {3: -1.0},
    (5, 3): {2: 2.0},
    (5, 2): {1: 3.0},
    (3, 2): {0: -3.0},
    (4, 2): {},
    (4, 0): {},
    (4, 1): {0: 1.0},
}


def verify_frame_commutators(chart: str, points: np.ndarray) -> float:
    """Worst deviation of the listed frame brackets from the stated table."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fields = [frame_field(chart, j) for j in range(FDIM)]
    worst = 0.0
    for (i, j), combo in FRAME_COMMUTATORS.items():
        for p in pts:
            got = bracket(fields[i], fields[j], p)
            expected = np.zeros(FDIM)
            F = frame(chart, p)
            for k, coef in combo.items():
                expected += coef * F[:, k]
            worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


# -- chart transition ----------------------------------------------------------

def y_from_x(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x0, x1, x2, x3, x4, x5 = x
    return np.array([
        x0 + x1 * x4 + 3 * x5 * x2 * x4 - x5 ** 3 * x4 ** 2,
        x1 + x5 ** 3 * x4,
        x2 - x5 ** 2 * x4,
        x3 + x5 * x4,
        x5,
        x4,
    ])


def x_from_y(y: np.ndarray) -> np.ndarray:
    """x chart coordinates of one y point (6,) or a stack (..., 6)."""
    y0, y1, y2, y3, y4, y5 = np.moveaxis(np.asarray(y, dtype=float), -1, 0)
    return np.stack([
        y0 - y1 * y5 - 3 * y2 * y4 * y5 - y4 ** 3 * y5 ** 2,
        y1 - y4 ** 3 * y5,
        y2 + y4 ** 2 * y5,
        y3 - y4 * y5,
        y5,
        y4,
    ], axis=-1)


def x_from_y_pushforward(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d(x_from_y) at y applied to v, written out column by column; (..., 6)."""
    y, v = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(v, dtype=float))
    _, y1, y2, _, y4, y5 = np.moveaxis(y, -1, 0)
    v0, v1, v2, v3, v4, v5 = np.moveaxis(v, -1, 0)
    y4y4 = y4 * y4
    return np.stack([
        v0 - y5 * v1 - 3 * y4 * y5 * v2 - 3 * y5 * (y2 + y4y4 * y5) * v4
        - (y1 + 3 * y2 * y4 + 2 * y4y4 * y4 * y5) * v5,
        v1 - 3 * y4y4 * y5 * v4 - y4y4 * y4 * v5,
        v2 + 2 * y4 * y5 * v4 + y4y4 * v5,
        v3 - y5 * v4 - y4 * v5,
        v5,
        v4,
    ], axis=-1)


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


def eds_residual(chart: str, points: np.ndarray) -> float:
    """Worst coefficient error in the six structure equations at the points.

    The exterior derivatives are taken by finite differences through the
    generic engine, so this exercises the coframe itself rather than any
    registered closed form.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    for k in range(FDIM):
        form = DifferentialForm(
            FORM_LABELS[k], FDIM, 1,
            lambda p, k=k: FormValue.covector(coframe(chart, p)[k]))
        for p in pts:
            d = exterior_derivative(form, p)
            C = coframe(chart, p)
            rhs = FormValue.zero(FDIM, 2)
            for i, j, coef in _EDS_RHS[k]:
                rhs = rhs + FormValue.covector(C[i]).wedge(
                    FormValue.covector(C[j])).scaled(coef)
            worst = max(worst, (d - rhs).norm())
    return worst


# -- joystick controls ---------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ControlSpec:
    """A scalar control with an exact (or finite-difference) derivative.

    Built from a real number (constant), a non-empty flat list of polynomial
    coefficients in increasing degree, a dict {"kind": "sin"|"cos",
    "amplitude", "frequency", "phase"} meaning amplitude * sin(frequency * t
    + phase), or any callable (derivative by central differences). Numbers
    must be finite.

    With `vectorized` set, value_fn and derivative_fn take an array of times
    and return an array, as the built-in kinds do; otherwise `values` and
    `derivatives` call them once per distinct time.
    """
    value_fn: Callable[[float], float]
    derivative_fn: Callable[[float], float]
    describe: str
    vectorized: bool = False

    def value(self, t: float) -> float:
        return float(self.value_fn(t))

    def derivative(self, t: float) -> float:
        return float(self.derivative_fn(t))

    def values(self, t: np.ndarray) -> np.ndarray:
        return self._sample(self.value_fn, t)

    def derivatives(self, t: np.ndarray) -> np.ndarray:
        return self._sample(self.derivative_fn, t)

    def _sample(self, fn, t) -> np.ndarray:
        if self.vectorized:
            return np.asarray(fn(np.asarray(t, dtype=float)), dtype=float)
        return kernels.at_distinct_times(fn, t)

    @staticmethod
    def from_spec(obj) -> "ControlSpec":
        if isinstance(obj, ControlSpec):
            return obj
        if isinstance(obj, numbers.Real):
            c = _finite(obj, "constant control")
            return ControlSpec(lambda t: np.full(np.shape(t), c),
                               lambda t: np.zeros(np.shape(t)),
                               f"const({c:g})", vectorized=True)
        if isinstance(obj, (list, tuple)):
            try:
                coeffs = np.asarray(obj, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"polynomial coefficients must be numbers: {exc}") from None
            if coeffs.ndim != 1 or len(coeffs) == 0:
                raise ValueError("polynomial coefficients must be a non-empty flat list")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError("polynomial coefficients must be finite")
            dcoeffs = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 \
                else np.zeros(1)
            return ControlSpec(
                lambda t: np.polynomial.polynomial.polyval(t, coeffs),
                lambda t: np.polynomial.polynomial.polyval(t, dcoeffs),
                f"poly({list(map(float, coeffs))})", vectorized=True)
        if isinstance(obj, dict):
            kind = obj.get("kind")
            if kind not in ("sin", "cos"):
                raise ValueError(f"unknown control kind {kind!r}")
            A = _finite(obj.get("amplitude", 1.0), "amplitude")
            f = _finite(obj.get("frequency", 1.0), "frequency")
            ph = _finite(obj.get("phase", 0.0), "phase")
            if kind == "sin":
                return ControlSpec(
                    lambda t: A * np.sin(f * t + ph),
                    lambda t: A * f * np.cos(f * t + ph),
                    f"sin(A={A:g}, f={f:g}, ph={ph:g})", vectorized=True)
            return ControlSpec(
                lambda t: A * np.cos(f * t + ph),
                lambda t: -A * f * np.sin(f * t + ph),
                f"cos(A={A:g}, f={f:g}, ph={ph:g})", vectorized=True)
        if callable(obj):
            h = 1e-6
            return ControlSpec(
                lambda t: float(obj(t)),
                lambda t: (float(obj(t + h)) - float(obj(t - h))) / (2.0 * h),
                "callable")
        raise TypeError(f"cannot build a control from {type(obj).__name__}")


def _finite(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


# -- engine curves, lift, projection -------------------------------------------

def _engine_rhs(y: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Engine velocity u e_row + w e_col along a stack of states (m, 5)."""
    y2, y4 = y[:, 2], y[:, 4]
    return np.column_stack([3.0 * y2 * u, 3.0 * y4 ** 2 * u, -2.0 * y4 * u, u, w])


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

    The system is triangular: y3' = u and y4' = w see only the controls,
    y2' = -2 y4 u and y1' = 3 y4^2 u see only y4, and y0' = 3 y2 u sees only
    y2. So each coordinate is integrated over whole columns once the ones it
    depends on are known, with the same stage values and the same additions
    as a per-step RK4 loop.
    """
    u_spec = ControlSpec.from_spec(u_spec)
    w_spec = ControlSpec.from_spec(w_spec)
    if duration <= 0.0 or n_steps < 1:
        raise ValueError("need positive duration and at least one step")
    start = np.zeros(5) if y0 is None else np.asarray(y0, dtype=float)
    if start.shape != (5,):
        raise ValueError("engine state must have 5 components")
    n = n_steps
    h = duration / n
    times = np.linspace(0.0, duration, n + 1)
    stage_times = kernels.rk4_stage_times(times, h)
    u_all, w_all = u_spec.values(stage_times), w_spec.values(stage_times)
    u = kernels.rk4_stage_values(u_all, n)
    w = kernels.rk4_stage_values(w_all, n)
    col = kernels.rk4_column
    y3 = col(start[3], h, *u)
    y4 = col(start[4], h, *w)
    y4_stages = kernels.rk4_stages(y4, h, *w[:3])
    slopes_y2 = [-2.0 * y4s * us for y4s, us in zip(y4_stages, u)]
    y2 = col(start[2], h, *slopes_y2)
    y2_stages = kernels.rk4_stages(y2, h, *slopes_y2[:3])
    y1 = col(start[1], h, *(3.0 * y4s ** 2 * us for y4s, us in zip(y4_stages, u)))
    slopes_y0 = (3.0 * y2s * us for y2s, us in zip(y2_stages, u))
    states = np.column_stack([col(start[0], h, *slopes_y0), y1, y2, y3, y4])
    return D2Curve(times, states, u_all[:n + 1], w_all[:n + 1],
                   u_spec.derivatives(times), w_spec.derivatives(times))


@dataclasses.dataclass(frozen=True)
class LiftedCurve:
    times: np.ndarray       # (m,)
    states: np.ndarray      # (m, 6): y chart
    velocities: np.ndarray  # (m, 6)


def lift_curve(curve: D2Curve) -> LiftedCurve:
    """Canonical lift y5 = u / w; the curve must stay away from w = 0."""
    small = np.abs(curve.w) < LIFT_EPS
    if np.any(small):
        idx = int(np.argmax(small))
        raise LiftSingular(f"|w| < {LIFT_EPS:g} at sample {idx} "
                           f"(t = {curve.times[idx]:.6g})")
    y5 = curve.u / curve.w
    states = np.column_stack([curve.states, y5])
    vels = np.column_stack([_engine_rhs(curve.states, curve.u, curve.w),
                            (curve.du * curve.w - curve.u * curve.dw) / curve.w ** 2])
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
    worst_sample: int | None = None  # curve index of the largest angular value

    @property
    def max_angular(self) -> float:
        return float(np.max(self.angular)) if len(self.angular) else 0.0

    @property
    def max_contact(self) -> float:
        return float(np.max(self.contact)) if len(self.contact) else 0.0


def certify_twisted_cubic_tangency(curve: ContactCurve,
                                   speed_floor: float = 1e-12) -> TangencyReport:
    """Angular distance of projected velocities from the cubic cone direction.

    The projected velocity is decomposed against the contact Z frame of the x
    side: c = (v4, v3, v2, v1) plus the contact component w0(v). Tangency to
    the cone means c is parallel to d = (1, T, T^2, T^3) with T = -y4. The
    angle's sine is the projection residual |c - (c.d / d.d) d| / |c|, which
    resolves angles down to rounding, unlike sqrt(1 - cos^2).
    """
    x, v = curve.states, curve.velocities
    c = v[:, [4, 3, 2, 1]]
    c0 = v[:, 0] + c[:, 0] * x[:, 1] - 3.0 * c[:, 1] * x[:, 2]
    speed = np.linalg.norm(c, axis=1)
    skip = speed < speed_floor
    keep = ~skip
    c, c0, speed = c[keep], c0[keep], speed[keep]
    T = curve.cone_parameter[keep]
    d = np.stack([np.ones_like(T), T, T ** 2, T ** 3], axis=1)
    along = np.einsum("ki,ki->k", c, d) / np.einsum("ki,ki->k", d, d)
    angular = np.linalg.norm(c - along[:, None] * d, axis=1) / speed
    worst = int(np.flatnonzero(keep)[np.argmax(angular)]) if len(angular) else None
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

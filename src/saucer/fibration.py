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
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import sympy as sp

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
    y = np.asarray(y, dtype=float)
    y0, y1, y2, y3, y4, y5 = y
    return np.array([
        y0 - y1 * y5 - 3 * y2 * y4 * y5 - y4 ** 3 * y5 ** 2,
        y1 - y4 ** 3 * y5,
        y2 + y4 ** 2 * y5,
        y3 - y4 * y5,
        y5,
        y4,
    ])


@lru_cache(maxsize=None)
def _x_from_y_jacobian_fn() -> Callable:
    y0, y1, y2, y3, y4, y5 = _YS
    exprs = sp.Matrix([
        y0 - y1 * y5 - 3 * y2 * y4 * y5 - y4 ** 3 * y5 ** 2,
        y1 - y4 ** 3 * y5,
        y2 + y4 ** 2 * y5,
        y3 - y4 * y5,
        y5,
        y4,
    ])
    return sp.lambdify(_YS, exprs.jacobian(_YS), modules="numpy")


def x_from_y_jacobian(y: np.ndarray) -> np.ndarray:
    return np.asarray(_x_from_y_jacobian_fn()(*np.asarray(y, dtype=float)), dtype=float)


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

    Built from a number (constant), a list of polynomial coefficients in
    increasing degree, a dict {"kind": "sin"|"cos", "amplitude", "frequency",
    "phase"} meaning amplitude * sin(frequency * t + phase), or any callable
    (derivative by central differences).
    """
    value_fn: Callable[[float], float]
    derivative_fn: Callable[[float], float]
    describe: str

    def value(self, t: float) -> float:
        return float(self.value_fn(t))

    def derivative(self, t: float) -> float:
        return float(self.derivative_fn(t))

    @staticmethod
    def from_spec(obj) -> "ControlSpec":
        if isinstance(obj, ControlSpec):
            return obj
        if isinstance(obj, (int, float)):
            c = float(obj)
            return ControlSpec(lambda t: c, lambda t: 0.0, f"const({c:g})")
        if isinstance(obj, (list, tuple)):
            coeffs = np.asarray(obj, dtype=float)
            dcoeffs = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 \
                else np.zeros(1)
            return ControlSpec(
                lambda t: float(np.polynomial.polynomial.polyval(t, coeffs)),
                lambda t: float(np.polynomial.polynomial.polyval(t, dcoeffs)),
                f"poly({list(map(float, coeffs))})")
        if isinstance(obj, dict):
            kind = obj.get("kind")
            if kind not in ("sin", "cos"):
                raise ValueError(f"unknown control kind {kind!r}")
            A = float(obj.get("amplitude", 1.0))
            f = float(obj.get("frequency", 1.0))
            ph = float(obj.get("phase", 0.0))
            if kind == "sin":
                return ControlSpec(
                    lambda t: A * np.sin(f * t + ph),
                    lambda t: A * f * np.cos(f * t + ph),
                    f"sin(A={A:g}, f={f:g}, ph={ph:g})")
            return ControlSpec(
                lambda t: A * np.cos(f * t + ph),
                lambda t: -A * f * np.sin(f * t + ph),
                f"cos(A={A:g}, f={f:g}, ph={ph:g})")
        if callable(obj):
            h = 1e-6
            return ControlSpec(
                lambda t: float(obj(t)),
                lambda t: (float(obj(t + h)) - float(obj(t - h))) / (2.0 * h),
                "callable")
        raise TypeError(f"cannot build a control from {type(obj).__name__}")


# -- engine curves, lift, projection -------------------------------------------

def _engine_rhs(y: np.ndarray, u: float, w: float) -> np.ndarray:
    return np.array([3.0 * y[2] * u, 3.0 * y[4] ** 2 * u, -2.0 * y[4] * u, u, w])


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
    """RK4 integration of the engine system y' = u e_row + w e_col."""
    u_spec = ControlSpec.from_spec(u_spec)
    w_spec = ControlSpec.from_spec(w_spec)
    if duration <= 0.0 or n_steps < 1:
        raise ValueError("need positive duration and at least one step")
    y = np.zeros(5) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (5,):
        raise ValueError("engine state must have 5 components")
    h = duration / n_steps
    times = np.linspace(0.0, duration, n_steps + 1)
    states = np.empty((n_steps + 1, 5))
    states[0] = y
    for k in range(n_steps):
        t = times[k]
        k1 = _engine_rhs(y, u_spec.value(t), w_spec.value(t))
        k2 = _engine_rhs(y + 0.5 * h * k1, u_spec.value(t + 0.5 * h),
                         w_spec.value(t + 0.5 * h))
        k3 = _engine_rhs(y + 0.5 * h * k2, u_spec.value(t + 0.5 * h),
                         w_spec.value(t + 0.5 * h))
        k4 = _engine_rhs(y + h * k3, u_spec.value(t + h), w_spec.value(t + h))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
    u = np.array([u_spec.value(t) for t in times])
    w = np.array([w_spec.value(t) for t in times])
    du = np.array([u_spec.derivative(t) for t in times])
    dw = np.array([w_spec.derivative(t) for t in times])
    return D2Curve(times, states, u, w, du, dw)


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
    vels = np.empty_like(states)
    for k in range(len(curve.times)):
        vels[k, :5] = _engine_rhs(curve.states[k], curve.u[k], curve.w[k])
    vels[:, 5] = (curve.du * curve.w - curve.u * curve.dw) / curve.w ** 2
    return LiftedCurve(curve.times, states, vels)


@dataclasses.dataclass(frozen=True)
class ContactCurve:
    times: np.ndarray       # (m,)
    states: np.ndarray      # (m, 5): x0..x4
    velocities: np.ndarray  # (m, 5)
    cone_parameter: np.ndarray  # (m,): T = -y4 along the source curve


def project_to_contact(lifted: LiftedCurve) -> ContactCurve:
    """Push the lifted curve to the x chart and forget x5."""
    m = len(lifted.times)
    states = np.empty((m, 5))
    vels = np.empty((m, 5))
    for k in range(m):
        y = lifted.states[k]
        x6 = x_from_y(y)
        v6 = x_from_y_jacobian(y) @ lifted.velocities[k]
        states[k] = x6[:5]
        vels[k] = v6[:5]
    return ContactCurve(lifted.times, states, vels, -lifted.states[:, 4].copy())


@dataclasses.dataclass(frozen=True)
class TangencyReport:
    angular: np.ndarray         # per-sample sine of angle to the cone direction
    contact: np.ndarray         # per-sample |w0(v)| / |v|
    skipped: int                # samples with negligible velocity

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
    return TangencyReport(angular, np.abs(c0) / speed, int(np.count_nonzero(skip)))


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

"""The maneuver control law, its controls and its flows.

Every mode, a `ManeuverMode`, steers along c1 Z1 + c2 Z2 + c3 Z3 + c4 Z4,
where the Z frame is Z1 = dx + a dz, Z2 = dy + b dz, Z3 = -3 db, Z4 = da.
`law` is the only place the law is written: each mode gives its c1..c4,
and one line expands them to the chart velocity (vx, vy, vz, va, vb).
Everything else evaluates it through `law`, `law_gradient` or `velocity`;
`flow` hands out the velocity at its endpoint, by `velocity`, with no
second evaluation of the law.

Under constant controls c3 and c4 do not depend on the state, so a and b
move linearly in t and the velocity along the flow is a polynomial in t of
degree at most 3. Simpson's rule over [0, t] is exact on such integrands,
so `flow` is a closed-form evaluation rather than a stepper, and
`rk4_constant` only samples it at even times.

Every control is a `ControlSpec`: a constant, a polynomial, a sine or
cosine, or any callable of time, with its derivative. A constant holds its
number in `constant`, which is how a program knows to take the closed form.
`sample` is the one rule by which a control is sampled: an `ArrayFunction`,
such as every built-in control kind, takes the whole time array in one call,
and any other callable of time is called once per distinct time.

Under time-varying controls the law is still triangular: c3 and c4 see only
the controls, and c1, c2 see only (a, b) and the controls. So is the
joystick's engine system. Every RK4 stage slope of every step is then known
before the states are, so `rk4_triangular`, the one time-varying integrator,
runs classical RK4 one coordinate at a time over whole columns, with each
control sampled once on the stage grid.

Long trajectories are stored in column storage: one contiguous row per
coordinate, (5, n), handed out as its (n, 5) transposed view. So
`rk4_constant` and `rk4_triangular` return (n, 5) arrays whose columns are
contiguous, and every column the law, the velocities and the residuals read
is a unit-stride run. `velocity` writes into a given `out`, so a caller
fills its final storage block by block, with no temporary and no copy.

Long stacks are evaluated in row blocks of `BLOCK_ROWS` rows (`row_blocks`):
`rk4_constant` here, and velocities and admissibility residuals in
`maneuvers`. A one-shot (200001,) column is larger than the cache and than
malloc's mmap threshold, so each of the tens of temporaries a 200k-step
evaluation makes would be faulted in as fresh pages; a block's temporaries
stay in cache and are reused from malloc's free lists. Every operation is
elementwise, so blocked results equal one-shot results bit for bit.
"""
from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from typing import Callable

import numpy as np

#: Kept for report payloads and benchmark records; there is one backend.
BACKEND = "python"


class ManeuverMode(enum.Enum):
    """The four maneuver modes, the one mode type; `law` tells them by identity."""
    ATTACKING = "attacking"
    LANDING = "landing"
    G2_SIMPLE = "g2s"
    G2_STRICT = "g2d"

    @classmethod
    def from_name(cls, name: str) -> "ManeuverMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown maneuver mode {name!r}; expected one of {valid}") from None


ATTACKING, LANDING, G2_SIMPLE, G2_STRICT = ManeuverMode

#: Rows per block of a long stacked evaluation; 8192 rows make a (8192,)
#: temporary of 64 KiB.
BLOCK_ROWS = 8192


def row_blocks(n: int):
    """The slices of at most `BLOCK_ROWS` rows that cover range(n), in order."""
    return (slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


def law(mode: ManeuverMode, a, b, u1, u2, u3) -> tuple:
    """Chart velocity (vx, vy, vz, va, vb) of the mode's control law at (a, b).

    Plain arithmetic only, so a, b and the controls may be floats, numpy
    arrays or sympy symbols. va and vb never depend on (a, b); x, y and z
    never enter the law.
    """
    if mode is ATTACKING:
        c1, c2, c3, c4 = 3.0 * u1 * u3, u2 * u3, u1, u2
    elif mode is LANDING:
        c1 = u3 * ((1.0 + b * b) * u2 + 3.0 * a * b * u1)
        c2 = -u3 * (a * b * u2 + 3.0 * (1.0 + a * a) * u1)
        c3, c4 = u1, u2
    elif mode is G2_SIMPLE:
        c1 = u1
        c2 = u1 * (u2 + u3)
        c3 = u1 * (u2 * u2 + 2.0 * u3 * u2)
        c4 = u1 * (u2 * u2 * u2 + 3.0 * u3 * u2 * u2)
    elif mode is G2_STRICT:
        c1, c2, c3, c4 = u1, u1 * u2, u1 * u2 * u2, u1 * u2 * u2 * u2
    else:
        raise ValueError(f"unknown maneuver mode {mode!r}")
    return c1, c2, c1 * a + c2 * b, c4, -3.0 * c3


def law_gradient(mode: ManeuverMode, a, b, u1, u2, u3) -> tuple:
    """d(vx, vy, vz)/d(a, b) of `law`, as (dvx/da, dvx/db, dvy/da, dvy/db,
    dvz/da, dvz/db); only the landing law's vx and vy depend on the state."""
    vx, vy, _, _, _ = law(mode, a, b, u1, u2, u3)
    if mode is not LANDING:
        return 0.0, 0.0, 0.0, 0.0, vx, vy
    xa, xb = 3.0 * b * u1 * u3, u3 * (2.0 * b * u2 + 3.0 * a * u1)
    ya, yb = -u3 * (b * u2 + 6.0 * a * u1), -u3 * a * u2
    return xa, xb, ya, yb, xa * a + vx + ya * b, xb * a + vy + yb * b


def velocity(mode: ManeuverMode, p, u1, u2, u3, out=None) -> np.ndarray:
    """Chart velocity of the control law at one point (5,) or a stack (m, 5).

    The controls may be scalars or, for a stack, per-row arrays. The
    velocity takes the points' dtype, so complex points give its complex step.
    Given `out` (p's shape, any layout), the velocity is written into it and
    `out` is returned.
    """
    p = np.asarray(p)
    v = law(mode, p.T[3], p.T[4], u1, u2, u3)
    if out is None:
        # promote_types costs a tenth of what result_type does on this hot path
        out = np.empty(p.shape, dtype=np.promote_types(p.dtype, float))
    columns = out.T
    columns[0], columns[1], columns[2], columns[3], columns[4] = v
    return out


def flow(mode: ManeuverMode, p0, u1, u2, u3, t, out=None) -> tuple:
    """The exact constant-control flow from p0 for time t, as (x, y, z, a, b).

    p0 holds (x0, y0, z0, a0, b0). Like `law`, it is plain arithmetic: the
    start coordinates, the controls and t may be Python floats or numpy
    columns that broadcast together, so one call moves one point, samples
    one leg at many times, or evaluates a different leg on every row. The
    value is p0 + t/6 (v(0) + 4 v(t/2) + v(t)), where va and vb are the
    start's and (vx, vy, vz) is taken at the three nodes. Columns are
    dropped as soon as they are spent, which bounds the memory of a long
    stacked call.

    Given `out` ((5,) or (m, 5), any layout), the endpoint's velocity v(t)
    is also written into it: `velocity` itself evaluates v(t), at the
    endpoint's (a, b) stored in out, and the sum reads its (vx, vy, vz) back,
    so the law is still evaluated once per node.
    """
    x0, y0, z0, a0, b0 = p0
    vx0, vy0, vz0, va, vb = law(mode, a0, b0, u1, u2, u3)
    a = t * va + a0
    b = t * vb + b0
    del va, vb
    # x, y, z hold 4 v(t/2), then add v(t) + v(0) in place (addition
    # commutes, so this rounds as (v(t) + v(0)) + 4 v(t/2) does)
    am, bm = 0.5 * (a + a0), 0.5 * (b + b0)
    x, y, z, va, vb = law(mode, am, bm, u1, u2, u3)
    del am, bm, va, vb
    x, y, z = 4.0 * x, 4.0 * y, 4.0 * z
    if out is None:
        vx, vy, vz, va, vb = law(mode, a, b, u1, u2, u3)
    else:
        # the last node by `velocity`, at the endpoint's (a, b) put in out:
        # every velocity the package stores is written by `velocity`, and
        # the benchmark's layer counters count its passes there
        columns = out.T
        columns[3], columns[4] = a, b
        vx, vy, vz, va, vb = velocity(mode, out, u1, u2, u3, out=out).T
    del va, vb
    x += vx + vx0
    y += vy + vy0
    z += vz + vz0
    del vx, vy, vz, vx0, vy0, vz0
    t = t / 6.0
    x = x * t + x0
    y = y * t + y0
    z = z * t + z0
    return x, y, z, a, b


def rk4_constant(mode: ManeuverMode, p0, u1: float, u2: float, u3: float,
                 duration: float, n_steps: int) -> np.ndarray:
    """States of the constant-control flow at n_steps + 1 even times; (n_steps + 1, 5).

    Each row is the exact `flow` at its time, which is also what classical
    RK4 returns at any step count. The rows are evaluated one `row_blocks`
    block at a time, each at its own slice of the times
    `np.linspace(0, duration, n_steps + 1)`, and written into (5, n_steps + 1)
    column storage, returned as its transpose.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    h = duration / n_steps
    out = np.empty((5, n_steps + 1))
    p0 = [float(v) for v in p0]
    for rows in row_blocks(n_steps + 1):
        # linspace's own samples: k * h + 0.0, then the last one set to duration
        t = np.arange(rows.start, rows.stop) * h
        if rows.start == 0:
            t[0] = 0.0
        if rows.stop == n_steps + 1:
            t[-1] = duration
        for column, value in zip(out[:, rows], flow(mode, p0, u1, u2, u3, t)):
            column[:] = value
    return out.T


class ArrayFunction:
    """A function of time that takes a whole array of times and returns their values.

    Wrapping a callable in this type is how it declares that one array call
    gives, elementwise, what one scalar call per time would; `sample` then
    makes that one call. Called directly, it is the wrapped function.
    """
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)


def sample(fn, t) -> np.ndarray:
    """fn over the array t: the one rule by which a control is sampled.

    An `ArrayFunction` is called once with the whole array; any other
    callable is called once per distinct time, always with one scalar time.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(fn, ArrayFunction):
        return np.asarray(fn(t), dtype=float)
    distinct, where = np.unique(t, return_inverse=True)
    values = np.array([float(fn(s)) for s in distinct.tolist()])
    return values[where.reshape(t.shape)]


@dataclasses.dataclass(frozen=True)
class ControlSpec:
    """A scalar control of time with its derivative: the one type of every control.

    `from_spec` builds one from a real number (a constant, which `constant`
    then holds; it is None for every other kind), a non-empty flat list of
    polynomial coefficients in increasing degree, a dict {"kind":
    "sin"|"cos", "amplitude", "frequency", "phase"} meaning amplitude *
    sin(frequency * t + phase), or any callable (derivative by central
    differences). Every number must be finite, and true, false and strings
    are not numbers.

    `values` and `derivatives` sample value_fn and derivative_fn through
    `sample`. The built-in kinds, and a callable that is itself an
    `ArrayFunction`, wrap both in `ArrayFunction`, so each samples a whole
    time array in one call, also when value_fn is passed on alone; a plain
    callable is called once per distinct time.
    """
    value_fn: Callable[[float], float]
    derivative_fn: Callable[[float], float]
    describe: str
    constant: float | None = None

    def value(self, t: float) -> float:
        return float(self.value_fn(t))

    def derivative(self, t: float) -> float:
        return float(self.derivative_fn(t))

    def values(self, t: np.ndarray) -> np.ndarray:
        return sample(self.value_fn, t)

    def derivatives(self, t: np.ndarray) -> np.ndarray:
        return sample(self.derivative_fn, t)

    @staticmethod
    def from_spec(obj) -> "ControlSpec":
        if isinstance(obj, ControlSpec):
            return obj
        if isinstance(obj, numbers.Real):
            c = _finite(obj, "constant control")
            return _array_spec(lambda t: np.full(np.shape(t), c),
                               lambda t: np.zeros(np.shape(t)), f"const({c:g})", c)
        if isinstance(obj, (list, tuple)):
            if not obj:
                raise ValueError("polynomial coefficients must be a non-empty flat list")
            coeffs = np.array([_finite(c, "polynomial coefficient") for c in obj])
            dcoeffs = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 \
                else np.zeros(1)
            return _array_spec(lambda t: np.polynomial.polynomial.polyval(t, coeffs),
                               lambda t: np.polynomial.polynomial.polyval(t, dcoeffs),
                               f"poly({list(map(float, coeffs))})")
        if isinstance(obj, dict):
            kind = obj.get("kind")
            if kind not in ("sin", "cos"):
                raise ValueError(f"unknown control kind {kind!r}")
            A = _finite(obj.get("amplitude", 1.0), "amplitude")
            f = _finite(obj.get("frequency", 1.0), "frequency")
            ph = _finite(obj.get("phase", 0.0), "phase")
            if kind == "sin":
                return _array_spec(lambda t: A * np.sin(f * t + ph),
                                   lambda t: A * f * np.cos(f * t + ph),
                                   f"sin(A={A:g}, f={f:g}, ph={ph:g})")
            return _array_spec(lambda t: A * np.cos(f * t + ph),
                               lambda t: -A * f * np.sin(f * t + ph),
                               f"cos(A={A:g}, f={f:g}, ph={ph:g})")
        if callable(obj):
            h = 1e-6
            if isinstance(obj, ArrayFunction):
                return _array_spec(obj.fn, lambda t: (obj(t + h) - obj(t - h)) / (2.0 * h),
                                   "callable")
            return ControlSpec(
                lambda t: float(obj(t)),
                lambda t: (float(obj(t + h)) - float(obj(t - h))) / (2.0 * h),
                "callable")
        raise TypeError(f"cannot build a control from {type(obj).__name__}")


def _array_spec(value_fn, derivative_fn, describe: str, constant=None) -> ControlSpec:
    """A spec whose two functions each take a whole array of times."""
    return ControlSpec(ArrayFunction(value_fn), ArrayFunction(derivative_fn), describe,
                       constant)


def _finite(value, what: str) -> float:
    """value as a float; a ValueError unless it is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def rk4_triangular(start, duration: float, n: int, controls, rates) -> tuple:
    """Classical RK4 over n steps of a triangular system y' = f(y, u(t)).

    `rates` lists (slots, rate) pairs in integration order: rate(y, u) gives
    the slopes of its slots from the controls u and from the slots of y that
    earlier pairs integrate. Each control (a `ControlSpec`) is sampled once,
    on the step times, then every step's midpoint t + h/2, then its end
    t + h. A pair's four stage slopes at every step are then known before its
    own values are, so each slot is integrated over its whole column: the
    increments (h/6)(k1 + 2 k2 + 2 k3 + k4) are summed in order by
    `np.cumsum`, and the stage values are formed as y + (h/2) k1,
    y + (h/2) k2, y + h k3, the same arithmetic as a per-step loop. No rate
    reads the last pair's slots, so their stage values are never formed.

    Returns the n + 1 step times, the states (n + 1, len(start)), the
    transpose of their (len(start), n + 1) column storage, and each control at
    the step times.
    """
    h = duration / n
    times = np.linspace(0.0, duration, n + 1)
    grid = np.concatenate([times, times[:-1] + 0.5 * h, times[:-1] + h])
    sampled = [control.values(grid) for control in controls]
    stage_controls = [[u[lo:lo + n] for u in sampled] for lo in (0, n + 1, n + 1, 2 * n + 1)]
    stage_states = [[None] * len(start) for _ in range(4)]
    columns = [None] * len(start)
    for i, (slots, rate) in enumerate(rates):
        slopes = [rate(y, u) for y, u in zip(stage_states, stage_controls)]
        for slot, (k1, k2, k3, k4) in zip(slots, zip(*slopes)):
            inc = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            columns[slot] = column = np.cumsum(np.concatenate(([start[slot]], inc)))
            if i < len(rates) - 1:
                y = column[:-1]
                for stage, value in zip(stage_states, (y, y + 0.5 * h * k1, y + 0.5 * h * k2,
                                                       y + h * k3)):
                    stage[slot] = value
    return times, np.stack(columns).T, [u[:n + 1] for u in sampled]

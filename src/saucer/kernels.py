"""The maneuver control law and its exact constant-control flows.

Every mode steers along c1 Z1 + c2 Z2 + c3 Z3 + c4 Z4, where the Z frame is
Z1 = dx + a dz, Z2 = dy + b dz, Z3 = -3 db, Z4 = da and the coefficients
c1..c4 come from `zcoeffs`. This module is the only place the law is
written; everything else evaluates it through `zcoeffs` or `velocity`.

Under constant controls c3 and c4 do not depend on the state, so a and b
move linearly in t and the velocity along the flow is a polynomial in t of
degree at most 3. Simpson's rule over [0, t] is exact on such integrands,
which makes `rk4_constant` a closed-form evaluation rather than a stepper.

Under time-varying controls the law is still triangular: c3 and c4 see only
the controls, and c1, c2 see only (a, b) and the controls. Every RK4 stage
slope of every step is then known before the states are, so
`rk4_stages` and `rk4_column` run classical RK4 one coordinate at a time over
whole columns. The controls are sampled once on `rk4_stage_times`, by
`at_distinct_times` when a control is a scalar callable.
"""
from __future__ import annotations

import numpy as np

#: Kept for report payloads and benchmark records; there is one backend.
BACKEND = "python"

ATTACKING, LANDING, G2_SIMPLE, G2_STRICT = 0, 1, 2, 3


def zcoeffs(mode: int, a, b, u1, u2, u3):
    """Z-frame coefficients (c1, c2, c3, c4) of the mode's control law.

    Plain arithmetic only, so a, b and the controls may be floats, numpy
    arrays or sympy symbols. c3 and c4 never depend on (a, b).
    """
    if mode == ATTACKING:
        return 3.0 * u1 * u3, u2 * u3, u1, u2
    if mode == LANDING:
        c1 = u3 * ((1.0 + b * b) * u2 + 3.0 * a * b * u1)
        c2 = -u3 * (a * b * u2 + 3.0 * (1.0 + a * a) * u1)
        return c1, c2, u1, u2
    if mode == G2_SIMPLE:
        return (u1,
                u1 * (u2 + u3),
                u1 * (u2 * u2 + 2.0 * u3 * u2),
                u1 * (u2 * u2 * u2 + 3.0 * u3 * u2 * u2))
    if mode == G2_STRICT:
        return u1, u1 * u2, u1 * u2 * u2, u1 * u2 * u2 * u2
    raise ValueError("unknown mode id %r" % (mode,))


def zcoeff_grads(mode: int, a, b, u1, u2, u3):
    """(d/da, d/db) of (c1, c2); only the landing law depends on the state."""
    if mode == LANDING:
        return ((3.0 * b * u1 * u3, -u3 * (b * u2 + 6.0 * a * u1)),
                (u3 * (2.0 * b * u2 + 3.0 * a * u1), -u3 * a * u2))
    if mode in (ATTACKING, G2_SIMPLE, G2_STRICT):
        return (0.0, 0.0), (0.0, 0.0)
    raise ValueError("unknown mode id %r" % (mode,))


def velocity(mode: int, p, u1, u2, u3) -> np.ndarray:
    """Chart velocity of the control law at one point (5,) or a stack (m, 5).

    The controls may be scalars or, for a stack, per-row arrays.
    """
    p = np.asarray(p, dtype=float)
    a, b = p.T[3], p.T[4]
    c1, c2, c3, c4 = zcoeffs(mode, a, b, u1, u2, u3)
    out = np.empty(p.shape)
    out.T[0] = c1
    out.T[1] = c2
    out.T[2] = c1 * a + c2 * b
    out.T[3] = c4
    out.T[4] = -3.0 * c3
    return out


def rk4_constant(mode: int, p0, u1: float, u2: float, u3: float,
                 duration: float, n_steps: int) -> np.ndarray:
    """States of the constant-control flow at n_steps + 1 even times; (n_steps + 1, 5).

    Each row is p0 + t/6 (v(0) + 4 v(t/2) + v(t)), the exact flow at time t,
    which is also what classical RK4 returns at any step count.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    x0, y0, z0, a0, b0 = (float(v) for v in p0)
    c1_0, c2_0, c3, c4 = zcoeffs(mode, a0, b0, u1, u2, u3)
    out = np.empty((n_steps + 1, 5))
    x, y, z, a, b = out.T
    t = np.linspace(0.0, duration, n_steps + 1)
    np.multiply(t, c4, out=a)
    a += a0
    np.multiply(t, -3.0 * c3, out=b)
    b += b0
    # the x, y, z columns accumulate v(0) + v(t) + 4 v(t/2), then scale by t/6
    c1, c2, _, _ = zcoeffs(mode, a, b, u1, u2, u3)
    x[:] = c1 + c1_0
    y[:] = c2 + c2_0
    z[:] = c1 * a + c2 * b + (c1_0 * a0 + c2_0 * b0)
    am, bm = 0.5 * (a + a0), 0.5 * (b + b0)
    c1, c2, _, _ = zcoeffs(mode, am, bm, u1, u2, u3)
    x += 4.0 * c1
    y += 4.0 * c2
    z += 4.0 * (c1 * am + c2 * bm)
    t /= 6.0
    for column, start in ((x, x0), (y, y0), (z, z0)):
        column *= t
        column += start
    return out


def at_distinct_times(fn, t) -> np.ndarray:
    """float(fn(s)) for every s in the array t, calling fn once per distinct s.

    fn is only ever called with one scalar time, never with an array.
    """
    t = np.asarray(t, dtype=float)
    distinct, where = np.unique(t, return_inverse=True)
    values = np.array([float(fn(s)) for s in distinct.tolist()])
    return values[where.reshape(t.shape)]


def rk4_stage_times(times: np.ndarray, h: float) -> np.ndarray:
    """The step times, then every step's midpoint t + h/2, then its end t + h.

    A control is sampled on these (3n + 1,) times once; `rk4_stage_values`
    then hands each RK4 stage its part.
    """
    return np.concatenate([times, times[:-1] + 0.5 * h, times[:-1] + h])


def rk4_stage_values(sampled: np.ndarray, n: int) -> list:
    """Split a sampling on `rk4_stage_times` into the four stages of n steps.

    The stages of a step at t see t, t + h/2, t + h/2 and t + h; the values at
    the n + 1 step times themselves are sampled[:n + 1].
    """
    return [sampled[lo:lo + n] for lo in (0, n + 1, n + 1, 2 * n + 1)]


def rk4_stages(column: np.ndarray, h: float, k1, k2, k3) -> tuple:
    """The four RK4 stage values of one coordinate at every step.

    column holds the coordinate at the n + 1 step times and k1..k3 its stage
    slopes at the n steps; each stage is formed exactly as the per-step
    update y + (h/2) k1, y + (h/2) k2, y + h k3 forms it.
    """
    start = column[:-1]
    return start, start + 0.5 * h * k1, start + 0.5 * h * k2, start + h * k3


def rk4_column(start: float, h: float, k1, k2, k3, k4) -> np.ndarray:
    """Classical RK4 values of one coordinate whose n stage slopes are known.

    The increments (h/6)(k1 + 2 k2 + 2 k3 + k4) are summed in order by
    `np.cumsum`, the same additions a per-step loop makes; (n + 1,).
    """
    inc = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.cumsum(np.concatenate(([start], inc)))

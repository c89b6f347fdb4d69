"""Independent endpoint oracle for constant-control maneuver flows.

The control law below is written out again from the Z-frame coefficients of
each maneuver mode, and the integrator is a plain classical RK4, so a wrong
integrator or law inside saucer cannot also make this oracle agree.
`constraint_residuals` cannot catch a wrong integrator: it rebuilds the
velocities from the same law at whatever states it is handed.

Under constant controls a and b move linearly in t, x and y are polynomials
of degree at most 3, and the z integrand has degree at most 3, so RK4 is
exact on these flows at any step; a coarse step agrees with a fine one up to
rounding.
"""
from __future__ import annotations

ORACLE_STEPS = 64

#: Endpoint agreement required, relative to max(1, |endpoint|_inf).
ORACLE_TOL = 1e-9


def _zcoeffs(mode: str, a: float, b: float, u1: float, u2: float, u3: float):
    if mode == "attacking":
        return 3.0 * u1 * u3, u2 * u3, u1, u2
    if mode == "landing":
        return (u3 * ((1.0 + b * b) * u2 + 3.0 * a * b * u1),
                -u3 * (a * b * u2 + 3.0 * (1.0 + a * a) * u1), u1, u2)
    if mode == "g2s":
        return (u1, u1 * (u2 + u3), u1 * u2 * (u2 + 2.0 * u3),
                u1 * u2 * u2 * (u2 + 3.0 * u3))
    if mode == "g2d":
        return u1, u1 * u2, u1 * u2 * u2, u1 * u2 * u2 * u2
    raise ValueError(f"unknown mode {mode!r}")


def velocity(mode: str, p, u1: float, u2: float, u3: float) -> list[float]:
    """c1 Z1 + c2 Z2 + c3 Z3 + c4 Z4 at p = (x, y, z, a, b)."""
    a, b = p[3], p[4]
    c1, c2, c3, c4 = _zcoeffs(mode, a, b, u1, u2, u3)
    return [c1, c2, c1 * a + c2 * b, c4, -3.0 * c3]


def endpoint(mode: str, p0, controls, duration: float,
             steps: int = ORACLE_STEPS) -> list[float]:
    """Classical RK4 endpoint of the constant-control flow from p0."""
    h = duration / steps
    p = [float(v) for v in p0]
    for _ in range(steps):
        k1 = velocity(mode, p, *controls)
        k2 = velocity(mode, [q + 0.5 * h * k for q, k in zip(p, k1)], *controls)
        k3 = velocity(mode, [q + 0.5 * h * k for q, k in zip(p, k2)], *controls)
        k4 = velocity(mode, [q + h * k for q, k in zip(p, k3)], *controls)
        p = [q + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for q, d1, d2, d3, d4 in zip(p, k1, k2, k3, k4)]
    return p


def endpoint_error(mode: str, p0, controls, duration: float, got) -> float:
    """Sup-norm gap between got and the oracle endpoint, relative to its size."""
    want = endpoint(mode, p0, controls, duration)
    scale = max(1.0, max(abs(v) for v in want))
    return max(abs(float(g) - w) for g, w in zip(got, want)) / scale

"""Maneuver laws: admissibility, nullity, and trajectory integration."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import chart, gl2
from saucer.maneuvers import (
    ChartEscapeWarning,
    ControlProgram,
    ManeuverMode,
    ambient_nullity_pair,
    constraint_residuals,
    integrate_trajectory,
    maneuver_velocity,
)

ctrl = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coord = st.floats(-1.2, 1.2, allow_nan=False, allow_infinity=False)


def _g2_components(mode, p, u1, u2, u3):
    """Coefficients of the velocity against the quartic-mode coframe."""
    v = maneuver_velocity(mode, p, u1, u2, u3)
    # (dx, dy, -db/3, da) applied to v
    return np.array([v[0], v[1], -v[4] / 3.0, v[3]])


@given(coord, coord, ctrl, ctrl, ctrl)
@settings(max_examples=80, deadline=None)
def test_every_mode_satisfies_contact_constraint(a, b, u1, u2, u3):
    p = chart.point(0.3, -0.1, 0.2, a, b)
    for mode in ManeuverMode:
        v = maneuver_velocity(mode, p, u1, u2, u3)
        assert abs(chart.contact_value(p, v)) < 1e-12


@given(coord, coord, ctrl, ctrl, ctrl)
@settings(max_examples=80, deadline=None)
def test_each_mode_is_null_for_its_own_tensor(a, b, u1, u2, u3):
    p = chart.point(0.0, 0.0, 0.0, a, b)
    v = maneuver_velocity(ManeuverMode.ATTACKING, p, u1, u2, u3)
    assert abs(v[3] * v[0] + v[4] * v[1]) < 1e-10
    v = maneuver_velocity(ManeuverMode.LANDING, p, u1, u2, u3)
    g = 2 * ((1 + a * a) * v[4] - a * b * v[3]) * v[0] \
        - 2 * ((1 + b * b) * v[3] - a * b * v[4]) * v[1]
    assert abs(g) < 1e-9
    for mode in (ManeuverMode.G2_SIMPLE, ManeuverMode.G2_STRICT):
        c = _g2_components(mode, p, u1, u2, u3)
        assert abs(gl2.quartic_upsilon(c)) < 1e-9


def test_g2_simple_is_type_ii_off_the_strict_cone():
    p = chart.point(0.0, 0.0, 0.0, 0.2, -0.4)
    c = _g2_components(ManeuverMode.G2_SIMPLE, p, 1.3, 0.7, 0.9)
    assert gl2.classify_direction(c) is gl2.NullClass.TYPE_II


def test_g2_strict_directions_are_type_n():
    p = chart.point(0.0, 0.0, 0.0, 0.0, 0.0)
    for t in (-1.5, -0.3, 0.0, 0.8, 2.0):
        c = _g2_components(ManeuverMode.G2_STRICT, p, 1.0, t, 0.0)
        assert gl2.classify_direction(c) is gl2.NullClass.TYPE_N


def test_ambient_nullity_pair_vanishes_for_attacking():
    p = chart.point(0.1, 0.2, -0.3, 0.4, 0.5)
    v = maneuver_velocity(ManeuverMode.ATTACKING, p, 0.9, -1.1, 0.6)
    q1, q2 = ambient_nullity_pair(p, v)
    assert abs(q1) < 1e-10 and abs(q2) < 1e-10


def test_ambient_nullity_pair_nonzero_off_variety():
    p = chart.point(0.0, 0.0, 0.0, 0.3, 0.1)
    v = np.array([1.0, 0.0, 0.3, 1.0, 0.0])  # contact holds; metric fails
    q1, q2 = ambient_nullity_pair(p, v)
    assert min(abs(q1), abs(q2)) > 1e-3
    assert abs(q1 - q2) < 1e-12


def test_constant_program_runs_and_certifies():
    prog = ControlProgram(ManeuverMode.ATTACKING, 0.4, -0.5, 0.4,
                          duration=1.0, dt=1e-3)
    traj = integrate_trajectory(prog, chart.point(0, 0, 0, 0, 0))
    assert traj.states.shape == (1001, 5)
    report = constraint_residuals(traj)
    assert report.passed()
    assert report.max_contact < 1e-9


def test_callable_controls_match_constant_when_constant():
    p0 = chart.point(0.0, 0.0, 0.0, 0.1, -0.2)
    fast = ControlProgram(ManeuverMode.LANDING, 0.7, 0.3, -0.6,
                          duration=0.8, dt=1e-3)
    slow = ControlProgram(ManeuverMode.LANDING,
                          lambda t: 0.7, lambda t: 0.3, lambda t: -0.6,
                          duration=0.8, dt=1e-3)
    t1 = integrate_trajectory(fast, p0)
    t2 = integrate_trajectory(slow, p0)
    np.testing.assert_allclose(t1.endpoint, t2.endpoint, atol=1e-12)


def test_time_varying_controls_integrate():
    prog = ControlProgram(ManeuverMode.G2_STRICT,
                          lambda t: 1.0, lambda t: t, lambda t: 0.0,
                          duration=1.0, dt=1e-3)
    traj = integrate_trajectory(prog, chart.point(0, 0, 0, 0, 0))
    assert constraint_residuals(traj).passed()


def test_chart_escape_warns():
    prog = ControlProgram(ManeuverMode.ATTACKING, 5.0, 5.0, 5.0,
                          duration=4.0, dt=1e-3)
    with pytest.warns(ChartEscapeWarning):
        integrate_trajectory(prog, chart.point(0, 0, 0, 0, 0))


def test_program_validation():
    with pytest.raises(ValueError):
        ControlProgram(ManeuverMode.ATTACKING, 1.0, 0.0, 0.0, duration=1.0,
                       dt=0.0)
    with pytest.raises(ValueError):
        ControlProgram(ManeuverMode.ATTACKING, 1.0, 0.0, 0.0, duration=1.0,
                       dt=-1e-3)


def test_landing_law_components():
    a, b = 0.4, -0.7
    p = chart.point(0.0, 0.0, 0.0, a, b)
    u1, u2, u3 = 0.9, -1.2, 0.5
    v = maneuver_velocity(ManeuverMode.LANDING, p, u1, u2, u3)
    c1 = u3 * ((1 + b * b) * u2 + 3 * a * b * u1)
    c2 = -u3 * (a * b * u2 + 3 * (1 + a * a) * u1)
    np.testing.assert_allclose(
        v, [c1, c2, c1 * a + c2 * b, u2, -3 * u1], atol=1e-13)


def _rk4_loop(program, p0):
    """Per-step classical RK4 of the control law, one sample at a time."""
    n_steps = max(1, int(round(program.duration / program.dt)))
    h = program.duration / n_steps
    times = np.linspace(0.0, program.duration, n_steps + 1)

    def f(t, p):
        return maneuver_velocity(program.mode, p, *program.controls_at(t))

    p = np.asarray(p0, dtype=float)
    states = [p]
    for t in times[:-1]:
        k1 = f(t, p)
        k2 = f(t + 0.5 * h, p + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, p + 0.5 * h * k2)
        k4 = f(t + h, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(p)
    states = np.array(states)
    vels = np.array([f(t, q) for t, q in zip(times, states)])
    return states, vels


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_time_varying_integration_matches_per_step_rk4(mode):
    p0 = chart.point(0.1, -0.2, 0.3, 0.4, -0.5)
    for controls in ((lambda t: 0.5 * np.sin(2.0 * t + 0.3),
                      lambda t: 0.4 * np.cos(1.3 * t), lambda t: 0.2 + 0.1 * t),
                     (0.3, lambda t: t * t - 0.2, -0.4)):
        prog = ControlProgram(mode, *controls, duration=0.9, dt=3e-3)
        traj = integrate_trajectory(prog, p0)
        states, vels = _rk4_loop(prog, p0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12,
                                   atol=1e-12 * np.abs(states).max())
        np.testing.assert_allclose(traj.velocities, vels, rtol=1e-12,
                                   atol=1e-12 * np.abs(vels).max())

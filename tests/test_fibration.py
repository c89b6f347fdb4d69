"""Six-dimensional coframes, the chart transition, and the joystick pipeline."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import fibration
from saucer.sampling import rng_for

coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
safe = st.floats(0.3, 1.5, allow_nan=False, allow_infinity=False)


def _pts6(seed, n):
    return rng_for(seed, "test-fib").uniform(-1.5, 1.5, size=(n, 6))


def test_structure_equations_both_charts():
    for chart in ("x", "y"):
        worst = fibration.eds_residual(chart, _pts6(31, 12))
        assert worst < 1e-7, chart


def test_coframe_frame_duality():
    for chart in ("x", "y"):
        for p in _pts6(32, 6):
            C = fibration.coframe(chart, p)
            F = fibration.frame(chart, p)
            np.testing.assert_allclose(C @ F, np.eye(6), atol=1e-12)


@given(coord, coord, coord, coord, safe, coord)
@settings(max_examples=80, deadline=None)
def test_transition_roundtrip(x0, x1, x2, x3, x4, x5):
    x = np.array([x0, x1, x2, x3, x4, x5])
    y = fibration.y_from_x(x)
    back = fibration.x_from_y(y)
    np.testing.assert_allclose(back, x, atol=1e-12 * max(1.0, np.abs(x).max()))


def test_transition_pinned_example():
    x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    np.testing.assert_allclose(
        fibration.y_from_x(x), [-1.0, 1.0, -1.0, 1.0, 1.0, 1.0], atol=1e-14)


def test_transition_jacobian_matches_difference_quotient():
    y = np.array([0.3, -0.2, 0.5, 0.1, 0.7, -0.4])
    J = fibration.x_from_y_jacobian(y)
    eps = 1e-6
    for i in range(6):
        dy = np.zeros(6)
        dy[i] = eps
        quotient = (fibration.x_from_y(y + dy) - fibration.x_from_y(y - dy)) / (2 * eps)
        np.testing.assert_allclose(J[:, i], quotient, atol=1e-7)


def test_frame_commutators_match_table():
    for chart in ("x", "y"):
        worst = fibration.verify_frame_commutators(chart, _pts6(33, 8))
        assert worst < 1e-8, chart


def test_commutator_table_is_consistent_with_the_eds():
    # w^k([e_i, e_j]) = -dw^k(e_i, e_j) ties the table to the 2-form data.
    assert fibration.FRAME_COMMUTATORS[(4, 5)] == {3: -1.0}
    assert fibration.FRAME_COMMUTATORS[(5, 3)] == {2: 2.0}
    assert fibration.FRAME_COMMUTATORS[(5, 2)] == {1: 3.0}
    assert fibration.FRAME_COMMUTATORS[(3, 2)] == {0: -3.0}
    assert fibration.FRAME_COMMUTATORS[(4, 1)] == {0: 1.0}
    assert fibration.FRAME_COMMUTATORS[(4, 2)] == {}
    assert fibration.FRAME_COMMUTATORS[(4, 0)] == {}


def test_control_spec_constant_poly_trig_callable():
    c = fibration.ControlSpec.from_spec(2.5)
    assert c.value(3.0) == 2.5 and c.derivative(3.0) == 0.0
    p = fibration.ControlSpec.from_spec([1.0, 0.0, 2.0])  # 1 + 2 t^2
    assert abs(p.value(2.0) - 9.0) < 1e-12
    assert abs(p.derivative(2.0) - 8.0) < 1e-12
    s = fibration.ControlSpec.from_spec(
        {"kind": "sin", "amplitude": 2.0, "frequency": 3.0})
    assert abs(s.value(0.5) - 2.0 * np.sin(1.5)) < 1e-12
    assert abs(s.derivative(0.5) - 6.0 * np.cos(1.5)) < 1e-12
    f = fibration.ControlSpec.from_spec(lambda t: t ** 3)
    assert abs(f.derivative(1.0) - 3.0) < 1e-5
    with pytest.raises(ValueError):
        fibration.ControlSpec.from_spec({"kind": "square"})
    with pytest.raises(TypeError):
        fibration.ControlSpec.from_spec("fast")


def test_engine_closed_form_solution():
    # With u = w = 1 from the origin: y = (-t^3, t^3, -t^2, t, t).
    run = fibration.integrate_d2_curve(1.0, 1.0, duration=1.0, n_steps=200)
    t = run.times
    expected = np.column_stack([-t ** 3, t ** 3, -t ** 2, t, t])
    np.testing.assert_allclose(run.states, expected, atol=1e-10)


def test_lift_rejects_vanishing_w():
    run = fibration.integrate_d2_curve(1.0, lambda t: t - 0.5,
                                       duration=1.0, n_steps=100)
    with pytest.raises(fibration.LiftSingular):
        fibration.lift_curve(run)


def test_joystick_certifies_cone_tangency():
    run = fibration.run_joystick(
        {"kind": "sin", "amplitude": 1.0, "frequency": 2.0, "phase": 0.3},
        1.0, duration=2.0, n_steps=400)
    assert run.report.max_angular <= 1e-5
    assert run.report.max_contact <= 1e-8
    assert run.report.skipped == 0
    # cone parameter is the negated fourth engine coordinate
    np.testing.assert_allclose(run.contact.cone_parameter,
                               -run.engine.states[:, 4], atol=0)


def test_tangency_certificate_resolves_small_angles():
    # velocities along the cone direction (1, T, T^2, T^3), tilted by 1e-12
    T = np.linspace(-1.0, 1.0, 9)
    d = np.stack([np.ones_like(T), T, T ** 2, T ** 3], axis=1)
    tilt = np.stack([-T, np.ones_like(T), np.zeros_like(T), np.zeros_like(T)], axis=1)
    scale = np.linalg.norm(d, axis=1) / np.linalg.norm(tilt, axis=1)
    c = d + 1e-12 * scale[:, None] * tilt
    velocities = np.zeros((len(T), 5))
    velocities[:, [4, 3, 2, 1]] = c
    curve = fibration.ContactCurve(T, np.zeros((len(T), 5)), velocities, T)
    report = fibration.certify_twisted_cubic_tangency(curve)
    assert report.skipped == 0
    np.testing.assert_allclose(report.angular, 1e-12, rtol=1e-3)


def test_constant_ratio_controls_are_the_fiber_direction():
    # With u/w constant the lift moves only along the projection fiber: the
    # engine curve traces the cubic upstairs while the contact shadow stands
    # still and every velocity sample is skipped as negligible.
    run = fibration.run_joystick(1.0, 1.0, duration=1.0, n_steps=200)
    t = run.engine.times
    np.testing.assert_allclose(run.engine.states[:, 0], -t ** 3, atol=1e-10)
    np.testing.assert_allclose(
        run.contact.states,
        np.broadcast_to(run.contact.states[0], run.contact.states.shape),
        atol=1e-10)
    assert run.report.skipped == len(t)
    np.testing.assert_allclose(run.contact.cone_parameter, -t, atol=1e-10)


def test_lifted_velocity_matches_y5_difference_quotient():
    run = fibration.integrate_d2_curve(
        {"kind": "cos", "amplitude": 1.5, "frequency": 1.0}, 1.0,
        duration=1.0, n_steps=400)
    lifted = fibration.lift_curve(run)
    y5 = lifted.states[:, 5]
    t = lifted.times
    interior = slice(1, -1)
    quotient = (y5[2:] - y5[:-2]) / (t[2:] - t[:-2])
    np.testing.assert_allclose(lifted.velocities[interior, 5], quotient,
                               atol=1e-4)

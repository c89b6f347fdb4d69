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


# -- stacked pipeline against per-sample oracles -------------------------------

def _engine_rk4_loop(u_spec, w_spec, duration, n_steps, y0):
    """Per-step classical RK4 of the engine system, one sample at a time."""
    u_spec = fibration.ControlSpec.from_spec(u_spec)
    w_spec = fibration.ControlSpec.from_spec(w_spec)

    def rhs(y, u, w):
        return np.array([3.0 * y[2] * u, 3.0 * y[4] ** 2 * u, -2.0 * y[4] * u, u, w])

    h = duration / n_steps
    times = np.linspace(0.0, duration, n_steps + 1)
    y = np.asarray(y0, dtype=float)
    states = [y]
    for t in times[:-1]:
        k1 = rhs(y, u_spec.value(t), w_spec.value(t))
        k2 = rhs(y + 0.5 * h * k1, u_spec.value(t + 0.5 * h), w_spec.value(t + 0.5 * h))
        k3 = rhs(y + 0.5 * h * k2, u_spec.value(t + 0.5 * h), w_spec.value(t + 0.5 * h))
        k4 = rhs(y + h * k3, u_spec.value(t + h), w_spec.value(t + h))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize("u_spec, w_spec", [
    ([0.3, -0.5, 0.2], [1.1, 0.1]),
    ({"kind": "sin", "amplitude": 1.2, "frequency": 2.0, "phase": 0.3},
     {"kind": "cos", "amplitude": 0.4, "frequency": 1.5}),
    (lambda t: np.cos(t) + t, lambda t: 1.2 + 0.1 * t * t),
    (0.7, lambda t: 1.0 + 0.5 * np.sin(3.0 * t)),
])
def test_stacked_engine_integration_matches_per_step_rk4(u_spec, w_spec):
    y0 = [1.0, 2.0, -1.0, 0.5, 0.25]
    curve = fibration.integrate_d2_curve(u_spec, w_spec, 1.7, 300, y0=y0)
    expected = _engine_rk4_loop(u_spec, w_spec, 1.7, 300, y0)
    np.testing.assert_allclose(curve.states, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    u = fibration.ControlSpec.from_spec(u_spec)
    np.testing.assert_array_equal(curve.u, [u.value(t) for t in curve.times])
    np.testing.assert_array_equal(curve.du, [u.derivative(t) for t in curve.times])


def test_callable_controls_are_called_once_per_distinct_scalar_time():
    calls = []

    def u(t):
        assert np.ndim(t) == 0
        calls.append(t)
        return 1.0 + t

    spec = fibration.ControlSpec(u, lambda t: 1.0, "recorded")
    curve = fibration.integrate_d2_curve(spec, 1.0, duration=1.0, n_steps=50)
    h = 1.0 / 50
    start = curve.times[:-1]
    stage_times = set(np.concatenate([curve.times, start + 0.5 * h, start + h]).tolist())
    assert len(calls) == len(set(calls))
    assert set(calls) == stage_times


def test_project_to_contact_matches_per_sample_jacobian_product():
    run = fibration.run_joystick([0.3, -0.5, 0.2], [1.1, 0.1], duration=2.0,
                                 n_steps=200, y0=[0.1, -0.2, 0.3, 0.4, -0.5])
    lifted = run.lifted
    states = np.array([fibration.x_from_y(y)[:5] for y in lifted.states])
    vels = np.array([(fibration.x_from_y_jacobian(y) @ v)[:5]
                     for y, v in zip(lifted.states, lifted.velocities)])
    np.testing.assert_allclose(run.contact.states, states, rtol=0,
                               atol=1e-14 * np.abs(states).max())
    np.testing.assert_allclose(run.contact.velocities, vels, rtol=0,
                               atol=1e-14 * np.abs(vels).max())
    np.testing.assert_array_equal(run.contact.cone_parameter, -lifted.states[:, 4])


def test_x_from_y_jacobian_matches_sympy():
    import sympy as sp
    ys = sp.symbols("y0:6", real=True)
    y0, y1, y2, y3, y4, y5 = ys
    transition = sp.Matrix([y0 - y1 * y5 - 3 * y2 * y4 * y5 - y4 ** 3 * y5 ** 2,
                            y1 - y4 ** 3 * y5, y2 + y4 ** 2 * y5, y3 - y4 * y5, y5, y4])
    jac = sp.lambdify(ys, transition.jacobian(ys), modules="numpy")
    points = _pts6(34, 10)
    for y in points:
        expected = np.asarray(jac(*y), dtype=float)
        np.testing.assert_allclose(fibration.x_from_y_jacobian(y), expected,
                                   rtol=1e-14, atol=1e-14)
    stacked = fibration.x_from_y_jacobian(points)
    assert stacked.shape == (10, 6, 6)
    for J, y in zip(stacked, points):
        np.testing.assert_array_equal(J, fibration.x_from_y_jacobian(y))


def test_control_spec_arrays_equal_scalar_evaluation():
    from saucer import cli
    specs = [2.5, np.int64(3), [1.0, -0.5, 2.0], [4.0],
             {"kind": "sin", "amplitude": 2.0, "frequency": 3.0, "phase": 0.2},
             {"kind": "cos", "amplitude": 0.5, "frequency": 1.5},
             lambda t: np.exp(-t)]
    t = np.linspace(-1.0, 2.0, 31)
    for spec in specs:
        for control in (fibration.ControlSpec.from_spec(spec), cli._shift_spec(spec, 0.75)):
            values, slopes = control.values(t), control.derivatives(t)
            assert values.shape == slopes.shape == t.shape
            np.testing.assert_allclose(values, [control.value(s) for s in t],
                                       rtol=1e-15, atol=0)
            np.testing.assert_allclose(slopes, [control.derivative(s) for s in t],
                                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("spec", [[], [[1.0, 2.0]], [1.0, float("inf")], float("nan"),
                                  {"kind": "sin", "amplitude": float("nan")},
                                  {"kind": "cos", "frequency": "fast"}])
def test_control_spec_rejects_malformed_specs_when_built(spec):
    with pytest.raises(ValueError):
        fibration.ControlSpec.from_spec(spec)


def test_control_spec_accepts_any_real_scalar():
    for c in (3, 3.0, np.int64(3), np.float32(3.0), np.float64(3.0)):
        control = fibration.ControlSpec.from_spec(c)
        assert control.value(1.0) == 3.0 and control.derivative(1.0) == 0.0


def test_tangency_report_names_its_worst_sample():
    T = np.linspace(-1.0, 1.0, 7)
    c = np.stack([np.ones_like(T), T, T ** 2, T ** 3], axis=1)
    c[4, 0] += 1e-3     # the worst tilt
    c[2, 1] += 1e-6
    c[0] = 0.0          # skipped, so kept indices are shifted by one
    velocities = np.zeros((len(T), 5))
    velocities[:, [4, 3, 2, 1]] = c
    curve = fibration.ContactCurve(T, np.zeros((len(T), 5)), velocities, T)
    report = fibration.certify_twisted_cubic_tangency(curve)
    assert report.skipped == 1
    assert report.worst_sample == 4
    empty = fibration.certify_twisted_cubic_tangency(
        fibration.ContactCurve(T, np.zeros((len(T), 5)), np.zeros((len(T), 5)), T))
    assert empty.worst_sample is None

"""Six-dimensional coframes, the chart transition, and the joystick pipeline."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import fibration, kernels
from saucer.forms import complex_step_derivative
from saucer.sampling import rng_for

coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
safe = st.floats(0.3, 1.5, allow_nan=False, allow_infinity=False)


def _pts6(seed, n):
    return rng_for(seed, "test-fib").uniform(-1.5, 1.5, size=(n, 6))


def test_structure_equations_both_charts():
    for chart in ("x", "y"):
        worst = np.max(fibration.eds_residuals(chart, _pts6(31, 12)))
        assert worst < 1e-7, chart


def test_coframe_frame_duality():
    for chart in ("x", "y"):
        for p in _pts6(32, 6):
            C = fibration.coframe(chart, p)
            F = fibration.frame(chart, p)
            np.testing.assert_allclose(C @ F, np.eye(6), atol=1e-12)


def _sympy_coframes():
    """The coframes as the package once built them, in sympy."""
    x0, x1, x2, x3, x4, x5 = xs = sp.symbols("x0:6", real=True)
    y0, y1, y2, y3, y4, y5 = ys = sp.symbols("y0:6", real=True)
    cx = sp.Matrix([
        [1, 0, 0, -3 * x2, x1, 0],
        [0, 1, 3 * x5, 3 * x5 ** 2, x5 ** 3, 0],
        [0, 0, 1, 2 * x5, x5 ** 2, 0],
        [0, 0, 0, 1, x5, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, -1],
    ])
    cy = sp.Matrix([
        [1, -y5, -3 * y4 * y5, -3 * (y2 + y4 ** 2 * y5), 0, 0],
        [0, 1, 3 * y4, 3 * y4 ** 2, 0, 0],
        [0, 0, 1, 2 * y4, 0, 0],
        [0, 0, 0, 1, -y5, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
    ])
    return {"x": (cx, xs), "y": (cy, ys)}


def _x_frame_derivative(x0, x1, x2, x3, x4, x5):
    return {(1, 2, 5): -3,
            (0, 3, 2): 3, (1, 3, 5): 6 * x5, (2, 3, 5): -2,
            (0, 4, 1): -1, (0, 4, 2): -3 * x5, (0, 4, 5): -3 * x2,
            (1, 4, 5): -3 * x5 * x5, (2, 4, 5): 2 * x5, (3, 4, 5): -1}


def _y_frame_derivative(y0, y1, y2, y3, y4, y5):
    return {(0, 1, 5): 1,
            (1, 2, 4): -3,
            (0, 3, 2): 3, (1, 3, 4): 6 * y4, (2, 3, 4): -2,
            (0, 5, 2): -3 * y5, (0, 5, 5): -3 * y2, (1, 5, 4): -6 * y4 * y5,
            (1, 5, 5): -3 * y4 * y4, (2, 5, 4): 2 * y5, (2, 5, 5): 2 * y4, (3, 5, 5): -1}


#: The frames' derivative tables {(i, j, m): d E[i, j] / d(coord m)} that the
#: package once carried beside the frames.
_FRAME_DERIVATIVE_TABLES = {"x": _x_frame_derivative, "y": _y_frame_derivative}


def _frame_jacobian(chart, p):
    """dE[..., i, j, m] = d E[i, j] / d(coord m), the complex step of the frame."""
    return np.moveaxis(complex_step_derivative(lambda q: fibration.frame(chart, q), p), 0, -1)


@pytest.mark.parametrize("chart", ["x", "y"])
def test_frames_match_the_sympy_inverse_and_jacobian(chart):
    C, syms = _sympy_coframes()[chart]
    E = C.inv()
    coframe = sp.lambdify(syms, C, modules="numpy")
    frame = sp.lambdify(syms, E, modules="numpy")
    derivative = sp.lambdify(syms, [E[:, j].jacobian(syms) for j in range(6)],
                             modules="numpy")
    points = _pts6(35, 20)
    for p in points:
        np.testing.assert_allclose(fibration.coframe(chart, p), coframe(*p),
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(fibration.frame(chart, p), frame(*p),
                                   rtol=1e-14, atol=1e-14)
        dE = np.asarray(derivative(*p), dtype=float)    # (j, i, m)
        np.testing.assert_allclose(_frame_jacobian(chart, p), dE.transpose(1, 0, 2),
                                   rtol=1e-14, atol=1e-14)
        table = np.zeros((6, 6, 6))
        for index, value in _FRAME_DERIVATIVE_TABLES[chart](*p).items():
            table[index] = value
        np.testing.assert_allclose(_frame_jacobian(chart, p), table, rtol=0.0, atol=1e-14)


def test_unknown_chart_is_rejected():
    with pytest.raises(ValueError, match="unknown chart"):
        fibration.frame("z", np.zeros(6))


@given(coord, coord, coord, coord, safe, coord)
@settings(max_examples=80, deadline=None, derandomize=True)
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
        worst = np.max(fibration.frame_commutator_residuals(chart, _pts6(33, 8)))
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


def test_engine_samples_each_array_control_once_on_the_stage_grid():
    calls = []

    def recorded(name, fn):
        def record(t):
            calls.append((name, np.array(t, copy=True)))
            return fn(t)
        return kernels.ArrayFunction(record)

    specs = []
    for name, spec in (("u", {"kind": "sin", "amplitude": 0.7, "frequency": 2.0}),
                       ("w", [1.2, 0.3, -0.1])):
        base = fibration.ControlSpec.from_spec(spec)
        specs.append(fibration.ControlSpec(recorded(name, base.value_fn),
                                           recorded("d" + name, base.derivative_fn), name))
    curve = fibration.integrate_d2_curve(*specs, duration=1.1, n_steps=40)
    h, start = 1.1 / 40, curve.times[:-1]
    grid = np.concatenate([curve.times, start + 0.5 * h, start + h])
    assert [name for name, _ in calls] == ["u", "w", "du", "dw"]
    for name, t in calls:
        np.testing.assert_array_equal(t, grid if name in ("u", "w") else curve.times)


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
    # a clean joystick run's angles are all rounding noise: no sample is named
    run = fibration.run_joystick(
        {"kind": "sin", "amplitude": 0.8, "frequency": 1.7, "phase": 0.4},
        [1.1, 0.15], duration=2.0, n_steps=2000)
    assert run.report.worst_sample is None
    assert 0.0 < run.report.max_angular <= fibration.ANGULAR_FLOOR
    # one tilted sample stands above the floor, and is named
    velocities = np.array(run.contact.velocities)
    velocities[1200, 2] += 1e-6
    tilted = fibration.certify_twisted_cubic_tangency(
        dataclasses.replace(run.contact, velocities=velocities))
    assert tilted.worst_sample == 1200 and tilted.passed()
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


def _einsum_certificate(curve, speed_floor=1e-12):
    """The certificate as a row-wise formula: einsum dot products, a cube by
    np.power and np.linalg.norm over (m, 4) stacks."""
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
    return angular, np.abs(c0) / speed, int(np.count_nonzero(skip)), worst


def _certificate_curves():
    """Joystick curves, one with slow and tilted samples, and random curves."""
    run = fibration.run_joystick(
        {"kind": "sin", "amplitude": 0.8, "frequency": 1.7, "phase": 0.4},
        [1.1, 0.15], duration=2.0, n_steps=2000)
    yield run.contact, False
    velocities = np.array(run.contact.velocities)
    velocities[[0, 17, 900]] *= 1e-13     # under the speed floor
    velocities[1200, 2] += 1e-4           # the worst tilt
    yield dataclasses.replace(run.contact, velocities=velocities), True
    rng = np.random.default_rng(15)
    for n in (1, 7, 500):
        velocities = rng.normal(size=(n, 5))
        velocities[::3] *= 1e-14
        yield fibration.ContactCurve(np.arange(n), rng.normal(size=(n, 5)), velocities,
                                     rng.uniform(-3.0, 3.0, n)), True


def test_column_certificate_equals_the_einsum_formula():
    for curve, distinct_worst in _certificate_curves():
        report = fibration.certify_twisted_cubic_tangency(curve)
        angular, contact, skipped, worst = _einsum_certificate(curve)
        assert report.contact.tobytes() == contact.tobytes()
        assert report.skipped == skipped
        # T^3 is now a product, not a power: the angle moves by rounding only
        assert report.angular.shape == angular.shape
        assert np.max(np.abs(report.angular - angular), initial=0.0) <= 1e-15
        if distinct_worst:
            assert report.worst_sample == worst
    # samples under the floor were met, and so was a curve with every sample under it
    assert skipped > 0
    slow = fibration.ContactCurve(np.arange(3), np.ones((3, 5)), np.full((3, 5), 1e-14),
                                  np.ones(3))
    report = fibration.certify_twisted_cubic_tangency(slow)
    assert (report.skipped, report.worst_sample, report.angular.shape) == (3, None, (0,))


@pytest.mark.parametrize("chart", ["x", "y"])
def test_stacked_frames_and_residuals_equal_pointwise_calls(chart):
    pts = _pts6(36, 20)
    for build in (fibration.coframe, fibration.frame, _frame_jacobian):
        np.testing.assert_array_equal(build(chart, pts), [build(chart, p) for p in pts])
    np.testing.assert_array_equal(fibration.eds_residuals(chart, pts),
                                  [fibration.eds_residuals(chart, p)[0] for p in pts])
    np.testing.assert_array_equal(fibration.frame_commutator_residuals(chart, pts),
                                  [fibration.frame_commutator_residuals(chart, p)[0]
                                   for p in pts])
    np.testing.assert_array_equal(fibration.y_from_x(pts), [fibration.y_from_x(p) for p in pts])


def test_complex_step_structure_equations_resolve_roundoff():
    # the central differences they replaced left a floor near 1e-9
    for chart in ("x", "y"):
        assert np.max(fibration.eds_residuals(chart, _pts6(37, 50))) < 1e-13


#: A verify seed whose `joystick-certification` fails at contact 2.87e-8
#: against its 1e-8 bound, in its second run at sample 13 (t = 0.13).
JOYSTICK_FLAKE_SEED = 566551698


def test_joystick_flake_is_pushforward_rounding_over_a_near_zero_speed():
    # the check's draws, up to and including its second run
    rng = rng_for(JOYSTICK_FLAKE_SEED, "fibration.joystick")
    for _ in range(2):
        u = list(rng.uniform(-1.0, 1.0, size=3))
        w = [float(rng.uniform(0.8, 1.5)), float(rng.uniform(-0.2, 0.2))]
    run = fibration.run_joystick(u, w, duration=2.0, n_steps=200)
    contact = run.report.contact
    k = int(np.argmax(contact))
    assert k == 13 and run.lifted.times[k] == pytest.approx(0.13)
    assert 2.8e-8 < contact[k] < 2.9e-8
    # every other sample of the run certifies at rounding level
    assert np.max(np.delete(contact, k)) < 1e-14
    # the projected speed |c| there is nearly zero
    speed = float(np.linalg.norm(run.contact.velocities[k, [4, 3, 2, 1]]))
    assert 1.5e-10 < speed < 1.52e-10
    # row 0 of x_from_y_pushforward: products of 0.02-0.04 that cancel to 2.4e-15
    _, y1, y2, _, y4, y5 = run.lifted.states[k]
    v0, v1, v2, _, v4, v5 = run.lifted.velocities[k]
    products = np.array([v0, -y5 * v1, -3 * y4 * y5 * v2, -3 * y5 * (y2 + y4 * y4 * y5) * v4,
                         -(y1 + 3 * y2 * y4 + 2 * y4 ** 3 * y5) * v5])
    assert np.sort(np.abs(products))[-3:] == pytest.approx([0.0192, 0.0193, 0.0386], abs=1e-4)
    assert abs(run.contact.velocities[k, 0]) < 2.5e-15
    # so rounding alone allows eps * sum|products| / |c|, about 1.1e-7: above
    # the 1e-8 bound and above the residual reported
    floor = np.finfo(float).eps * np.sum(np.abs(products)) / speed
    assert 1.1e-7 < floor < 1.2e-7
    assert contact[k] < floor

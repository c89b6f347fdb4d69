"""The control law and its closed-form flows, against a plain RK4 oracle."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from saucer import kernels, maneuvers, planner

MODES = tuple(kernels.ManeuverMode)


def _mode_id(mode) -> str:
    """A mode's parametrized id: its index in MODES."""
    return str(MODES.index(mode))


def _oracle_rk4(mode, p0, u1, u2, u3, duration, n_steps):
    """Classical RK4, one point at a time; the reference for the closed form."""
    h = duration / n_steps
    out = np.empty((n_steps + 1, 5))
    out[0] = p = np.asarray(p0, dtype=float)
    for k in range(n_steps):
        k1 = kernels.velocity(mode, p, u1, u2, u3)
        k2 = kernels.velocity(mode, p + 0.5 * h * k1, u1, u2, u3)
        k3 = kernels.velocity(mode, p + 0.5 * h * k2, u1, u2, u3)
        k4 = kernels.velocity(mode, p + h * k3, u1, u2, u3)
        out[k + 1] = p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def test_backend_label():
    assert kernels.BACKEND == "python"


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
@pytest.mark.parametrize("duration,n_steps", [(1.3, 1), (1.3, 37), (-0.9, 1), (-1.7, 64)])
def test_closed_form_matches_rk4_oracle(mode, duration, n_steps):
    rng = np.random.default_rng([MODES.index(mode), n_steps])
    p0 = rng.uniform(-2.0, 2.0, 5)
    u = rng.uniform(-2.0, 2.0, 3)
    got = kernels.rk4_constant(mode, p0, *u, duration, n_steps)
    want = _oracle_rk4(mode, p0, *u, duration, n_steps)
    assert got.shape == (n_steps + 1, 5)
    np.testing.assert_array_equal(got[0], p0)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_stacked_velocity_equals_pointwise_calls(mode):
    rng = np.random.default_rng(MODES.index(mode))
    pts = rng.uniform(-2.0, 2.0, (40, 5))
    u = rng.uniform(-2.0, 2.0, (40, 3))
    pointwise = np.stack([kernels.velocity(mode, p, 0.7, -0.4, 0.3) for p in pts])
    np.testing.assert_array_equal(kernels.velocity(mode, pts, 0.7, -0.4, 0.3), pointwise)
    pointwise = np.stack([kernels.velocity(mode, p, *c) for p, c in zip(pts, u)])
    np.testing.assert_array_equal(kernels.velocity(mode, pts, *u.T), pointwise)


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_law_gradient_is_the_derivative_of_the_law(mode):
    a, b, u1, u2, u3 = sp.symbols("a b u1 u2 u3")
    v = kernels.law(mode, a, b, u1, u2, u3)
    grads = iter(kernels.law_gradient(mode, a, b, u1, u2, u3))
    for component in v[:3]:
        for var in (a, b):
            assert sp.simplify(sp.diff(component, var) - next(grads)) == 0
    for component in v[3:]:
        assert not component.free_symbols & {a, b}


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_flow_on_floats_equals_every_sampled_row(mode):
    rng = np.random.default_rng([MODES.index(mode), 11])
    for duration, n_steps in ((1.3, 1), (0.8, 17), (-1.7, 40), (0.0, 3)):
        p0 = tuple(rng.uniform(-2.0, 2.0, 5).tolist())
        u = rng.uniform(-2.0, 2.0, 3).tolist()
        rows = kernels.rk4_constant(mode, p0, *u, duration, n_steps)
        times = np.linspace(0.0, duration, n_steps + 1).tolist()
        for t, row in zip(times, rows):
            got = kernels.flow(mode, p0, *u, t)
            assert all(type(v) is float for v in got)
            np.testing.assert_array_equal(got, row)


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_rk4_constant_equals_one_flow_call_at_linspace_times(mode):
    # the blocks sample their own times; they must be linspace's, bit for bit,
    # at any duration and step count, across block edges included
    rng = np.random.default_rng([MODES.index(mode), 13])
    rows = kernels.BLOCK_ROWS
    for duration in (1.0, 0.3, -0.9, 2.5e-7, 7.0 / 3.0, 1e3, 0.0):
        for n_steps in (1, 2, 3, 7, rows - 2, rows - 1, rows, 2 * rows + 5, 20_000):
            # x0 = -0.0 tells a first time of -0.0 from linspace's 0.0
            p0 = [-0.0] + rng.uniform(-2.0, 2.0, 4).tolist()
            u = rng.uniform(-2.0, 2.0, 3).tolist()
            got = kernels.rk4_constant(mode, p0, *u, duration, n_steps)
            assert got.shape == (n_steps + 1, 5)
            assert got.T.flags.c_contiguous
            times = np.linspace(0.0, duration, n_steps + 1)
            want = np.column_stack(kernels.flow(mode, p0, *u, times))
            assert got.tobytes() == want.tobytes(), (duration, n_steps)


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_velocity_into_out_equals_the_allocating_call(mode):
    rng = np.random.default_rng([MODES.index(mode), 14])
    pts = rng.uniform(-2.0, 2.0, (40, 5))
    u = rng.uniform(-2.0, 2.0, (40, 3))
    for p in (pts, pts + 1e-20j * rng.uniform(-1.0, 1.0, (40, 5))):
        for points, controls in ((p[0], u[0]), (p, u[0]), (p, u.T)):
            want = kernels.velocity(mode, points, *controls)
            for out in (np.empty_like(want), np.empty(want.shape[::-1], want.dtype).T):
                got = kernels.velocity(mode, points, *controls, out=out)
                assert got is out
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_flow_on_per_row_columns_equals_per_row_floats(mode):
    rng = np.random.default_rng([MODES.index(mode), 12])
    starts = rng.uniform(-2.0, 2.0, (30, 5))
    u = rng.uniform(-2.0, 2.0, (30, 3))
    t = rng.uniform(-1.5, 1.5, 30)
    stacked = kernels.flow(mode, starts.T, *u.T, t)
    rowwise = [kernels.flow(mode, p.tolist(), *c.tolist(), float(s))
               for p, c, s in zip(starts, u, t)]
    np.testing.assert_array_equal(np.column_stack(stacked), rowwise)
    # a float shared by every row broadcasts against the columns
    stacked = kernels.flow(mode, starts.T, u[0, 0], *u.T[1:], t)
    rowwise = [kernels.flow(mode, p.tolist(), float(u[0, 0]), *c.tolist(), float(s))
               for p, c, s in zip(starts, u[:, 1:], t)]
    np.testing.assert_array_equal(np.column_stack(stacked), rowwise)


@pytest.mark.parametrize("mode", MODES, ids=_mode_id)
def test_flow_into_out_hands_out_the_endpoint_velocity(mode):
    # `out` leaves the flow's state as it is and holds `velocity` at that
    # state, bit for bit, in either layout and at one point
    rng = np.random.default_rng([MODES.index(mode), 15])
    starts = rng.uniform(-2.0, 2.0, (30, 5))
    u = rng.uniform(-2.0, 2.0, (30, 3))
    t = rng.uniform(-1.5, 1.5, 30)
    want = np.column_stack(kernels.flow(mode, starts.T, *u.T, t))
    for out in (np.empty((30, 5)), np.empty((5, 30)).T):
        got = np.column_stack(kernels.flow(mode, starts.T, *u.T, t, out=out))
        assert got.tobytes() == want.tobytes()
        assert out.tobytes() == kernels.velocity(mode, want, *u.T).tobytes()
    out = np.empty(5)
    point = kernels.flow(mode, starts[0].tolist(), *u[0].tolist(), float(t[0]), out=out)
    assert np.array(point).tobytes() == want[0].tobytes()
    assert out.tobytes() == kernels.velocity(mode, want[0], *u[0]).tobytes()


@pytest.mark.parametrize("mode", list(planner.FAMILY_CONTROLS))
def test_flow_is_the_last_row_of_a_leg_sampling(mode):
    p = np.array([0.3, -1.1, 0.7, 1.6, -1.4])
    for k, u in enumerate(planner.FAMILY_CONTROLS[mode]):
        for duration in (0.37, -1.25, 0.0):
            dense = kernels.rk4_constant(mode, p, *u, duration,
                                         planner._leg_steps(duration))
            np.testing.assert_array_equal(planner.flow(mode, k, p, duration), dense[-1])


def test_rk4_negative_duration_reverses_flow():
    p0 = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
    fwd = kernels.rk4_constant(kernels.ATTACKING, p0, 1.0, 0.5, 0.0, 0.5, 50)
    back = kernels.rk4_constant(kernels.ATTACKING, np.asarray(fwd)[-1],
                                1.0, 0.5, 0.0, -0.5, 50)
    np.testing.assert_allclose(np.asarray(back)[-1], p0, atol=1e-12)


def test_mode_validation():
    p0 = np.zeros(5)
    # the law takes a ManeuverMode only: no integer id and no mode name
    with pytest.raises(ValueError):
        kernels.velocity(0, p0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernels.law("attacking", 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernels.velocity(7, p0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernels.rk4_constant(-1, p0, 1.0, 0.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        kernels.rk4_constant(kernels.ATTACKING, p0, 1.0, 0.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        kernels.law_gradient(4, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert maneuvers.ManeuverMode is kernels.ManeuverMode
    assert tuple(kernels.ManeuverMode) == (kernels.ATTACKING, kernels.LANDING,
                                           kernels.G2_SIMPLE, kernels.G2_STRICT)


def test_attacking_velocity_law():
    p = np.array([0.0, 0.0, 0.0, 0.5, -0.3])
    v = np.asarray(kernels.velocity(kernels.ATTACKING, p, 2.0, -1.0, 0.7))
    c = np.array([3 * 2.0 * 0.7, -1.0 * 0.7, 2.0, -1.0])
    expected = np.array([c[0], c[1], c[0] * 0.5 + c[1] * (-0.3), c[3], -3 * c[2]])
    np.testing.assert_allclose(v, expected, atol=1e-14)


def test_g2_strict_velocity_is_cubic_cone_direction():
    p = np.zeros(5)
    t = 0.8
    v = np.asarray(kernels.velocity(kernels.G2_STRICT, p, 1.5, t, 0.0))
    c = 1.5 * np.array([1.0, t, t ** 2, t ** 3])
    expected = np.array([c[0], c[1], 0.0, c[3], -3 * c[2]])
    np.testing.assert_allclose(v, expected, atol=1e-14)


def test_sample_makes_one_array_call_for_an_array_function():
    calls = []

    def square(t):
        calls.append(np.shape(t))
        return t * t

    t = np.array([[0.5, 0.25], [0.5, 1.0]])
    np.testing.assert_array_equal(kernels.sample(kernels.ArrayFunction(square), t), t * t)
    assert calls == [t.shape]


def test_rk4_triangular_equals_a_per_step_rk4_loop():
    # y2' = u, then y0' = y2 w, then y1' = y0 y2 - u: each pair reads only
    # slots that earlier pairs integrate. Polynomial controls evaluate with
    # the same Horner arithmetic on a scalar and on an array, so the loop
    # agrees bit for bit.
    u = kernels.ControlSpec.from_spec([0.3, -1.1, 0.4])
    w = kernels.ControlSpec.from_spec([1.2, 0.5])
    rates = (((2,), lambda y, c: (c[0],)),
             ((0,), lambda y, c: (y[2] * c[1],)),
             ((1,), lambda y, c: (y[0] * y[2] - c[0],)))

    def f(y, c):
        return np.array([y[2] * c[1], y[0] * y[2] - c[0], c[0]])

    start, duration, n = np.array([0.5, -0.25, 1.5]), 1.3, 37
    times, states, (u_steps, w_steps) = kernels.rk4_triangular(start, duration, n, (u, w), rates)
    h = duration / n
    np.testing.assert_array_equal(times, np.linspace(0.0, duration, n + 1))
    y, expected = start, [start]
    for t in times[:-1]:
        k1 = f(y, (u.value(t), w.value(t)))
        mid = (u.value(t + 0.5 * h), w.value(t + 0.5 * h))
        k2 = f(y + 0.5 * h * k1, mid)
        k3 = f(y + 0.5 * h * k2, mid)
        k4 = f(y + h * k3, (u.value(t + h), w.value(t + h)))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(y)
    np.testing.assert_array_equal(states, expected)
    np.testing.assert_array_equal(u_steps, [u.value(t) for t in times])
    np.testing.assert_array_equal(w_steps, [w.value(t) for t in times])

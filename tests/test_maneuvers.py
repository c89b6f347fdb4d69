"""Maneuver laws: admissibility, nullity, and trajectory integration."""
from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import chart, cli, fibration, gl2, kernels, maneuvers
from saucer.maneuvers import (
    ChartEscapeWarning,
    ControlProgram,
    ManeuverMode,
    Trajectory,
    ambient_nullity_pair,
    attacking_metric,
    constraint_residuals,
    integrate_trajectory,
    landing_metric,
)
from saucer.sampling import sample_vectors

ctrl = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coord = st.floats(-1.2, 1.2, allow_nan=False, allow_infinity=False)


def _g2_components(mode, p, u1, u2, u3):
    """Coefficients of the velocity against the quartic-mode coframe."""
    v = kernels.velocity(mode, p, u1, u2, u3)
    # (dx, dy, -db/3, da) applied to v
    return np.array([v[0], v[1], -v[4] / 3.0, v[3]])


@given(coord, coord, ctrl, ctrl, ctrl)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_every_mode_satisfies_contact_constraint(a, b, u1, u2, u3):
    p = chart.point(0.3, -0.1, 0.2, a, b)
    for mode in ManeuverMode:
        v = kernels.velocity(mode, p, u1, u2, u3)
        assert abs(chart.contact_covector(p) @ v) < 1e-12


@given(coord, coord, ctrl, ctrl, ctrl)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_each_mode_is_null_for_its_own_tensor(a, b, u1, u2, u3):
    p = chart.point(0.0, 0.0, 0.0, a, b)
    v = kernels.velocity(ManeuverMode.ATTACKING, p, u1, u2, u3)
    assert abs(v[3] * v[0] + v[4] * v[1]) < 1e-10
    v = kernels.velocity(ManeuverMode.LANDING, p, u1, u2, u3)
    g = 2 * ((1 + a * a) * v[4] - a * b * v[3]) * v[0] \
        - 2 * ((1 + b * b) * v[3] - a * b * v[4]) * v[1]
    assert abs(g) < 1e-9
    for mode in (ManeuverMode.G2_SIMPLE, ManeuverMode.G2_STRICT):
        c = _g2_components(mode, p, u1, u2, u3)
        assert abs(gl2.quartic_upsilon(c)) < 1e-9


def test_distribution_metrics_are_the_chart_fields_restricted():
    # the hand-written 4x4 forms over (dx, dy, da, db)
    pts = sample_vectors(100, 5, label="test.dist-metrics")
    attacking = np.zeros((4, 4))
    attacking[0, 2] = attacking[2, 0] = attacking[1, 3] = attacking[3, 1] = 1.0
    for p in pts:
        a, b = float(p[3]), float(p[4])
        G = np.zeros((4, 4))
        G[0, 3] = G[3, 0] = 1.0 + a * a
        G[0, 2] = G[2, 0] = -a * b
        G[1, 2] = G[2, 1] = -(1.0 + b * b)
        G[1, 3] = G[3, 1] = a * b
        np.testing.assert_array_equal(landing_metric(p), G)
        np.testing.assert_array_equal(attacking_metric(p), attacking)
    np.testing.assert_array_equal(landing_metric(pts), [landing_metric(p) for p in pts])


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
    v = kernels.velocity(ManeuverMode.ATTACKING, p, 0.9, -1.1, 0.6)
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
    v = kernels.velocity(ManeuverMode.LANDING, p, u1, u2, u3)
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
        return kernels.velocity(program.mode, p, *(u.value(t) for u in program.controls))

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


def _record_array_calls(fn, ndims):
    """Make the built-in ArrayFunction fn append np.ndim of every argument to ndims."""
    inner = fn.fn

    def recorded(t):
        ndims.append(np.ndim(t))
        return inner(t)

    fn.fn = recorded
    return fn


def _builtin_controls():
    return [fibration.ControlSpec.from_spec(
                {"kind": "sin", "amplitude": 0.4, "frequency": 2.5, "phase": 0.3}),
            fibration.ControlSpec.from_spec([0.2, -0.5, 0.3]),
            cli._shift_spec({"kind": "cos", "amplitude": 0.6, "frequency": 1.5}, 0.75)]


@pytest.mark.parametrize("index", range(3))
def test_bare_builtin_value_fn_is_sampled_by_array_calls_only(index):
    spec = _builtin_controls()[index]
    ndims = []
    # a second, separately built copy: recording replaces its inner function
    bare = _record_array_calls(_builtin_controls()[index].value_fn, ndims)
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    for mode in (ManeuverMode.LANDING, ManeuverMode.G2_SIMPLE):
        by_spec = integrate_trajectory(
            ControlProgram(mode, spec, 0.5, spec, duration=0.5, dt=1e-3), p0)
        by_fn = integrate_trajectory(
            ControlProgram(mode, bare, 0.5, bare, duration=0.5, dt=1e-3), p0)
        for field in ("times", "states", "velocities"):
            np.testing.assert_array_equal(getattr(by_fn, field), getattr(by_spec, field))
    assert ndims == [1] * 4
    ndims.clear()
    curve_spec = fibration.integrate_d2_curve(spec, 1.2, duration=0.5, n_steps=500)
    curve_fn = fibration.integrate_d2_curve(bare, 1.2, duration=0.5, n_steps=500)
    assert ndims and set(ndims) == {1}
    for field in ("times", "states", "u", "w"):
        np.testing.assert_array_equal(getattr(curve_fn, field), getattr(curve_spec, field))
    np.testing.assert_allclose(curve_fn.du, curve_spec.du, rtol=0, atol=1e-8)


def test_scalar_only_callable_still_integrates():
    calls = []

    def switch(t):
        if np.ndim(t) != 0:
            raise TypeError("scalar times only")
        calls.append(t)
        return 1.0 if t < 0.25 else -1.0

    prog = ControlProgram(ManeuverMode.G2_STRICT, 1.0, switch, 0.0, duration=0.5, dt=1e-2)
    traj = integrate_trajectory(prog, chart.point(0, 0, 0, 0, 0))
    assert len(calls) == len(set(calls))
    h, start = 0.5 / 50, traj.times[:-1]
    assert set(calls) == set(np.concatenate([traj.times, start + 0.5 * h, start + h]).tolist())
    assert constraint_residuals(traj).passed()
    states, _ = _rk4_loop(prog, chart.point(0, 0, 0, 0, 0))
    np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=1e-14)
    curve = fibration.integrate_d2_curve(switch, 1.0, duration=0.5, n_steps=50)
    np.testing.assert_array_equal(curve.u, [switch(t) for t in curve.times])


def test_shifted_scalar_only_callable_is_called_once_per_distinct_stage_time():
    calls = []

    def ramp(t):
        if np.ndim(t) != 0:
            raise TypeError("scalar times only")
        calls.append(t)
        return 0.5 - t

    prog = ControlProgram(ManeuverMode.LANDING, 0.4, cli._shift_spec(ramp, 0.75), 0.3,
                          duration=0.5, dt=1e-2)
    traj = integrate_trajectory(prog, chart.point(0.1, 0, 0, 0.2, 0))
    h, start = 0.5 / 50, traj.times[:-1]
    grid = np.concatenate([traj.times, start + 0.5 * h, start + h])
    assert len(calls) == len(set(calls))
    assert set(calls) == set((0.75 + grid).tolist())


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_constant_specs_take_the_closed_form_as_numbers_do(mode):
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    by_number = ControlProgram(mode, 0.3, -0.2, 0.5, duration=0.7, dt=1e-3)
    by_spec = ControlProgram(mode, kernels.ControlSpec.from_spec(0.3), -0.2,
                             kernels.ControlSpec.from_spec(0.5), duration=0.7, dt=1e-3)
    assert by_number.is_constant and by_spec.is_constant
    want, got = integrate_trajectory(by_number, p0), integrate_trajectory(by_spec, p0)
    for field in ("times", "states", "velocities"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            ControlProgram(mode, 0.3, bad, 0.5)


@pytest.mark.parametrize("mode", [ManeuverMode.G2_SIMPLE, ManeuverMode.G2_STRICT])
def test_g2_residuals_match_an_einsum_reference_off_the_cone(mode):
    rng = np.random.default_rng(17)
    states = rng.uniform(-2.0, 2.0, (5000, 5))
    vels = rng.uniform(-2.0, 2.0, (5000, 5))
    traj = Trajectory(mode, np.arange(5000.0), states, vels)
    report = constraint_residuals(traj)
    X = np.stack([vels[:, 0], vels[:, 1], -vels[:, 4] / 3.0, vels[:, 3]], axis=1)
    norm2 = np.einsum("si,si->s", X, X)
    names = ("g1", "g2", "g3") if mode == ManeuverMode.G2_STRICT else ()
    assert set(report.nullity) == set(names) | {"upsilon"}
    for name, G in zip(names, gl2.BILINEAR_MATRICES):
        expected = np.abs(np.einsum("si,ij,sj->s", X, G, X))
        assert np.all(np.abs(report.nullity[name] - expected) <= 1e-14 * norm2)
    expected = np.abs(np.einsum("ABCD,sA,sB,sC,sD->s", gl2.UPSILON_TENSOR, X, X, X, X))
    assert np.all(np.abs(report.nullity["upsilon"] - expected) <= 1e-14 * norm2 * norm2)
    assert report.max_nullity > 1.0
    np.testing.assert_array_equal(report.contact,
                                  np.abs(vels[:, 2] - states[:, 3] * vels[:, 0]
                                         - states[:, 4] * vels[:, 1]))


def test_escape_below_the_box_warns():
    # b = -3 t is the only coordinate that moves, so only the minimum escapes
    low = ControlProgram(ManeuverMode.ATTACKING, 1.0, 0.0, 0.0, duration=1.0, dt=1e-2)
    with pytest.warns(ChartEscapeWarning):
        assert integrate_trajectory(low, chart.point(0, 0, 0, 0, 0)).escaped
    inside = ControlProgram(ManeuverMode.ATTACKING, 1.0, 0.0, 0.0, duration=0.5, dt=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ChartEscapeWarning)
        assert not integrate_trajectory(inside, chart.point(0, 0, 0, 0, 0)).escaped


def _sine_controls():
    return [fibration.ControlSpec.from_spec(
                {"kind": "sin", "amplitude": amplitude, "frequency": frequency, "phase": phase})
            for amplitude, frequency, phase in ((0.4, 2.5, 0.3), (0.3, 1.1, 2.0), (0.5, 0.7, 4.1))]


def _residuals_per_mode(traj):
    """The residuals of traj's samples under each mode's constraints."""
    return [constraint_residuals(dataclasses.replace(traj, mode=mode)) for mode in ManeuverMode]


def _at_block_rows(monkeypatch, block_rows, program, p0):
    """The trajectory and its residuals for every mode, evaluated in blocks of block_rows."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChartEscapeWarning)
        traj = integrate_trajectory(program, p0)
    return traj, _residuals_per_mode(traj)


@pytest.mark.parametrize("varying", [False, True], ids=["constant", "sine"])
@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_trajectories_and_residuals_do_not_depend_on_the_block_size(monkeypatch, mode, varying):
    controls = _sine_controls() if varying else (0.4, -0.3, 0.5)
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    rows = kernels.BLOCK_ROWS
    # n_steps + 1 rows: the fewest there are and one less, equal or more than
    # a block, first in blocks of 1 and 7, then in blocks of BLOCK_ROWS
    for n_rows, block_sizes in [(n, (1, 7)) for n in (2, 6, 7, 8)] + \
            [(n, (rows,)) for n in (rows - 1, rows, rows + 1)]:
        program = ControlProgram(mode, *controls, duration=0.8, dt=0.8 / (n_rows - 1))
        want, want_residuals = _at_block_rows(monkeypatch, n_rows + 1, program, p0)
        assert len(want) == n_rows
        for block_rows in block_sizes:
            traj, residuals = _at_block_rows(monkeypatch, block_rows, program, p0)
            for field in ("times", "states", "velocities"):
                assert np.array_equal(getattr(traj, field), getattr(want, field)), field
            assert traj.escaped == want.escaped
            for report, want_report in zip(residuals, want_residuals):
                assert np.array_equal(report.contact, want_report.contact)
                assert list(report.nullity) == list(want_report.nullity)
                for name, values in report.nullity.items():
                    assert np.array_equal(values, want_report.nullity[name]), name


def _c_order_reference(program, p0):
    """The trajectory as one-shot calls on row-major (m, 5) arrays."""
    n_steps = max(1, int(round(program.duration / program.dt)))
    mode = program.mode
    if program.is_constant:
        times = np.linspace(0.0, program.duration, n_steps + 1)
        controls = [u.constant for u in program.controls]
        states = np.column_stack(kernels.flow(mode, p0.tolist(), *controls, times))
    else:
        times, states, controls = kernels.rk4_triangular(
            p0, program.duration, n_steps, program.controls, maneuvers._law_rates(mode))
        states = np.ascontiguousarray(states)
    return Trajectory(mode, times, states, kernels.velocity(mode, states, *controls))


def _assert_same_trajectory(traj, want):
    for field in ("times", "states", "velocities"):
        assert getattr(traj, field).tobytes() == getattr(want, field).tobytes(), field
    for report, want_report in zip(_residuals_per_mode(traj), _residuals_per_mode(want)):
        assert report.contact.tobytes() == want_report.contact.tobytes()
        assert list(report.nullity) == list(want_report.nullity)
        for name, values in report.nullity.items():
            assert values.tobytes() == want_report.nullity[name].tobytes(), name


@pytest.mark.parametrize("varying", [False, True], ids=["constant", "sine"])
@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_column_storage_equals_a_c_order_reference(mode, varying):
    controls = _sine_controls() if varying else (0.4, -0.3, 0.5)
    program = ControlProgram(mode, *controls, duration=0.8, dt=0.8 / 20_000)
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    traj = integrate_trajectory(program, p0)
    # each coordinate's samples are one contiguous run
    assert traj.states.T.flags.c_contiguous and traj.velocities.T.flags.c_contiguous
    _assert_same_trajectory(traj, _c_order_reference(program, p0))


def test_a_row_major_rk4_constant_still_integrates(monkeypatch):
    program = ControlProgram(ManeuverMode.LANDING, 0.4, -0.3, 0.5, duration=0.8,
                             dt=0.8 / 20_000)
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    want = integrate_trajectory(program, p0)
    rk4_constant = kernels.rk4_constant
    monkeypatch.setattr(kernels, "rk4_constant",
                        lambda *args: np.ascontiguousarray(rk4_constant(*args)))
    traj = integrate_trajectory(program, p0)
    assert traj.states.flags.c_contiguous
    _assert_same_trajectory(traj, want)


def test_residuals_of_an_empty_or_one_sample_trajectory_keep_every_name():
    names = {ManeuverMode.ATTACKING: ["metric"], ManeuverMode.LANDING: ["metric"],
             ManeuverMode.G2_SIMPLE: ["upsilon"],
             ManeuverMode.G2_STRICT: ["g1", "g2", "g3", "upsilon"]}
    for n in (0, 1):
        traj = Trajectory(ManeuverMode.LANDING, np.zeros(n), np.full((n, 5), 0.5),
                          np.full((n, 5), 0.5))
        for mode in ManeuverMode:
            report = constraint_residuals(dataclasses.replace(traj, mode=mode))
            assert list(report.nullity) == names[mode]
            assert report.contact.shape == (n,)
            assert all(values.shape == (n,) for values in report.nullity.values())


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_long_trajectories_allocate_little_beyond_what_they_return(mode):
    # a one-shot (200001,) temporary is 1.6 MB and a full (200001, 5) one is
    # 8 MB; blocks, one shared time grid and velocities written in place keep
    # the integration's peak within 1 MiB of the arrays it hands back, and
    # the residuals' within 4 MB
    program = ControlProgram(mode, 0.3, -0.2, 0.4, duration=1.0, dt=1.0 / 200_000)
    p0 = chart.point(0.1, -0.2, 0.3, 0.2, -0.1)
    tracemalloc.start()
    try:
        traj = integrate_trajectory(program, p0)
        held, peak = tracemalloc.get_traced_memory()
        over_integration = peak - (traj.times.nbytes + traj.states.nbytes
                                   + traj.velocities.nbytes)
        tracemalloc.reset_peak()
        report = constraint_residuals(traj)
        over_residuals = tracemalloc.get_traced_memory()[1] - held - (
            report.contact.nbytes + sum(values.nbytes for values in report.nullity.values()))
    finally:
        tracemalloc.stop()
    assert not traj.escaped
    assert report.passed()
    assert over_integration < 2 ** 20, over_integration
    assert over_residuals < 4e6, over_residuals


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_starts_and_directions_are_rejected(bad):
    point = np.array([0.1, bad, 0.0, 0.2, -0.3])
    program = ControlProgram(ManeuverMode.ATTACKING, 1.0, 0.0, 0.0, duration=0.1, dt=0.01)
    with pytest.raises(ValueError, match="finite"):
        integrate_trajectory(program, point)
    with pytest.raises(ValueError, match="finite"):
        fibration.integrate_d2_curve(0.5, 1.0, 1.0, 10, y0=point)
    with pytest.raises(ValueError, match="finite"):
        gl2.classify_directions(np.array([[1.0, 0.0, 0.0, 1.0], point[:4]]))
    with pytest.raises(ValueError, match="finite"):
        gl2.classify_direction(point[1:])


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_residuals_over_many_blocks_equal_each_blocks_own(mode):
    # every block's residuals land in its own rows of the report: three
    # blocks, the last one short, each equal to the report of that block alone
    n = 2 * kernels.BLOCK_ROWS + 5
    rng = np.random.default_rng(31)
    states = rng.uniform(-2.0, 2.0, (chart.DIM, n)).T
    vels = rng.uniform(-2.0, 2.0, (chart.DIM, n)).T
    report = constraint_residuals(Trajectory(mode, np.arange(float(n)), states, vels))
    for rows in kernels.row_blocks(n):
        alone = constraint_residuals(Trajectory(mode, np.arange(float(rows.stop - rows.start)),
                                                np.array(states[rows]), np.array(vels[rows])))
        assert report.contact[rows].tobytes() == alone.contact.tobytes()
        assert list(report.nullity) == list(alone.nullity)
        for name, values in report.nullity.items():
            assert values[rows].tobytes() == alone.nullity[name].tobytes(), name

"""The control law and its closed-form flows, against a plain RK4 oracle."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from saucer import kernels, planner

MODES = (kernels.ATTACKING, kernels.LANDING, kernels.G2_SIMPLE, kernels.G2_STRICT)


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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("duration,n_steps", [(1.3, 1), (1.3, 37), (-0.9, 1), (-1.7, 64)])
def test_closed_form_matches_rk4_oracle(mode, duration, n_steps):
    rng = np.random.default_rng([mode, n_steps])
    p0 = rng.uniform(-2.0, 2.0, 5)
    u = rng.uniform(-2.0, 2.0, 3)
    got = kernels.rk4_constant(mode, p0, *u, duration, n_steps)
    want = _oracle_rk4(mode, p0, *u, duration, n_steps)
    assert got.shape == (n_steps + 1, 5)
    np.testing.assert_array_equal(got[0], p0)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("mode", MODES)
def test_stacked_velocity_equals_pointwise_calls(mode):
    rng = np.random.default_rng(mode)
    pts = rng.uniform(-2.0, 2.0, (40, 5))
    u = rng.uniform(-2.0, 2.0, (40, 3))
    pointwise = np.stack([kernels.velocity(mode, p, 0.7, -0.4, 0.3) for p in pts])
    np.testing.assert_array_equal(kernels.velocity(mode, pts, 0.7, -0.4, 0.3), pointwise)
    pointwise = np.stack([kernels.velocity(mode, p, *c) for p, c in zip(pts, u)])
    np.testing.assert_array_equal(kernels.velocity(mode, pts, *u.T), pointwise)


@pytest.mark.parametrize("mode", MODES)
def test_zcoeff_grads_are_the_derivatives_of_zcoeffs(mode):
    a, b, u1, u2, u3 = sp.symbols("a b u1 u2 u3")
    c1, c2, _, _ = kernels.zcoeffs(mode, a, b, u1, u2, u3)
    grads = kernels.zcoeff_grads(mode, a, b, u1, u2, u3)
    for var, (g1, g2) in zip((a, b), grads):
        assert sp.simplify(sp.diff(c1, var) - g1) == 0
        assert sp.simplify(sp.diff(c2, var) - g2) == 0


@pytest.mark.parametrize("mode", list(planner.FAMILY_CONTROLS))
def test_flow_is_the_last_row_of_a_leg_sampling(mode):
    p = np.array([0.3, -1.1, 0.7, 1.6, -1.4])
    for k, u in enumerate(planner.FAMILY_CONTROLS[mode]):
        for duration in (0.37, -1.25, 0.0):
            dense = kernels.rk4_constant(mode.kernel_id, p, *u, duration,
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
    with pytest.raises(ValueError):
        kernels.velocity(7, p0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernels.rk4_constant(-1, p0, 1.0, 0.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        kernels.rk4_constant(0, p0, 1.0, 0.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        kernels.zcoeff_grads(4, 0.0, 0.0, 1.0, 0.0, 0.0)


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

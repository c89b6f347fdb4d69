"""Bracket-generating families, distinguished brackets, and path planning."""
from __future__ import annotations

import numpy as np
import pytest

from saucer import planner
from saucer.forms import bracket
from saucer.maneuvers import ManeuverMode, constraint_residuals, maneuver_velocity
from saucer.sampling import BOX_HALF_WIDTH, rng_for, sample_chart_points

MODES = (ManeuverMode.ATTACKING, ManeuverMode.LANDING, ManeuverMode.G2_STRICT)


def test_family_fields_match_the_control_law():
    pts = sample_chart_points(6, 91, "test-family")
    for mode in MODES:
        for k, u in enumerate(planner.FAMILY_CONTROLS[mode]):
            X = planner.family_field(mode, k)
            for p in pts:
                np.testing.assert_allclose(
                    X.value(p), maneuver_velocity(mode, p, *u), atol=1e-12)


def test_family_jacobians_match_difference_quotients():
    p = np.array([0.2, -0.3, 0.1, 0.4, -0.6])
    eps = 1e-6
    for mode in MODES:
        for k in range(4):
            X = planner.family_field(mode, k)
            J = X.jacobian(p)
            for i in range(5):
                dp = np.zeros(5)
                dp[i] = eps
                quotient = (X.value(p + dp) - X.value(p - dp)) / (2 * eps)
                np.testing.assert_allclose(J[:, i], quotient, atol=1e-8)


@pytest.mark.parametrize("mode", MODES)
def test_family_is_bracket_generating(mode):
    pts = sample_chart_points(30, 17, f"test-gen-{mode.value}")
    report = planner.bracket_generating_report(mode, pts)
    assert report.passed()
    assert report.min_rank == 5
    assert report.worst_fifth_singular > 1e-6


def test_attacking_bracket_identity():
    pts = sample_chart_points(10, 23, "test-att-id")
    assert planner.distinguished_bracket_residual(
        ManeuverMode.ATTACKING, pts) < 1e-8


def test_g2_bracket_identity():
    pts = sample_chart_points(10, 24, "test-g2-id")
    assert planner.distinguished_bracket_residual(
        ManeuverMode.G2_STRICT, pts) < 1e-8


def test_landing_nested_bracket_vanishes_identically():
    # The depth-3 landing expression is exactly zero: its stated constant
    # value is unreachable, and the depth-2 brackets do the generating work.
    pts = sample_chart_points(12, 25, "test-nested")
    assert planner.landing_nested_bracket_norm(pts) == 0.0
    resid = planner.distinguished_bracket_residual(ManeuverMode.LANDING, pts)
    assert abs(resid - 9.0) < 1e-4


def test_landing_depth2_contact_values():
    for p in sample_chart_points(12, 26, "test-depth2"):
        a, b = p[3], p[4]
        v24, v13 = planner.landing_depth2_contact_values(p)
        assert abs(v24 - (1 + b * b)) < 1e-6
        assert abs(v13 - 9 * (1 + a * a)) < 1e-6


def test_depth2_matches_direct_bracket_contact_pairing():
    p = np.array([0.1, 0.2, -0.1, 0.5, -0.4])
    Y = planner.bracket_family(ManeuverMode.LANDING)
    w = np.array([-p[3], -p[4], 1.0, 0.0, 0.0])
    v24, v13 = planner.landing_depth2_contact_values(p)
    assert abs(v24 - w @ bracket(Y[1], Y[3], p)) < 1e-12
    assert abs(v13 - w @ bracket(Y[0], Y[2], p)) < 1e-12


def test_flow_base_case():
    # Y1 of the landing family is the constant field -3 d/db.
    end = planner.flow(ManeuverMode.LANDING, 0, np.zeros(5), 1.0)
    np.testing.assert_allclose(end, [0, 0, 0, 0, -3.0], atol=1e-12)


def test_rectangle_asymptotics():
    for mode, coeff in ((ManeuverMode.ATTACKING, 3.0),
                        (ManeuverMode.G2_STRICT, 1.0)):
        p0 = sample_chart_points(1, 31, f"test-rect-{mode.value}")[0]
        (i, j), stated = planner._RECTANGLE[mode]
        assert stated == coeff
        for eps in (0.2, 0.1):
            p = p0.copy()
            for k, s in ((i, eps), (j, eps), (i, -eps), (j, -eps)):
                p = planner.flow(mode, k, p, s)
            ratio = (p[2] - p0[2]) / eps ** 2
            assert abs(ratio - coeff) < 1e-8 * coeff
            # the other four coordinates return to where they started
            np.testing.assert_allclose(np.delete(p, 2), np.delete(p0, 2),
                                       atol=1e-8)


def test_plan_pinned_example():
    plan = planner.plan_path(ManeuverMode.ATTACKING,
                             [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], tol=1e-6)
    assert plan.success
    assert plan.legs == ((0, -1.0 / 3.0),)


def test_plan_and_replay_across_modes():
    rng = rng_for(77, "test-plan")
    for mode in MODES:
        for _ in range(3):
            start = rng.uniform(-0.8, 0.8, size=5)
            goal = rng.uniform(-0.8, 0.8, size=5)
            plan = planner.plan_path(mode, start, goal, tol=1e-3)
            assert plan.success, (mode, start, goal)
            assert float(np.max(np.abs(plan.gap))) < 1e-3
            traj = planner.replay(plan)
            np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
            report = constraint_residuals(traj)
            assert report.max_contact < 1e-8
            assert report.max_nullity < 1e-8


def test_replay_handles_backward_legs():
    plan = planner.plan_path(ManeuverMode.G2_STRICT,
                             [0, 0, 0, 0, 0], [-0.4, 0.2, -0.1, 0.3, 0.2],
                             tol=1e-3)
    assert plan.success
    assert any(s < 0 for _, s in plan.legs)
    traj = planner.replay(plan)
    assert np.all(np.diff(traj.times) > 0)
    assert constraint_residuals(traj).passed()


def test_plan_rejects_bad_shapes():
    with pytest.raises(ValueError):
        planner.plan_path(ManeuverMode.ATTACKING, [0, 0, 0], [0, 0, 0, 0, 0])


def test_simple_mode_plans_with_the_strict_family():
    plan = planner.plan_path(ManeuverMode.G2_SIMPLE,
                             [0, 0, 0, 0, 0], [0.5, 0.0, 0.2, 0.0, 0.0],
                             tol=1e-3)
    assert plan.success
    assert plan.mode is ManeuverMode.G2_SIMPLE
    traj = planner.replay(plan)
    assert constraint_residuals(traj, mode=ManeuverMode.G2_STRICT).passed()


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_every_mode_plans_across_the_sampling_box(mode):
    pts = sample_chart_points(12, 97, f"test-box-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2], pts[1::2]):
        plan = planner.plan_path(mode, start, goal, tol=1e-3)
        assert plan.success, (mode, start, goal)
        traj = planner.replay(plan)
        np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
        assert constraint_residuals(traj).passed()

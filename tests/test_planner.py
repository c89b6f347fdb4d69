"""Bracket-generating families, distinguished brackets, and path planning."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from saucer import kernels, planner
from saucer.chart import DIST_SLOTS, contact_covector
from saucer.forms import bracket, complex_step_derivative
from saucer.maneuvers import (ControlProgram, ManeuverMode, constraint_residuals,
                              integrate_trajectory, maneuver_velocity)
from saucer.sampling import BOX_HALF_WIDTH, rng_for, sample_vectors

MODES = (ManeuverMode.ATTACKING, ManeuverMode.LANDING, ManeuverMode.G2_STRICT)


def test_family_fields_match_the_control_law():
    pts = sample_vectors(6, 5, 91, "test-family")
    for mode in MODES:
        for k, u in enumerate(planner.FAMILY_CONTROLS[mode]):
            X = planner.family(mode)[k]
            for p in pts:
                np.testing.assert_allclose(
                    X.value(p), maneuver_velocity(mode, p, *u), atol=1e-12)


def test_family_jacobians_match_difference_quotients():
    p = np.array([0.2, -0.3, 0.1, 0.4, -0.6])
    eps = 1e-6
    for mode in MODES:
        for k in range(4):
            X = planner.family(mode)[k]
            J = X.jacobian(p)
            for i in range(5):
                dp = np.zeros(5)
                dp[i] = eps
                quotient = (X.value(p + dp) - X.value(p - dp)) / (2 * eps)
                np.testing.assert_allclose(J[:, i], quotient, atol=1e-8)


def _family_jacobian(mode, k, p):
    """The closed-form Jacobian of family member k, sympy's derivative of
    `kernels.law` in (a, b): the reference for its complex step; (m, 5, 5)
    over a stack (m, 5)."""
    a, b = sp.symbols("a b")
    v = kernels.law(mode, a, b, *map(sp.Rational, planner.FAMILY_CONTROLS[mode][k]))
    J = np.zeros(p.shape + (5,))
    for i, component in enumerate(v):
        for j, var in ((3, a), (4, b)):
            J[..., i, j] = sp.lambdify((a, b), sp.diff(component, var))(p[:, 3], p[:, 4])
    return J


def test_family_jacobians_and_brackets_match_the_closed_forms():
    pts = sample_vectors(40, 5, 93, "test-family-closed-form")
    for mode in MODES:
        Y = planner.family(mode)
        for k in range(4):
            np.testing.assert_allclose(Y[k].jacobian(pts), _family_jacobian(mode, k, pts),
                                       rtol=0.0, atol=1e-14)
        V, B = Y.brackets(pts)
        np.testing.assert_array_equal(V, np.stack([X.value(pts) for X in Y], axis=1))
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(B[:, i, j], bracket(Y[i], Y[j], pts),
                                           rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("mode", MODES)
def test_family_is_bracket_generating(mode):
    pts = sample_vectors(30, 5, 17, f"test-gen-{mode.value}")
    report = planner.bracket_generating_report(mode, pts)
    assert report.passed()
    assert report.min_rank == 5
    assert report.worst_fifth_singular > 1e-6


def test_attacking_bracket_identity():
    pts = sample_vectors(10, 5, 23, "test-att-id")
    assert planner.distinguished_bracket_residual(
        ManeuverMode.ATTACKING, pts) < 1e-8


def test_g2_bracket_identity():
    pts = sample_vectors(10, 5, 24, "test-g2-id")
    assert planner.distinguished_bracket_residual(
        ManeuverMode.G2_STRICT, pts) < 1e-8


def test_landing_nested_bracket_vanishes_identically():
    # The depth-3 landing expression is exactly zero: its stated constant
    # value is unreachable, and the depth-2 brackets do the generating work.
    pts = sample_vectors(12, 5, 25, "test-nested")
    assert planner.landing_nested_bracket_norm(pts) == 0.0
    resid = planner.distinguished_bracket_residual(ManeuverMode.LANDING, pts)
    assert resid == 9.0


def _sympy_landing_family():
    coords = sp.symbols("x y z a b")
    a, b = coords[3], coords[4]
    family = [sp.Matrix(kernels.law(ManeuverMode.LANDING, a, b, *map(sp.Rational, u)))
              for u in planner.FAMILY_CONTROLS[ManeuverMode.LANDING]]

    def br(X, Y):
        return sp.expand(Y.jacobian(coords) * X - X.jacobian(coords) * Y)

    return family, br, coords


def _sympy_landing_nested():
    family, br, _ = _sympy_landing_family()
    return br(family[0], br(family[1], br(family[1], family[2])))


def test_landing_family_meets_the_third_difference_premises():
    # constant (a, b) steps, no x, y, z, and cubic x/y/z components are what
    # make the third difference at the origin the exact nested bracket
    family, _, coords = _sympy_landing_family()
    a, b = coords[3], coords[4]
    for Y in family:
        assert not Y.free_symbols & set(coords[:3])
        assert not Y[3].free_symbols and not Y[4].free_symbols
        assert all(sp.Poly(c, a, b).total_degree() <= 3 for c in Y[:3])


def test_landing_nested_equals_the_sympy_bracket():
    want = _sympy_landing_nested()
    assert list(want) == [0] * 5
    np.testing.assert_array_equal(planner._landing_nested(), np.zeros(5))


def test_landing_nested_follows_a_perturbed_law(monkeypatch):
    # negative control: cubic terms added to the law must show up exactly
    law = kernels.law

    def perturbed(mode, a, b, u1, u2, u3):
        vx, vy, vz, va, vb = law(mode, a, b, u1, u2, u3)
        return vx + u3 * a * a * b, vy, vz + u2 * a * b * b, va, vb

    monkeypatch.setattr(kernels, "law", perturbed)
    planner._landing_nested.cache_clear()
    try:
        want = _sympy_landing_nested()
        got = planner._landing_nested()
    finally:
        monkeypatch.undo()
        planner._landing_nested.cache_clear()
    want = [float(c) for c in want]  # raises unless every component is a constant
    assert want == [-6.0, 0.0, -18.0, 0.0, 0.0]
    np.testing.assert_array_equal(got, want)


def test_landing_depth2_contact_values():
    for p in sample_vectors(12, 5, 26, "test-depth2"):
        a, b = p[3], p[4]
        v24, v13 = planner.landing_depth2_contact_values(p)
        assert abs(v24 - (1 + b * b)) < 1e-6
        assert abs(v13 - 9 * (1 + a * a)) < 1e-6


def test_depth2_matches_direct_bracket_contact_pairing():
    p = np.array([0.1, 0.2, -0.1, 0.5, -0.4])
    Y = planner.family(ManeuverMode.LANDING)
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
        p0 = sample_vectors(1, 5, 31, f"test-rect-{mode.value}")[0]
        (i, j), displacement, _ = planner._RECTANGLE[mode]
        assert displacement[2] == coeff
        for eps in (0.2, 0.1):
            p = p0.copy()
            for k, s in ((i, eps), (j, eps), (i, -eps), (j, -eps)):
                p = planner.flow(mode, k, p, s)
            ratio = (p[2] - p0[2]) / eps ** 2
            assert abs(ratio - coeff) < 1e-8 * coeff
            # the other four coordinates return to where they started
            np.testing.assert_allclose(np.delete(p, 2), np.delete(p0, 2),
                                       atol=1e-8)


def _rectangle_endpoint(mode, p0, e1, e2):
    (i, j), _, _ = planner._RECTANGLE[mode]
    p = p0.tolist()
    for k, s in ((i, e1), (j, e2), (i, -e1), (j, -e2)):
        p = planner.flow(mode, k, p, s)
    return np.array(p)


def test_each_rectangle_moves_its_start_by_its_exact_displacement():
    # the premise of the planner's guess: from any p and at any (e1, e2) the
    # rectangle ends at p + e1 e2 d(p), with d as the table states it
    exact = {ManeuverMode.ATTACKING: lambda b: [0.0, 0.0, 3.0, 0.0, 0.0],
             ManeuverMode.LANDING: lambda b: [0.0, -b, 1.0, 0.0, 0.0],
             ManeuverMode.G2_STRICT: lambda b: [0.0, 0.0, 1.0, 0.0, 0.0]}
    for mode in MODES:
        _, constant, per_b = planner._RECTANGLE[mode]
        rng = rng_for(96, f"test-rectangle-{mode.value}")
        for p0, (e1, e2) in zip(rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, (200, 5)),
                                rng.uniform(-1.5, 1.5, (200, 2))):
            d = np.add(constant, p0[4] * np.array(per_b))
            np.testing.assert_array_equal(d, exact[mode](p0[4]))
            want = p0 + e1 * e2 * d
            got = _rectangle_endpoint(mode, p0, e1, e2)
            # 1.1e-15 at worst: the endpoint to rounding
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_landing_contact_value_is_not_the_z_gain_of_its_rectangle():
    # 1 + b^2 is the contact value of dz - b dy, which moves z by 1 per unit
    # e1 e2: a rectangle sized by 1 + b^2 misses z by b^2 e1 e2
    mode = ManeuverMode.LANDING
    rng = rng_for(96, "test-rectangle-gain")
    misses = []
    for p0, (e1, e2) in zip(rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, (50, 5)),
                            rng.uniform(-1.5, 1.5, (50, 2))):
        _, constant, per_b = planner._RECTANGLE[mode]
        d = np.add(constant, p0[4] * np.array(per_b))
        contact = planner.landing_depth2_contact_values(p0)[0]
        assert abs(contact_covector(p0) @ d - contact) <= 1e-13 * contact
        assert contact == pytest.approx(1.0 + p0[4] ** 2, rel=1e-13)
        z = _rectangle_endpoint(mode, p0, e1, e2)[2]
        miss = p0[2] + contact * e1 * e2 - z
        assert miss == pytest.approx(p0[4] ** 2 * e1 * e2, rel=1e-11, abs=1e-13)
        misses.append(abs(miss))
    assert max(misses) > 1.0


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


@pytest.mark.parametrize("start,goal,kwargs", [
    ([math.nan, 0, 0, 0, 0], [0, 0, 0, 0, 0], {}),
    ([0, 0, 0, 0, 0], [math.inf, 0, 0, 0, 0], {}),
    ([0, 0, 0, 0, 0], [0, 0, 0, 0, -math.inf], {}),
    ([0, 0, 0, 0, 0], [0, 0, 0.4, 0, 0], {"tol": -1.0}),
    ([0, 0, 0, 0, 0], [0, 0, 0.4, 0, 0], {"tol": 0.0}),
    ([0, 0, 0, 0, 0], [0, 0, 0.4, 0, 0], {"tol": math.nan}),
    ([0, 0, 0, 0, 0], [0, 0, 0.4, 0, 0], {"tol": math.inf}),
    ([0, 0, 0, 0, 0], [0, 0, 0.4, 0, 0], {"max_iterations": 0}),
])
def test_plan_rejects_bad_inputs(start, goal, kwargs):
    with pytest.raises(ValueError):
        planner.plan_path(ManeuverMode.ATTACKING, start, goal, **kwargs)


def test_plan_trace_accounts_for_every_leg():
    start, goal = [0.1, -0.2, 0.3, 0.0, 0.2], [-0.4, 0.2, -0.1, 0.3, 0.2]
    plain = planner.plan_path(ManeuverMode.LANDING, start, goal)
    traced = planner.plan_path(ManeuverMode.LANDING, start, goal, trace=True)
    assert plain.trace is None and "trace" not in plain.to_json_dict()
    assert traced.legs == plain.legs
    np.testing.assert_array_equal(traced.achieved, plain.achieved)
    assert len(traced.trace) == traced.iterations
    assert sum(added for _, added in traced.trace) == len(traced.legs)
    gaps = [gap for gap, _ in traced.trace]
    assert gaps[0] == float(np.max(np.abs(np.subtract(goal, start))))
    assert gaps[-1] < traced.tol <= min(gaps[:-1])
    assert traced.to_json_dict()["trace"][0] == {"gap_max": gaps[0],
                                                 "legs_added": traced.trace[0][1]}


# -- Newton shooting -----------------------------------------------------------

def _word_endpoint(word, start, product):
    """q + P d(q) as a function of the word's durations, in plain
    arithmetic: q the endpoint of the word's legs from start and d the
    rectangle's displacement per unit e1 e2 there."""

    def endpoint(theta):
        p = tuple(start)
        for _, u1, u2, u3, slot, sign in word.legs:
            p = kernels.flow(word.mode, p, u1, u2, u3, sign * theta[..., slot])
        q = np.stack(np.broadcast_arrays(*p), axis=-1)
        return q + product * (np.array(word.displacement) + q[..., 4:] * word.per_b)

    return endpoint


def _assert_word_jacobian_matches_complex_steps(word, name, directions=tuple(np.eye(4))):
    """`_word_jacobian` of the word along each direction equals numpy's
    complex step of `_word_endpoint` projected on it, at starts across the
    sampling box and at P = 0 and P != 0; unit directions give its columns."""
    starts = sample_vectors(10, 5, 93, f"test-word-{name}", box=BOX_HALF_WIDTH)
    rng = rng_for(93, f"test-word-theta-{name}")
    thetas = rng.uniform(-1.0, 1.0, (10, 4))
    products = rng.uniform(-1.0, 1.0, 10)
    n = np.array(directions, dtype=float)
    for start, theta, product in zip(starts, thetas, products):
        points = planner._shoot(word, [start.tolist()], theta.tolist())
        for P in (0.0, float(product)):
            want = complex_step_derivative(_word_endpoint(word, start, P), theta).T @ n.T
            got = np.array(planner._word_jacobian(word, points, theta.tolist(), P,
                                                  n.tolist())).T
            assert got.shape == (5, len(n))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_word_jacobian_matches_complex_steps(mode):
    word = planner._WORD_TABLES[planner._family_mode(mode)].prefix
    _assert_word_jacobian_matches_complex_steps(word, mode.value)


def test_word_jacobian_assumes_nothing_of_the_family():
    # four landing legs whose controls are no family member's, two of them
    # backwards: the complex steps need only the flow and its law
    controls = ((0.7, -0.4, 0.3), (-0.2, 0.9, 0.5), (1.3, 0.4, -0.8), (0.1, -1.1, 1.2))
    assert not set(controls) & set(planner.FAMILY_CONTROLS[ManeuverMode.LANDING])
    legs = tuple((k, *u, k, sign) for k, (u, sign) in enumerate(zip(controls, (1.0, -1.0) * 2)))
    word = planner._Word(ManeuverMode.LANDING, controls,
                         *planner._RECTANGLE[ManeuverMode.LANDING][1:], legs,
                         *planner._free_directions(ManeuverMode.LANDING, controls))
    _assert_word_jacobian_matches_complex_steps(word, "hand-built")
    _assert_word_jacobian_matches_complex_steps(word, "hand-built-free", word.free)


FREE_DIRECTIONS = {
    ManeuverMode.ATTACKING: ((-1, 0, 1, 0), (0, -1, 0, 1)),
    ManeuverMode.LANDING: ((-1, 0, 1, 0), (0, -1, 0, 1)),
    ManeuverMode.G2_STRICT: ((1, 0, 0, 0), (0, -6, 2, 1)),
}


@pytest.mark.parametrize("mode", MODES)
def test_free_directions_leave_the_ab_endpoint_where_it_is(mode):
    # the family legs move (a, b) by their durations times the members'
    # constant (va, vb): exactly nothing along a free direction, in exact
    # rational arithmetic, and the word's Jacobian along it has no (a, b) part
    word = planner._WORD_TABLES[mode]
    assert word.free == FREE_DIRECTIONS[mode]
    ab = [[Fraction(v) for v in kernels.law(mode, 0.0, 0.0, *u)[3:]] for u in word.controls]
    for n in word.free:
        assert [sum(Fraction(n_k) * v[c] for n_k, v in zip(n, ab)) for c in (0, 1)] == [0, 0]
    _assert_word_jacobian_matches_complex_steps(word.prefix, f"free-{mode.value}", word.free)
    starts = sample_vectors(10, 5, 96, f"test-free-{mode.value}", box=BOX_HALF_WIDTH)
    thetas = rng_for(96, f"test-free-theta-{mode.value}").uniform(-1.0, 1.0, (10, 4))
    for start, theta in zip(starts, thetas):
        points = planner._shoot(word.prefix, [start.tolist()], theta.tolist())
        for column in planner._word_jacobian(word.prefix, points, theta.tolist(), 0.3,
                                             word.free):
            assert max(map(abs, column[3:])) <= 1e-15 * max(map(abs, column))


def _lapack_phase1(word, p, target) -> list:
    """The phase-1 durations by LAPACK, an oracle independent of `_phase1`:
    the 4x4 (x, y, a, b) system whose columns are the family fields at p,
    from `kernels.law`, solved by `np.linalg.solve`."""
    matrix = np.array([kernels.law(word.mode, p[3], p[4], *u) for u in word.controls]).T
    return np.linalg.solve(matrix[DIST_SLOTS], [target[i] - p[i] for i in DIST_SLOTS]).tolist()


def test_one_reduced_guess_step_is_one_full_newton_step(monkeypatch):
    # the (a, b) rows are met from the phase-1 solve on, so the step of the
    # 5x5 system in (s, P) lies along the free directions: one step of the
    # 3x3 system in (alpha1, alpha2, P) lands where it does
    word = planner._WORD_TABLES[ManeuverMode.LANDING]
    monkeypatch.setattr(planner, "MAX_GUESS_STEPS", 1)
    pts = sample_vectors(20, 5, 97, "test-reduced-step", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2].tolist(), pts[1::2].tolist()):
        s = _lapack_phase1(word, start, goal)
        points = planner._shoot(word.prefix, [start], s)
        q = np.array(points[-1])
        P = (goal[2] - q[2]) / word.displacement[2]
        d = np.array(word.displacement) + q[4] * np.array(word.per_b)
        J = complex_step_derivative(_word_endpoint(word.prefix, start, P), np.array(s)).T
        delta = np.linalg.solve(np.column_stack([J, d]), np.array(goal) - q - P * d)
        guess, product, _ = planner._guess(word, goal, s, points, 1e-300)
        want = np.append(np.array(s) + delta[:4], P + delta[4])
        got = np.append(guess, product)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode,start,goal", [
    # g2d, seed 35, pair 15399 of the plan workload's stream
    (ManeuverMode.G2_STRICT,
     [1.3845288603361197, -1.9928088325868165, 0.5793468415951457, 1.765415974332364,
      -1.9546292599384043],
     [-0.9476894875553088, 1.9138436372288252, 1.7678790941294444, -0.31333420631874387,
      0.4663061981747605]),
    # g2s, seed 36, pair 24542
    (ManeuverMode.G2_SIMPLE,
     [-1.9438874757163762, 1.9751573015688004, -0.6483141413592817, -1.2781046997984777,
      1.6580892868675265],
     [-0.2000466048982248, -1.9210472520108872, 1.5923978106850267, 1.0679164372530723,
      -1.304993965829839]),
])
def test_corner_pairs_the_rectangle_loop_missed(mode, start, goal):
    # one capped rectangle per iteration spent 200 iterations and 804 legs on each
    plan = planner.plan_path(mode, start, goal, tol=1e-3)
    assert plan.success and plan.pieces == 1
    assert len(plan.legs) <= 8
    traj = planner.replay(plan)
    np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
    assert constraint_residuals(traj).passed()


@pytest.mark.parametrize("mode", [ManeuverMode.ATTACKING, ManeuverMode.G2_SIMPLE,
                                  ManeuverMode.G2_STRICT])
def test_state_free_families_take_no_newton_step(mode):
    # c1..c4 do not depend on the state, so the phase-1 guess and the
    # rectangle sized by the bracket's gain land on the goal
    pts = sample_vectors(8, 5, 94, f"test-exact-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2], pts[1::2]):
        plan = planner.plan_path(mode, start, goal, tol=1e-10, trace=True)
        assert plan.success and plan.iterations == 2
        assert len(plan.legs) == 8 and plan.trace[0][1] == 8
        assert plan.trace[1][0] < 1e-10 and plan.trace[1][1] == 0


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_the_guess_solves_the_family_legs_and_the_rectangle_together(mode, monkeypatch):
    # the word shot at the guess's s and e1 e2 = P ends within a fraction
    # of tol of the goal; the attacking and G2 guesses are the phase-1 s and
    # the P that meets z, found without shooting the family legs again
    fmode = planner._family_mode(mode)
    word = planner._WORD_TABLES[fmode]
    shots = []
    shoot = planner._shoot
    monkeypatch.setattr(planner, "_shoot", lambda *args: shots.append(args) or shoot(*args))

    def newton_shots():
        """The shoots at the Newton's durations; the Jacobian's shoots are
        at complex durations."""
        return [args for args in shots if not isinstance(args[2][0], complex)]

    pts = sample_vectors(20, 5, 98, f"test-guess-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2].tolist(), pts[1::2].tolist()):
        s = _lapack_phase1(word, start, goal)
        points = shoot(word.prefix, [start], s)
        assert len(points) == 5
        shots.clear()
        guess, product, prefix = planner._guess(word, goal, s, points, 1e-3)
        e = math.sqrt(abs(product))
        rectangle = [e, e if product >= 0.0 else -e]
        shot = shoot(word, [start], guess + rectangle)
        assert planner._gap_max(goal, shot[-1]) < planner.GUESS_TOL_FRACTION * 1e-3
        # the points it returns are the family legs' at its s, bit for bit,
        # so the shooter flows the rectangle from them alone
        assert prefix == shot[:5]
        assert shoot(word, prefix, guess + rectangle) == shot
        if fmode is not ManeuverMode.LANDING:
            assert guess is s and prefix is points and not shots
            assert product == (goal[2] - points[-1][2]) / word.displacement[2]
        else:
            # each Newton step shoots once at the complex step along each
            # free direction, then once at its new s
            assert 0 < len(newton_shots()) <= planner.MAX_GUESS_STEPS
            assert len(shots) == 3 * len(newton_shots())
            assert all(len(args[0].legs) == 4 for args in shots)


def test_the_word_is_shot_through_planner_flow(monkeypatch):
    # the shooter moves the state by kernels.flow, one call per leg straight
    # from the word's table, so wrapping it as the planner sees it sees every
    # leg the shooter flows
    calls = []
    real = kernels.flow
    monkeypatch.setattr(planner.kernels, "flow",
                        lambda *args: calls.append(args) or real(*args))
    start, goal = [0.1, -0.2, 0.3, 0.0, 0.2], [-0.4, 0.2, -0.1, 0.3, 0.2]
    plan = planner.plan_path(ManeuverMode.ATTACKING, start, goal, tol=1e-10)
    # the four phase-1 legs, then the rectangle flowed from their endpoint
    assert plan.success and len(calls) == 8
    assert [args[5] for args in calls[4:]] == [s for _, s in plan.legs[4:]]


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_the_shooter_flows_no_leg_of_zero_duration(mode, monkeypatch):
    # the rectangle is flowed only once its durations are sized, never at
    # e1 = e2 = 0 behind the phase-1 legs
    durations = []
    real = kernels.flow
    monkeypatch.setattr(planner.kernels, "flow",
                        lambda *args: durations.append(args[5]) or real(*args))
    pts = sample_vectors(12, 5, 99, f"test-no-zero-leg-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in list(zip(pts[0::2], pts[1::2])) + [FALLBACK_PAIRS[0]]:
        durations.clear()
        plan = planner.plan_path(mode, start, goal, tol=1e-3)
        assert plan.success
        assert len(durations) >= 8 and all(s != 0.0 for s in durations)
    if mode is not ManeuverMode.LANDING:
        # a goal the four phase-1 legs meet: the rectangle is never flowed
        word = planner._WORD_TABLES[planner._family_mode(mode)]
        start = pts[0].tolist()
        goal = planner._shoot(word.prefix, [start], [0.3, -0.2, 0.4, 0.1])[-1]
        durations.clear()
        plan = planner.plan_path(mode, start, goal, tol=1e-3)
        assert plan.success and len(plan.legs) == 4
        assert len(durations) == 4 and all(s != 0.0 for s in durations)


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_shoot_equals_a_chain_of_planner_flow(mode):
    # the word's table spells the word: shooting it flows the legs that a
    # chain of planner.flow calls does, bit for bit, at any signs of theta
    fmode = planner._family_mode(mode)
    starts = sample_vectors(4, 5, 95, f"test-shoot-{mode.value}", box=BOX_HALF_WIDTH)
    rng = rng_for(95, f"test-shoot-theta-{mode.value}")
    for start in starts:
        theta, delta = rng.uniform(-1.0, 1.0, (2, 6)).tolist()
        assert min(theta) < 0.0
        trial = [s + 0.25 * d for s, d in zip(theta, delta)]
        for durations in (theta, trial):
            points = planner._shoot(planner._WORD_TABLES[fmode], [start.tolist()], durations)
            chain = [tuple(start.tolist())]
            for k, slot, sign in planner._WORDS[fmode]:
                chain.append(planner.flow(mode, k, chain[-1], sign * durations[slot]))
            assert len(points) == len(chain) == 9
            assert np.array(points).tobytes() == np.array(chain).tobytes()


# landing pairs of the plan workload's stream (seed 1, pairs 2381, 7909 and
# 8789) whose word misses the goal. Shot at the midpoint and then at the
# goal, the word reaches each.
FALLBACK_PAIRS = [
    ([0.48719314659947965, 0.22458907620311308, -1.5949372395677908, -1.363551221422858,
      0.7349961763295223],
     [1.2566292862483088, -1.8918911848928315, -1.0525639568260599, 0.32864892132895296,
      -1.1844391195382982]),
    ([0.6285139348042592, -0.8208290057056349, -0.2025825465417075, -0.15118703552208057,
      1.3084116151181102],
     [-1.2031271922963882, 1.9947968450854554, 0.7522688269221103, -0.3673698831644807,
      1.5191496361874819]),
    ([-0.06495305486638303, 0.7435833612043878, 0.42772811526025745, -1.2851923685090458,
      1.3262923709673973],
     [0.8210815815101769, -1.7485680512682178, 1.1773607499936003, 0.22092201579561888,
      -1.2381454906905853]),
]
# landing: the word also misses the midpoint, and four waypoints reach the
# goal. No landing pair among the first 20,000 of the plan workload's stream
# at seeds 1-3 does; this one is from a seeded uniform search of [-3, 3]^5.
FOUR_WORD_PAIR = (
    [-1.9664273183804484, -1.0519067424692663, -1.8236678916157982, -0.1438005405256355,
     2.1554141482913574],
    [-0.5496770498111943, 1.7461041925530125, -0.10557077160041173, 0.8052108889057084,
     -0.15499600149534087])
# landing, seed 1, pair 30117 of the plan workload's stream: the guess misses
# tol, and two waypoints reach the goal
NEWTON_PAIR = (
    [1.529711367715017, 0.4008246431304885, 1.4883383333186067, 0.9503122269257069,
     1.1971996516202714],
    [-0.37961815663735443, -1.7654665030121497, -1.439494038561019, -0.9607768489229362,
     1.1985685773494312])
#: sha256 of (legs, achieved, pieces) of the default plans of
#: `FALLBACK_PAIRS` and `FOUR_WORD_PAIR`, pinned when a Gauss-Newton shooter
#: on the whole word still ran after a missed guess: where it missed too,
#: the restart alone makes the same plan. Pairs 1 and 2 and the four-word
#: plan were re-pinned when the guess's Jacobian became complex steps, which
#: moved the last bits of their achieved points, all four plans again
#: when the guess came to step along its free directions alone, and again
#: when phase 1 came to be solved by Cramer's rule on the exact (a, b)
#: pivot instead of LAPACK (iterations and pieces unchanged each time).
FALLBACK_PLANS_SHA256 = (
    "eca021b3c430a521735cef392f90d859ea2ff0b5025d53eb3ac43fbf3eadb5b7",
    "bc34a706b43f5b9df2428fb0b943c1fbe5ad4f4173ab903959ba67c145c6f247",
    "96876b20d3e49993010511b56eabe0928950c530929827097a0afff31c67b217",
)
FOUR_WORD_PLAN_SHA256 = "ecb022d3becf8a0b050ebde8d7adcba665958aa3cbc77fa62edfc33332bb23d4"


def _assert_waypoint_plan(start, goal, pieces, sha256=None):
    """The plan shoots `pieces` words from the start, each in a guess and a
    check iteration, after attempts that each ended on a missed word."""
    plan = planner.plan_path(ManeuverMode.LANDING, start, goal, trace=True)
    assert plan.success and plan.pieces == pieces and plan.reason is None
    assert len(plan.legs) == 8 * pieces
    assert len(plan.trace) == plan.iterations
    assert sum(added for _, added in plan.trace) == len(plan.legs)
    # every word takes two iterations: the earlier attempts' words missed,
    # one per attempt here, and their legs left the plan; the last attempt's
    # words add all the legs at their guesses
    first = plan.iterations - 2 * pieces
    words = list(range(first, plan.iterations, 2))
    attempts = (pieces - 1).bit_length()
    assert first == 2 * attempts
    assert all(added == 0 for _, added in plan.trace[:first])
    assert [plan.trace[k][1] for k in words] == [8] * pieces
    # each missed word's check finds a finite gap of at least tol, and each
    # word of the last attempt meets its waypoint at its check
    assert all(plan.tol <= plan.trace[k][0] < math.inf for k in range(1, first, 2))
    assert all(plan.trace[k + 1][0] < plan.tol for k in words)
    # each word aims at its waypoint
    assert plan.trace[words[0]][0] == pytest.approx(
        float(np.max(np.abs(np.subtract(goal, start)))) / pieces, rel=1e-12)
    # the last attempt restarts from the start with the iterations left
    log = planner._Iterations(200 - first)
    legs, p, reason = planner._waypoints(ManeuverMode.LANDING, list(start), goal,
                                         pieces, 1e-3, log)
    assert plan.legs == tuple(legs) and reason is None
    assert plan.achieved.tolist() == list(p)
    if sha256 is not None:
        text = json.dumps([plan.legs, plan.achieved.tolist(), plan.pieces])
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
    traj = planner.replay(plan)
    np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
    assert constraint_residuals(traj).passed()
    return plan


@pytest.mark.parametrize("pair", range(len(FALLBACK_PAIRS)))
def test_landing_fallback_restarts_from_the_start(pair):
    start, goal = FALLBACK_PAIRS[pair]
    plan = _assert_waypoint_plan(start, goal, pieces=2, sha256=FALLBACK_PLANS_SHA256[pair])
    # the word shot at the goal misses in its guess and check iterations,
    # then the two words take two iterations each
    assert plan.iterations == 6
    # with too few iterations left to restart, the miss is the reason
    for budget in (2, 3):
        spent = planner.plan_path(ManeuverMode.LANDING, start, goal, max_iterations=budget)
        assert (spent.success, spent.pieces, spent.iterations) == (False, 1, 2)
        assert spent.reason == spent.to_json_dict()["reason"] == "word missed"
        assert len(spent.legs) == 8
    # a waypoint met as the iterations run out ends the attempt there
    short = planner.plan_path(ManeuverMode.LANDING, start, goal, max_iterations=4)
    assert (short.success, short.pieces, short.reason) == \
        (False, 2, "max_iterations spent")
    assert short.iterations == 4 and short.legs == plan.legs[:8]


def test_landing_miss_plans_by_four_waypoints():
    plan = _assert_waypoint_plan(*FOUR_WORD_PAIR, pieces=4, sha256=FOUR_WORD_PLAN_SHA256)
    # one missed word at the goal, one at the first of two waypoints, then
    # four words
    assert plan.iterations == 12


def test_a_missed_word_costs_its_guess_and_its_check():
    start, goal = NEWTON_PAIR
    plan = _assert_waypoint_plan(start, goal, pieces=2)
    assert plan.iterations == 6
    # the missed word alone, its legs kept: the same two iterations
    one = planner.plan_path(ManeuverMode.LANDING, start, goal, max_iterations=2, trace=True)
    assert (one.pieces, len(one.legs)) == (1, 8)
    assert one.trace == ((plan.trace[0][0], 8), plan.trace[1])


@pytest.mark.parametrize("goal,tol", [([1e150, 0, 0, 0, 0], 1e-3), ([0.1, 0, 0, 0, 0], 1e-300)])
def test_waypoint_restarts_stop_at_the_iterations_left(goal, tol):
    # every word needs an iteration, so no attempt is made with more words
    # than iterations left: an unreachable goal fails after a few doublings
    plan = planner.plan_path(ManeuverMode.LANDING, np.zeros(5), goal, tol=tol)
    assert (plan.success, plan.reason) == (False, "word missed")
    assert (plan.pieces, plan.iterations) == (128, 16)
    assert plan.to_json_dict()["pieces"] == 128


def test_plan_reports_why_it_failed():
    start, goal = NEWTON_PAIR
    done = planner.plan_path(ManeuverMode.LANDING, start, goal, trace=True)
    payload = done.to_json_dict()
    assert done.success and payload["pieces"] == 2 and "reason" not in payload
    assert all(set(step) == {"gap_max", "legs_added"} for step in payload["trace"])
    short = planner.plan_path(ManeuverMode.LANDING, start, goal, max_iterations=1)
    assert (short.success, short.reason) == (False, "max_iterations spent")
    missed = planner.plan_path(ManeuverMode.LANDING, start, goal, max_iterations=2)
    assert (missed.success, missed.reason) == (False, "word missed")
    overflow = planner.plan_path(ManeuverMode.ATTACKING, np.zeros(5), [1e308] * 5)
    assert (overflow.success, overflow.reason) == (False, "gap not finite")


# -- replay --------------------------------------------------------------------

def _hand_plan(mode, start, legs):
    """A Plan over the given legs, its endpoint chained by planner.flow."""
    p = np.asarray(start, dtype=float)
    for k, s in legs:
        p = np.array(planner.flow(mode, k, p, s))
    return planner.Plan(mode, np.asarray(start, dtype=float), p, tuple(legs), p,
                        np.zeros(5), 1, 1e-3, True)


def test_hand_built_traced_plan_reports_its_trace():
    # a Plan built by hand, with a trace
    plan = dataclasses.replace(_hand_plan(ManeuverMode.ATTACKING, np.zeros(5), [(0, 0.5)]),
                               trace=((0.5, 1),))
    assert plan.to_json_dict()["trace"] == [{"gap_max": 0.5, "legs_added": 1}]


def _leg_controls(mode, k, s):
    fmode = planner._family_mode(mode)
    u = planner.FAMILY_CONTROLS[fmode][k]
    return planner._negated_controls(fmode, u) if s < 0.0 else u


def _per_leg_replay(plan):
    """One rk4_constant sampling per leg, joints shared: its times, its states
    and each sample's controls, (m, 3).

    A sample moves with the leg that leaves it, so every leg's controls cover
    its start and its interior samples, and the final sample keeps the last
    leg's controls.
    """
    fmode = planner._family_mode(plan.mode)
    times, states, controls = [np.zeros(1)], [plan.start[None, :]], []
    t0, p = 0.0, plan.start
    for k, s in plan.legs:
        u = _leg_controls(plan.mode, k, s)
        n = planner._leg_steps(abs(s))
        seg = kernels.rk4_constant(fmode, p, *u, abs(s), n)
        times.append(t0 + np.linspace(0.0, abs(s), n + 1)[1:])
        states.append(seg[1:])
        controls += [u] * n
        p = seg[-1]
        t0 += abs(s)
    controls.append(controls[-1])
    return np.concatenate(times), np.vstack(states), np.array(controls)


def _assert_matches_per_leg_replay(plan):
    fmode = planner._family_mode(plan.mode)
    real = kernels.law
    passes = []   # the law's evaluations over the whole stack of samples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "law", lambda mode, a, b, *u: passes.append(np.ndim(a))
                      or real(mode, a, b, *u))
        traj = planner.replay(plan)
    times, states, controls = _per_leg_replay(plan)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.states.shape == states.shape
    assert np.max(np.abs(traj.states - states)) <= 1e-13 * max(1.0, np.max(np.abs(states)))
    # each sample's velocity is the law at its own state and controls, bit
    # for bit, taken from the flow's own evaluation at the sample: the law
    # runs over the stack once per node of the flow, and no more
    np.testing.assert_array_equal(traj.velocities,
                                  kernels.velocity(fmode, traj.states, *controls.T))
    assert passes.count(1) == 3
    return traj


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_stacked_replay_matches_the_per_leg_replay(mode):
    rng = rng_for(78, f"test-stacked-{mode.value}")
    plans = [planner.plan_path(mode, rng.uniform(-2.0, 2.0, 5),
                               rng.uniform(-2.0, 2.0, 5), tol=1e-3) for _ in range(2)]
    if mode is ManeuverMode.LANDING:
        # a plan of two words, shot at the midpoint and then at the goal
        plans.append(planner.plan_path(mode, *FALLBACK_PAIRS[0]))
        assert len(plans[-1].legs) == 16
    for plan in plans:
        assert any(s < 0.0 for _, s in plan.legs)
        traj = _assert_matches_per_leg_replay(plan)
        np.testing.assert_array_equal(traj.endpoint, plan.achieved)


def test_replay_of_the_empty_plan_is_its_start():
    start = np.array([0.1, 0.2, -0.3, 0.4, -0.5])
    traj = planner.replay(_hand_plan(ManeuverMode.LANDING, start, ()))
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states, [start])
    np.testing.assert_array_equal(traj.velocities, np.zeros((1, 5)))


@pytest.mark.parametrize("s", [0.37, -0.37])
def test_replay_of_a_single_leg_is_its_sampling(s):
    mode = ManeuverMode.ATTACKING
    start = np.array([0.3, -1.1, 0.7, 1.6, -1.4])
    traj = _assert_matches_per_leg_replay(_hand_plan(mode, start, ((2, s),)))
    n = planner._leg_steps(s)
    u = _leg_controls(mode, 2, s)
    np.testing.assert_array_equal(
        traj.states, kernels.rk4_constant(mode, start, *u, abs(s), n))
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, abs(s), n + 1))
    np.testing.assert_array_equal(traj.velocities,
                                  kernels.velocity(mode, traj.states, *u))


def test_replay_joints_move_with_the_leg_that_leaves_them():
    mode = ManeuverMode.LANDING
    legs = ((0, 0.3), (3, -0.25), (1, 0.2))
    plan = _hand_plan(mode, [0.1, 0.2, -0.3, 0.4, -0.5], legs)
    traj = _assert_matches_per_leg_replay(plan)
    joints = np.cumsum([planner._leg_steps(s) for _, s in legs])
    assert len(traj) == joints[-1] + 1
    assert np.all(np.diff(traj.times) > 0.0)
    for row, (k, s) in zip([0, *joints[:-1]], legs):
        want = kernels.velocity(mode, traj.states[row], *_leg_controls(mode, k, s))
        np.testing.assert_array_equal(traj.velocities[row], want)
    k, s = legs[-1]
    np.testing.assert_array_equal(
        traj.velocities[-1],
        kernels.velocity(mode, traj.states[-1], *_leg_controls(mode, k, s)))
    np.testing.assert_array_equal(traj.endpoint, plan.achieved)


def test_replay_caps_the_samples_of_a_far_goal():
    # Each leg would take about 1e8 samples at LEG_DT; the cap thins them
    # without ever building the dense sampling.
    plan = planner.plan_path(ManeuverMode.LANDING, np.zeros(5), [1e6, 0, 0, 0, 0],
                             max_iterations=1)
    assert sum(abs(s) for _, s in plan.legs) / planner.LEG_DT > 100 * planner.MAX_REPLAY_SAMPLES
    tracemalloc.start()
    try:
        traj = planner.replay(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) <= planner.MAX_REPLAY_SAMPLES + len(plan.legs)
    assert peak < 40 * 8 * planner.MAX_REPLAY_SAMPLES
    assert np.all(np.diff(traj.times) > 0.0)
    np.testing.assert_array_equal(traj.endpoint, plan.achieved)


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
    pts = sample_vectors(12, 5, 97, f"test-box-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2], pts[1::2]):
        plan = planner.plan_path(mode, start, goal, tol=1e-3)
        assert plan.success, (mode, start, goal)
        traj = planner.replay(plan)
        np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
        assert constraint_residuals(traj).passed()


@pytest.mark.parametrize("mode", list(ManeuverMode))
@pytest.mark.parametrize("goal", [[1e300, 0, 0, 0, 0], [1e308] * 5, [0, 1e155, 0, 0, 1e155]])
def test_plan_stops_at_the_first_state_that_overflows(mode, goal):
    plan = planner.plan_path(mode, np.zeros(5), goal, trace=True)
    if plan.success:   # some families reach these goals in one exact leg
        assert np.all(np.isfinite(plan.achieved))
        return
    assert plan.iterations <= 3
    assert not np.all(np.isfinite(plan.achieved)) or not np.all(np.isfinite(plan.gap))
    assert not plan.trace[-1][0] < math.inf and plan.trace[-1][1] == 0
    assert all(np.isfinite(plan.trace[k][0]) for k in range(len(plan.trace) - 1))


@pytest.mark.parametrize("ab", [(1e150, 1e150), (-1e150, 1e150), (1e150, -1e150),
                                (-1e150, -1e150), (1e200, 0.0), (0.0, 1e200)])
def test_plan_from_a_singular_phase1_system_fails_with_its_reason(ab):
    # the landing fields far out in (a, b): their phase-1 determinant
    # overflows to inf or nan; the word is never shot
    start = [0.0, 0.0, 0.0, *ab]
    plan = planner.plan_path(ManeuverMode.LANDING, start, [0.1] * 5, trace=True)
    assert (plan.success, plan.reason, plan.legs, plan.pieces) == \
        (False, "phase-1 singular", (), 1)
    assert plan.iterations == 1 and plan.trace == ((max(map(abs, ab)), 0),)
    assert plan.achieved.tolist() == start
    assert plan.to_json_dict()["reason"] == "phase-1 singular"
    # the other modes' phase-1 systems solve at the same start, and landing's
    # does with b = 0
    for mode in (ManeuverMode.ATTACKING, ManeuverMode.G2_STRICT):
        assert planner.plan_path(mode, start, [0.1] * 5).reason != "phase-1 singular"
    assert planner.plan_path(ManeuverMode.LANDING, [0, 0, 0, 1e150, 0], [0.1] * 5).success


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_phase1_solves_the_system_lapack_solves(mode):
    # the exact (a, b) pivot and one 2x2 Cramer step along the free
    # directions solve the 4x4 phase-1 system to its last few bits
    word = planner._WORD_TABLES[planner._family_mode(mode)]
    pts = sample_vectors(400, 5, 99, f"test-phase1-{mode.value}", box=BOX_HALF_WIDTH)
    for start, target in zip(pts[0::2].tolist(), pts[1::2].tolist()):
        got, want = planner._phase1(word, start, target), _lapack_phase1(word, start, target)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13 * max(map(abs, want))


@pytest.mark.parametrize("mode", MODES)
def test_phase1_determinant_has_its_closed_form(mode):
    # the (x, y) rows of the family fields along the free directions make a
    # 2x2 determinant of 3 (attacking), -6 (G2) or 3 (1 + a^2 + b^2)
    # (landing): never zero, so phase 1 fails only by overflow
    word = planner._WORD_TABLES[mode]
    for a, b in sample_vectors(50, 2, 99, f"test-phase1-det-{mode.value}", box=4.0).tolist():
        vx, vy = list(zip(*[kernels.law(mode, a, b, *u) for u in word.controls]))[:2]
        (x1, y1), (x2, y2) = [(np.dot(n, vx), np.dot(n, vy)) for n in word.free]
        closed = {ManeuverMode.ATTACKING: 3.0, ManeuverMode.G2_STRICT: -6.0,
                  ManeuverMode.LANDING: 3.0 * (1.0 + a * a + b * b)}[mode]
        assert x1 * y2 - x2 * y1 == pytest.approx(closed, rel=1e-14)
        if mode is not ManeuverMode.LANDING:
            assert x1 * y2 - x2 * y1 == closed


@pytest.mark.parametrize("ab", [(1e150, 1e150), (-1e150, 1e150), (1e150, -1e150),
                                (-1e150, -1e150), (1e200, 0.0)])
def test_phase1_at_the_singular_cli_starts_is_none(ab):
    # the starts of tests/test_cli.py's singular phase-1 plans: the 2x2
    # determinant overflows there
    word = planner._WORD_TABLES[ManeuverMode.LANDING]
    assert planner._phase1(word, [0.0, 0.0, 0.0, *ab], [0.1] * 5) is None


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_plan_ops_call_no_lapack(mode, monkeypatch):
    # plan_path, its replay and the replay's residuals: what one `saucer
    # plan` computes
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    pts = sample_vectors(20, 5, 99, f"test-no-lapack-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2], pts[1::2]):
        plan = planner.plan_path(mode, start, goal)
        assert plan.success
        assert constraint_residuals(planner.replay(plan)).passed()
    with pytest.raises(AssertionError, match="np.linalg called"):
        np.linalg.solve(np.eye(2), np.ones(2))


def test_plan_stops_when_the_gap_itself_overflows():
    plan = planner.plan_path(ManeuverMode.ATTACKING, [-1e308, 0, 0, 0, 0],
                             [1e308, 0, 0, 0, 0])
    assert not plan.success
    assert plan.iterations == 1 and plan.legs == ()
    assert plan.reason == "gap not finite" and np.all(np.isfinite(plan.achieved))


INF = math.inf
#: Per mode and goal of `test_plan_stops_at_the_first_state_that_overflows`,
#: planned from the origin: the default plan's reason, its legs, and which
#: coordinates of its endpoint are finite (f), infinite (i) or nan (n). The
#: rectangle is never flowed at these goals, so the endpoint is where the
#: phase-1 legs end; flowing four legs of zero duration on from it turned
#: no inf into nan. A plan stopped after its guess has the same legs and
#: endpoint. At [1e308] * 5 the phase-1 solve's integer-weighted numerators
#: overflow, every duration is nan, and `_word_legs` keeps no leg of nan
#: duration; the legs and endpoints at the other two goals are the phase-1
#: solve's rounding, pinned from these `plan_path` calls.
OVERFLOW_PLANS = {
    (ManeuverMode.ATTACKING, 0): (None, ((0, -3.3333333333333335e+299),
                                         (2, 3.3333333333333335e+299)), "fffff"),
    (ManeuverMode.LANDING, 0): ("gap not finite", ((1, -1e+300), (3, 1e+300)), "fnnff"),
    (ManeuverMode.G2_SIMPLE, 0): (None, ((0, 1e+300),), "fffff"),
    (ManeuverMode.G2_STRICT, 0): (None, ((0, 1e+300),), "fffff"),
    (ManeuverMode.ATTACKING, 1): ("gap not finite", (), "nnnnn"),
    (ManeuverMode.LANDING, 1): ("gap not finite", (), "nnnnn"),
    (ManeuverMode.G2_SIMPLE, 1): ("gap not finite", (), "nnnnn"),
    (ManeuverMode.G2_STRICT, 1): ("gap not finite", (), "nnnnn"),
    (ManeuverMode.ATTACKING, 2): ("gap not finite", ((0, -3.3333333333333336e+154),
                                                     (1, -1e+155), (3, 1e+155)), "ffiff"),
    (ManeuverMode.LANDING, 2): ("gap not finite", ((2, -3.3333333333333336e+154),), "nfnff"),
    (ManeuverMode.G2_SIMPLE, 2): ("gap not finite", ((0, -1.6666666666666665e+154),
                                                     (1, 8.333333333333335e+154),
                                                     (2, -5.0000000000000006e+154),
                                                     (3, -1.6666666666666668e+154)), "ffiff"),
    (ManeuverMode.G2_STRICT, 2): ("gap not finite", ((0, -1.6666666666666665e+154),
                                                     (1, 8.333333333333335e+154),
                                                     (2, -5.0000000000000006e+154),
                                                     (3, -1.6666666666666668e+154)), "ffiff"),
}


def _finite_pattern(v) -> str:
    return "".join("f" if math.isfinite(x) else "n" if x != x else "i" for x in v.tolist())


@pytest.mark.parametrize("mode,goal", list(OVERFLOW_PLANS))
def test_overflowing_plans_end_where_their_phase1_legs_do(mode, goal):
    reason, legs, pattern = OVERFLOW_PLANS[mode, goal]
    goal = [[1e300, 0, 0, 0, 0], [1e308] * 5, [0, 1e155, 0, 0, 1e155]][goal]
    plan = planner.plan_path(mode, np.zeros(5), goal)
    assert (plan.reason, plan.iterations, plan.legs) == (reason, 2, legs)
    assert _finite_pattern(plan.achieved) == pattern
    short = planner.plan_path(mode, np.zeros(5), goal, max_iterations=1)
    assert (short.reason, short.iterations, short.legs) == \
        (reason and "max_iterations spent", 1, legs)
    assert _finite_pattern(short.achieved) == pattern


def test_replay_survives_a_plan_that_overflows():
    # finite inputs whose phase-1 solve overflows to an infinite leg
    plan = planner.plan_path(ManeuverMode.ATTACKING, np.zeros(5), [0, 1e308, 0, 0, 0],
                             max_iterations=5)
    assert not all(math.isfinite(s) for _, s in plan.legs)
    with np.errstate(all="ignore"):
        traj = planner.replay(plan)
    assert len(traj) <= planner.MAX_REPLAY_SAMPLES + len(plan.legs)


def test_stacked_family_fields_equal_pointwise_calls():
    pts = sample_vectors(50, 5, 92, "test-family-stack")
    for mode in MODES:
        for k in range(4):
            X = planner.family(mode)[k]
            np.testing.assert_array_equal(X.value(pts), [X.value(p) for p in pts])
            np.testing.assert_array_equal(X.jacobian(pts), [X.jacobian(p) for p in pts])
        Y = planner.family(mode)
        for i, j in ((0, 1), (1, 3), (2, 3)):
            np.testing.assert_array_equal(bracket(Y[i], Y[j], pts),
                                          [bracket(Y[i], Y[j], p) for p in pts])


def test_stacked_nested_landing_bracket_equals_pointwise():
    # the exact depth-3 polynomials at the points of acceptance criterion 8
    pts = sample_vectors(10, 5, 7, "acc.ids")
    resid = planner.distinguished_bracket_residual(ManeuverMode.LANDING, pts)
    assert resid == max(planner.distinguished_bracket_residual(ManeuverMode.LANDING, p)
                        for p in pts)
    assert resid == 9.0


def test_stacked_depth2_values_and_generating_report():
    pts = sample_vectors(40, 5, 27, "test-depth2-stack")
    v24, v13 = planner.landing_depth2_contact_values(pts)
    per_point = np.array([planner.landing_depth2_contact_values(p) for p in pts])
    np.testing.assert_allclose(v24, per_point[:, 0], rtol=1e-13, atol=0)
    np.testing.assert_allclose(v13, per_point[:, 1], rtol=1e-13, atol=0)
    for mode in MODES:
        report = planner.bracket_generating_report(mode, pts)
        scaled = [planner.bracket_generating_report(mode, p).worst_fifth_singular
                  for p in pts]
        assert report.worst_fifth_singular == min(scaled)
        assert report.worst_point == tuple(pts[int(np.argmin(scaled))])


#: sha256 of `_law_outputs_digests`, per mode for the plans and their
#: replays, and for the trajectories. Plans, replays and trajectories take
#: every value of the control law and its flow, so a change to either
#: that moves one bit shows here. The plan digests also follow the phase-1
#: solve's rounding; they were re-pinned when it stopped calling LAPACK.
LAW_OUTPUTS_SHA256 = {
    "attacking": "1aafc933a981e76ae852c9117a13b9e48694f92b9d5abd1d957dff168f06e861",
    "landing": "49159a491c4f91f2622fa399bcba236d8464a6e6fa091b4ca4d2112351de49fb",
    "g2s": "3b4854a782dca0a34fc6eea6380bf226c22524e0db43cde69c0d1cf817f07249",
    "g2d": "8503e512ee35a565a07e5b25f8d69a105b98ee9eafd2781aded5303faabcb95d",
    "trajectories": "8c0b540cf44bba12c73eeb8f4c2a9ce7663d9a62e641d82fc99001ff01ce9810",
}


def _law_outputs_digests() -> dict:
    """40 traced plans between full-box pairs (10 per mode) with their
    replays, and a constant and a polynomial `integrate_trajectory` in each
    mode; no control takes a sine, so no libm value enters the digests."""
    digests = {name: hashlib.sha256() for name in LAW_OUTPUTS_SHA256}
    rng = rng_for(24, "test-law-outputs")
    modes = list(ManeuverMode)
    for k in range(40):
        mode = modes[k % 4]
        digest = digests[mode.value]
        plan = planner.plan_path(mode, *rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, (2, 5)),
                                 trace=True)
        digest.update(json.dumps(plan.to_json_dict()).encode())
        traj = planner.replay(plan)
        for array in (traj.times, traj.states, traj.velocities):
            digest.update(array.tobytes())
    p0 = [0.1, -0.2, 0.3, 0.4, -0.5]
    for mode in modes:
        for controls in ((0.3, -0.7, 0.4), ([0.2, -0.5, 0.3], [0.4, 0.1], [-0.6, 0.0, 0.2])):
            traj = integrate_trajectory(ControlProgram(mode, *controls, dt=1e-3), p0)
            for array in (traj.times, traj.states, traj.velocities):
                digests["trajectories"].update(array.tobytes())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_plans_replays_and_trajectories_are_pinned_to_the_bit():
    assert _law_outputs_digests() == LAW_OUTPUTS_SHA256

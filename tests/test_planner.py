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

from saucer import kernels, planner, suites
from saucer.chart import DIST_SLOTS, contact_covector
from saucer.forms import bracket, complex_step_derivative
from saucer.maneuvers import (ControlProgram, ManeuverMode, constraint_residuals,
                              integrate_trajectory)
from saucer.sampling import BOX_HALF_WIDTH, rng_for, sample_vectors

MODES = (ManeuverMode.ATTACKING, ManeuverMode.LANDING, ManeuverMode.G2_STRICT)


def test_family_fields_match_the_control_law():
    pts = sample_vectors(6, 5, 91, "test-family")
    for mode in MODES:
        for k, u in enumerate(planner.FAMILY_CONTROLS[mode]):
            X = planner.family(mode)[k]
            for p in pts:
                np.testing.assert_allclose(
                    X.value(p), kernels.velocity(mode, p, *u), atol=1e-12)


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


# -- solving the word ----------------------------------------------------------

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
    starts = sample_vectors(10, 5, 96, f"test-free-{mode.value}", box=BOX_HALF_WIDTH)
    thetas = rng_for(96, f"test-free-theta-{mode.value}").uniform(-1.0, 1.0, (10, 4))
    for start, theta in zip(starts, thetas):
        jacobian = complex_step_derivative(_word_endpoint(word.prefix, start, 0.3), theta).T
        for column in (jacobian @ np.array(word.free).T).T:
            assert np.max(np.abs(column[3:])) <= 1e-15 * np.max(np.abs(column))


def _lapack_phase1(word, p, target) -> list:
    """The phase-1 durations by LAPACK, an oracle independent of `_phase1`:
    the 4x4 (x, y, a, b) system whose columns are the family fields at p,
    from `kernels.law`, solved by `np.linalg.solve`."""
    matrix = np.array([kernels.law(word.mode, p[3], p[4], *u) for u in word.controls]).T
    return np.linalg.solve(matrix[DIST_SLOTS], [target[i] - p[i] for i in DIST_SLOTS]).tolist()


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
    # the word shot at the guess's s and e1 e2 = P ends at the goal up to
    # rounding; the attacking and G2 guesses are the phase-1 s and the P
    # that meets z, found without shooting the family legs again
    fmode = planner._family_mode(mode)
    word = planner._WORD_TABLES[fmode]
    shots = []
    shoot = planner._shoot
    monkeypatch.setattr(planner, "_shoot", lambda *args: shots.append(args) or shoot(*args))
    pts = sample_vectors(20, 5, 98, f"test-guess-{mode.value}", box=BOX_HALF_WIDTH)
    for start, goal in zip(pts[0::2].tolist(), pts[1::2].tolist()):
        s = _lapack_phase1(word, start, goal)
        points = shoot(word.prefix, [start], s)
        assert len(points) == 5
        shots.clear()
        guess, product, prefix = planner._guess(word, goal, s, points)
        e = math.sqrt(abs(product))
        shot = shoot(word, [start], guess + [e, math.copysign(e, product)])
        assert planner._gap_max(goal, shot[-1]) < 1e-12
        # the points it returns are the family legs' at its s, bit for bit,
        # so the shooter flows the rectangle from them alone
        assert prefix == shot[:5]
        if fmode is not ManeuverMode.LANDING:
            assert guess is s and prefix is points and not shots
            assert product == (goal[2] - points[-1][2]) / word.displacement[2]
        else:
            # the family legs at alpha1 = -1 and 1, then once at the root:
            # 8 + 4 flows
            assert len(shots) == 3 and all(args[0] is word.prefix for args in shots)
            assert sum(5 - len(args[1]) for args in shots) == 12
            r1, r2, low, high, root = planner._bracket(
                planner._landing_sextic(word, goal, s, points))
            assert low > 0.0 > high and r1 < root < r2


def _exact_landing_flow(u, p, t):
    """The landing flow of controls u from p for time t in sympy, exactly:
    (a, b) move linearly, and x, y, z are the integrals of the law along
    them (independent of `kernels.flow`'s Simpson rule)."""
    a, b, tau = sp.symbols("a b tau")
    law = [sp.nsimplify(v, rational=True) for v in kernels.law(ManeuverMode.LANDING, a, b, *u)]
    along = {a: p[3] + law[3] * tau, b: p[4] + law[4] * tau}
    xyz = [p[k] + sp.integrate(sp.expand(law[k].subs(along, simultaneous=True)), (tau, 0, t))
           for k in range(3)]
    return (*[sp.expand(v) for v in xyz], p[3] + law[3] * t, p[4] + law[4] * t)


@pytest.mark.parametrize("start,goal", [
    ([0.25, -0.5, 0.375, 0.125, -0.25], [-0.375, 0.5, -0.125, 0.5, 0.375]),
    ([1.5, 0.75, -1.25, -0.5, 1.0], [-0.5, -1.75, 0.25, 0.75, -1.5]),
    ([-2.0, 1.0, 0.5, 1.75, 0.25], [0.5, -0.25, -1.5, -1.25, 1.25]),
])
def test_landing_sextic_matches_the_exact_elimination(start, goal):
    # the word's family legs flowed exactly by sympy along the free plane of
    # the phase-1 durations (taken as the rationals their floats are), P
    # eliminated by the z row and the gap split by powers of alpha2: the
    # interpolated N and Y0, the closed-form D, Y1 and Y2, and R are the
    # exact ones up to rounding
    word = planner._WORD_TABLES[ManeuverMode.LANDING]
    s = planner._phase1(word, start, goal)
    got = planner._landing_sextic(word, goal, s, planner._shoot(word.prefix, [start], s))
    al1, al2 = sp.symbols("alpha1 alpha2")
    n1, n2 = word.free
    q = [sp.Rational(v) for v in start]
    for (_, *u, slot, sign), v, m1, m2 in zip(word.prefix.legs, s, n1, n2):
        duration = int(sign) * (sp.Rational(v) + int(m1) * al1 + int(m2) * al2)
        q = _exact_landing_flow(u, q, duration)
    t = [sp.Rational(v) for v in goal]
    product = t[2] - q[2]              # d = dz - b dy, b = q_b on the whole plane
    gx = sp.Poly(q[0] - t[0], al2)
    gy = sp.Poly(q[1] - product * q[4] - t[1], al2)
    assert gx.degree() == 1 and gy.degree() == 2 and sp.Poly(q[4], al1, al2).is_ground
    want = [gx.coeff_monomial(al2 ** k) for k in (0, 1)] + \
        [gy.coeff_monomial(al2 ** k) for k in (0, 1, 2)]
    for poly, coefficients in zip(want, got):
        exact = sp.Poly(poly, al1)
        assert exact.degree() <= 2
        exact = [float(exact.coeff_monomial(al1 ** k)) for k in range(3)]
        assert max(abs(g - e) for g, e in zip(coefficients, exact)) <= \
            1e-12 * max(1.0, *map(abs, exact))
    N, D, Y0, Y1, Y2 = want
    R = sp.Poly(sp.expand(Y0 * D ** 2 - Y1 * N * D + Y2 * N ** 2), al1)
    assert R.degree() == 6
    scale = sum(abs(float(c)) for c in R.all_coeffs())
    for x in (-2.0, -0.5, 0.0, 0.75, 2.0):
        assert abs(planner._sextic(got, x) - float(R.eval(sp.Rational(x)))) <= \
            1e-12 * scale * max(1.0, abs(x)) ** 6
    # the closed forms: with sigma the third leg's duration, b the goal's
    # and a where the second leg ends at alpha = 0, D = (2 (1 + b^2) -
    # 6 b sigma - 9 sigma^2) / 2, Y1 = 6 a sigma and Y2 = -3 sigma
    sigma, b = sp.Rational(s[2]) + al1, q[4]
    a = sp.Rational(start[3]) + sp.Rational(s[1])
    assert sp.expand(D - (2 * (1 + b ** 2) - 6 * b * sigma - 9 * sigma ** 2) / 2) == 0
    assert sp.expand(Y1 - 6 * a * sigma) == 0
    assert sp.expand(Y2 + 3 * sigma) == 0


#: The 51 landing pairs (start, goal) of the plan workload's first 20 000
#: items at seeds 1, 2 and 7919 (`perfbench/workloads.py`, `Plan.inputs`)
#: whose word missed tol 1e-3 when a Newton loop solved it, and which were
#: planned at two or four waypoints.
FORMER_MISSES = [
    (0.48719314659947965, 0.22458907620311308, -1.5949372395677908, -1.363551221422858,
     0.7349961763295223, 1.2566292862483088, -1.8918911848928315, -1.0525639568260599,
     0.32864892132895296, -1.1844391195382982),
    (-0.9448892978577337, -1.4032056713744476, 1.7067256287122672, -0.518383320653478,
     0.5711531344533367, 0.23795890929896935, 1.4850134703697617, 1.0724620968028402,
     -0.5718021634771382, -1.1266877248025566),
    (0.6285139348042592, -0.8208290057056349, -0.2025825465417075, -0.15118703552208057,
     1.3084116151181102, -1.2031271922963882, 1.9947968450854554, 0.7522688269221103,
     -0.3673698831644807, 1.5191496361874819),
    (-0.06495305486638303, 0.7435833612043878, 0.42772811526025745, -1.2851923685090458,
     1.3262923709673973, 0.8210815815101769, -1.7485680512682178, 1.1773607499936003,
     0.22092201579561888, -1.2381454906905853),
    (-0.20477684290034692, -0.8621154024197033, -1.5023479547034762, -0.9960904326724371,
     0.8720857144783345, 0.02016161084088619, 1.5641779954744637, -0.46274988179441445,
     0.6075643329069966, 1.5099064443429682),
    (1.9712409358701732, 0.24700532283455612, -1.3274563344871977, -0.022734481008289675,
     -0.14016297144657264, -0.7948112511439229, -1.4178139262253202, 1.2005200852332116,
     -0.6384584532610171, -1.6753063746872607),
    (-0.08033196838334211, 0.5099144499907782, -1.9997644174985103, 1.2052582348885679,
     1.9493564225951632, 0.5961187941951245, -0.020713838760184178, 1.247842844694262,
     0.3256889595825143, 1.6839178020809817),
    (-0.18075069997092097, -1.884031154150378, -0.3253945708159591, 0.11252941631246394,
     -1.445113242962426, -0.8402312117083164, 1.285955230991593, 1.135911021034203,
     -0.3012078282626429, 1.2612313595039728),
    (-0.6274876663043001, -1.4733703044457749, -1.478784776306238, -0.9139865446380215,
     -1.1725569636754964, 1.178337549722455, 1.0424135453270895, -0.6773110728631999,
     -0.3167492097458169, 1.8123403304307004),
    (-0.7838327569291397, 1.9558201804191717, 1.924040866621799, -0.8634046380400422,
     0.6795166550962595, -0.8565954011319363, 0.09919258939033071, -0.43335334633154576,
     0.2734968460237397, 0.543580488205877),
    (-0.29196589804872697, -1.5147763623339494, 1.8527154604648115, 1.8594016434017338,
     0.39191761732710484, -0.3310338818356753, 0.16369663709143456, 0.9089435858018788,
     0.08071300639376933, -0.5263491507342848),
    (1.2976565498478303, -1.8731080485393665, 1.2191315808826526, -0.5052504584585593,
     1.788017727852901, -1.104974655087865, 1.1566313467865164, 0.24697912788959409,
     -1.0976388650330238, -1.3534314164558447),
    (0.6558940158425566, -1.9853292013833843, -1.992542121206987, -0.35580137640705467,
     -0.6343309446516183, 1.5116888437661968, -0.02889253914568668, -0.49572992119400583,
     0.8490859870037699, -0.25657988213391403),
    (1.2134433548113233, 0.7911734484954733, -0.9638913446548236, -1.510039349279006,
     -1.7681621224000152, -0.8013450912675006, -1.6801653821234377, -1.4380456470716818,
     -0.9223836612326168, -1.6166582961584968),
    (-0.365957478232946, 1.1181281354919732, -0.1925461187503883, 0.39998380189059457,
     -1.180735039970827, 0.556950912456792, -1.4040004830581778, 1.6286271512216604,
     0.23543569964518785, -1.9614325485408775),
    (1.620548774122771, -1.8954244975463435, 1.7149029029963732, -1.615772651464109,
     -1.9510751369264983, -1.7087226514170464, 0.6356658905995256, -1.1941936501371244,
     -0.6736391458666826, -1.631786860333046),
    (-0.17941907375416943, 0.9152951718080402, 0.8042522865573565, -1.8005315597690563,
     -1.5959730136874275, 1.1495243923698029, -1.7509358895915295, 1.987520457396224,
     0.6167191270315211, -1.6920928845966428),
    (1.310016875233396, 1.4635227259474908, -1.6270545020456761, -1.3814505770946424,
     -0.5753257084769003, 1.2735358323539456, -1.7189423674110489, 0.685143494394397,
     0.16164373577329938, -1.7656296323308616),
    (-1.987344502349326, -1.4587823925758625, -1.7903103602800845, 1.4433418029892553,
     -1.4130877347638657, -0.9747698228138677, -1.4031715044380344, 1.4463679127558287,
     0.3101049230206794, 1.4539435193095054),
    (-0.38334857219596463, 0.04532118293538279, -1.2979993511118635, 0.797688619322793,
     1.249006535314321, -1.7306291411366548, 0.9467794465346868, 1.0427068664375607,
     -0.7761793855113788, 1.5135527658657493),
    (0.7367748781453418, -1.7801393950433964, 0.31657739393486084, 1.1689146141928206,
     -1.2826728963776528, -0.7745372988737018, 0.027503745116519873, -0.8442112419410381,
     -1.780709598756606, -0.002507987583268978),
    (-1.3706537067135285, 0.6548837059998425, -1.90256689158899, 0.8569790937982011,
     -0.8081617742544447, 0.3385511100124168, -1.8028929926953414, 1.4918273230279144,
     0.2486159608343379, -1.906504638950561),
    (-1.479825234623258, 1.5676755012421806, -1.4437688471232115, 0.8734636926745498,
     1.5129920000429085, -0.11887942132617013, 1.5781680199715433, 1.4124046558587362,
     0.796391842699053, -1.1964562939784424),
    (0.32211424541333145, 1.5022949557978422, 1.8678727934784018, 0.04305159925058355,
     0.023574916864043338, -1.2245909160102078, -0.20370646050446828, -0.6549029137894602,
     -1.8631721178109406, 1.9829541766951038),
    (1.188824760176184, -1.3784072864609391, -0.695839093557437, -0.1618046851162327,
     1.543964098300619, 0.4506574362621105, 0.14166070401911934, 1.4732640348828658,
     0.03561549774608341, 1.7414564635108656),
    (-1.005611674882941, -1.572795923032496, -1.618716426039302, 0.5379041311172919,
     0.00907198628761563, -0.33957637207363445, 1.0309167740358816, -1.5685449998141725,
     1.4998901232754287, -0.6676281783371734),
    (0.02974238853668032, 1.5688141556973187, 1.7210549919241482, 0.13129152057644067,
     0.045271430898140785, 0.3691433162469395, -1.0648299220606936, 0.33214332894671905,
     0.0345804154345859, 0.8979980655363886),
    (1.5853978600190768, -1.9957585499198491, 0.42043773562166065, 1.653335082519869,
     0.7746142610583417, -1.267610913207965, 1.5400814603280994, 0.30220518611948277,
     -0.9583789251066825, 1.3016539627425234),
    (0.8845722321391376, -0.01484388646366841, -1.3438527739349093, 0.21323335244215702,
     0.7003057734303963, -0.29862117304399227, -1.8416619220136528, -0.25587625534386826,
     -0.4721960121244617, -1.4199654801004555),
    (1.7745842094549555, 0.2923077540240815, -1.5395448927609143, -1.371422308253314,
     1.1616450119041937, -0.7326873723477678, 1.1293777727276715, 0.8703895355999234,
     -0.8631181987456373, 1.5780178417950492),
    (-0.6760349560307586, 0.10535708460855053, 0.9666766078791755, 0.5866381850624727,
     -1.0100030533687332, 1.1135900652501833, -1.6861399806958486, 1.5306419563929583,
     1.694051406169832, 0.3483093551030758),
    (-0.8903553564615077, 1.047610886467059, -0.42017727672401173, 0.9656652184500585,
     0.8674822512525249, -1.4188828683888488, -1.8890259022162605, 1.230587285071353,
     0.4120178479365473, -1.7384878912954935),
    (-0.22720522472315957, 0.7388931023156051, 0.7955788981608948, 0.5837445831646948,
     0.43250256280120036, -0.6579180947853962, -0.7260381884617502, 0.1564613093579169,
     -0.4297858833088706, 0.5471453990417201),
    (1.323429856285805, -0.038686810401961313, 1.7935684145949993, -0.32259465314861124,
     1.7076554692395378, 0.31722158935272793, -1.8781539029375882, -1.9358687140543227,
     -0.5032130669858379, 0.15271936485393445),
    (-0.0024240051207318203, 1.863101234615229, 1.1362087776740415, -1.961716654785005,
     -1.7778745974750025, 1.1940323057236513, -0.3241352300818763, 1.9967940226678693,
     0.5577886465013444, -0.044117458754472594),
    (1.928217266533332, -0.006112290573220047, -1.6611385187328953, 1.1262889300391508,
     1.0340426819185393, -1.4578350963680888, -1.833967628319312, -0.5668141036595677,
     -1.2781472512280283, -1.9944264009547767),
    (1.9464795200705685, -1.4218976471230698, 0.005617418574066058, -0.8309759743901899,
     1.0515194849147114, 0.11130783395985988, -0.10755410609550498, 1.8292107772194752,
     -0.6298120405563217, 1.1364071408129144),
    (-1.1949825706690056, -1.1383775950634751, -0.8044758777151086, -1.6420117907553728,
     0.4817748521572165, -0.6681219046909945, 0.4772828701191676, 1.7902830452516252,
     -0.09468534608514467, 1.7762361453525646),
    (-1.071908102327782, -1.94721810176299, 1.2579232657281216, -0.28067432895757194,
     0.8291343562330842, -0.9181935364250955, -0.3545547079620457, 1.4286502840286235,
     -0.07628043157235775, -0.19293463280740886),
    (-0.812309995068226, -0.8871038415308179, -0.36266388870857913, -1.9215752368088415,
     -1.0591225295310123, -0.029682406706559306, 1.285746384560591, -1.6706441774573393,
     0.9198753837175531, -0.6039526751728914),
    (0.6555438729551786, -1.1940930063686772, -1.040383724032663, -1.7379284892815567,
     1.8230636820990438, -1.5825925068488713, 0.9557153050514953, 0.9767569859794363,
     -0.06651216716639508, 1.725168291415256),
    (0.16831233046512883, 1.941105144803406, -1.965382847964992, -0.22549623108232053,
     0.17707218335336572, 0.9382141179973589, 1.4762440825075278, 0.490157446460711,
     0.1670087377540117, -1.6090448696059791),
    (0.3185975703071424, -0.9886453565782685, -1.1930191619716313, -0.35477432915148377,
     -0.813961626267182, 0.40248360151765095, 1.1348861287791903, 0.8700193558253533,
     -0.3816038957335146, 1.7316763051414874),
    (0.7833880312193742, -0.6998960500020783, -1.2305177925137873, 0.41059360703938275,
     0.34966562450874195, -0.34426093862363283, -1.1899000860949167, 1.448956846683414,
     0.06786349223130106, -1.7859510011264637),
    (1.7218408580321976, 0.9640385942815706, 1.450354833119453, -1.6084317097635727,
     -1.9239017637814606, 1.1436077334851054, -0.8250301478115021, -1.3651137002257063,
     -0.3654293448232093, 1.1505491584156546),
    (-0.23453622297532872, 1.2477859810569445, -1.0580624997588401, -0.21041184382974176,
     0.75911726278443, -1.8212740533751555, -1.4269414883556673, 0.9314378005215893,
     -0.3868138391621887, -1.6247826062242274),
    (-0.228356568785971, -1.0983075340825548, 1.4612938628672056, -0.4504922820018842,
     -0.6657280109412111, 1.6379518093568564, -1.9315359243966146, -0.7022443546146806,
     1.2945176221389563, 0.6233138772450895),
    (-0.7572306581064963, -0.8474247008218527, -0.4675312549348605, 0.8224064418591852,
     -1.1053318680498287, 1.1224620585247758, 1.2606831719268676, 1.855682206313881,
     0.37222320615833615, 1.8140675413751577),
    (-0.3201010036815837, -0.08761893703137069, -1.4513407399585123, 0.1516294164464398,
     -0.5619426190766741, -0.21331365581219686, 1.0743423672598187, 1.8954460052506037,
     0.08496029805486005, 1.5142671038171418),
    (0.659985464174909, -0.7422965655439757, 0.016564513754800458, -0.23858912917385294,
     -0.5418866852427712, -0.08143277831947078, 0.7604040442123019, -0.49103421332683345,
     -0.4444247984651174, -0.3470459207824503),
    (1.4207595692997965, -1.9489787002995675, 1.75993589251489, -0.5981329686840029,
     -0.6308283151927931, -1.342059457589292, 1.3614068728683408, 0.5275285299460761,
     -1.4802209647325508, -0.12660486270609583),
]


def test_former_one_word_misses_plan_as_one_word():
    for k, pair in enumerate(FORMER_MISSES):
        plan = planner.plan_path(ManeuverMode.LANDING, pair[:5], pair[5:], tol=1e-3)
        assert (plan.success, plan.pieces, plan.iterations, len(plan.legs)) == \
            (True, 1, 2, 8), k
        assert float(np.max(np.abs(plan.gap))) < 1e-9, k


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
    pairs = [(start, goal, 1e-3) for start, goal in zip(pts[0::2], pts[1::2])]
    for start, goal, tol in pairs + [(*FALLBACK_PAIRS[0], RESTART_TOL)]:
        durations.clear()
        plan = planner.plan_path(mode, start, goal, tol=tol)
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


#: The plan tolerance of the chaining tests: the landing word is solved in
#: closed form and misses no pair of the plan workload's first 20 000 items
#: at seeds 1, 2 and 7919 even at 1e-11, while its rounding still misses a
#: few pairs of [-4, 4]^5 at 1e-12.
RESTART_TOL = 1e-12
# landing pairs 3213, 2112 and 1916 of a seeded uniform search of [-4, 4]^5
# (`np.random.default_rng(13)`, two draws of 5 per pair) whose word misses
# RESTART_TOL by 2.0-3.1 times it. A second word, chained at the goal from
# where the first ended, reaches each.
FALLBACK_PAIRS = [
    ([0.4348220326937531, -1.0573469567092753, -0.911839576804435, -0.33761898994270023,
      2.9575269021585004],
     [2.8150665771221286, -3.9542905479500217, 1.2880823300964197, 0.2010075120223842,
      -3.401718045981765]),
    ([0.10287270627762268, 3.715646683671636, -3.932369334338212, -0.6083821183475502,
      -1.4414562428290925],
     [-2.83806990117722, -3.7167276947794488, -2.2108745205372724, 3.3909349121589285,
      3.1993129324934477]),
    ([-3.205954156865573, 2.0573869580651696, -0.6249873649405142, 2.0102862537408503,
      -2.855238900879182],
     [1.1689588624754386, -3.206783307242108, 3.877197546512331, -3.759301092190438,
      3.6450932789110073]),
]
# landing, pair 1294 of the same search under `np.random.default_rng(55)`:
# the word misses RESTART_TOL by 3.2 times it; evenly spaced waypoints needed
# four words to reach the goal, chained words at the goal need two
FOUR_WORD_PAIR = (
    [3.8716416166687484, 3.0067085391438866, -0.630941266646273, 3.3060800842647513,
     1.9806511484241964],
    [-1.4571486567086822, -1.1884009061156844, 2.2161425783299045, -0.18591919920054245,
     3.6311006809651154])
# landing, pair 1614 of the first search: the guess misses RESTART_TOL, and
# a second word reaches the goal
NEWTON_PAIR = (
    [2.641464017587399, 2.937767252891999, 0.9844993766356387, -3.6634520919537357,
     -1.0686390962101928],
    [-3.3283179462745833, 3.207790094332088, 3.0625549532144802, 0.04826506127324759,
     3.688609613484992])
#: sha256 of (legs, achieved, pieces) of the RESTART_TOL plans of
#: `FALLBACK_PAIRS` and `FOUR_WORD_PAIR`, pinned when missed words came to be
#: chained at the goal.
FALLBACK_PLANS_SHA256 = (
    "3b44d7a696c262d50259e6104538cacbdfb3df57a791501917f32de6e4d52a2b",
    "8f8aed4c6c81cefec3ba89d642ace548dce860665285421c27efc43aa63842be",
    "1f991725abf696692920fcea704945c91b79ef4c01de99e766f7204016876c3f",
)
FOUR_WORD_PLAN_SHA256 = "f64b33512931f7734370cc5ca9a5110107b4f74d3f91ae406df04152fcecebdd"


def _assert_word_progress(plan):
    """Each word of a traced plan adds its legs at its guess and none at its
    check, ends below the gap it started from, and the next word starts
    where it ended."""
    assert len(plan.trace) == plan.iterations == 2 * plan.pieces
    assert sum(added for _, added in plan.trace) == len(plan.legs)
    assert all(added == 0 for _, added in plan.trace[1::2])
    starts, checks = [gap for gap, _ in plan.trace[0::2]], [gap for gap, _ in plan.trace[1::2]]
    assert all(check < start for start, check in zip(starts, checks))
    assert starts[1:] == checks[:-1]


def _assert_chained_plan(start, goal, words, sha256=None):
    """The landing plan at RESTART_TOL chains `words` words of 8 legs at the
    goal, each in a guess and a check iteration, and keeps every word's legs."""
    plan = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL, trace=True)
    assert plan.success and plan.pieces == words and plan.reason is None
    assert len(plan.legs) == 8 * words
    assert [added for _, added in plan.trace[0::2]] == [8] * words
    _assert_word_progress(plan)
    assert plan.trace[0][0] == float(np.max(np.abs(np.subtract(goal, start))))
    assert all(gap >= plan.tol for gap, _ in plan.trace[:-1]) and plan.trace[-1][0] < plan.tol
    # each word is shot at the goal from where the last one ended
    word, log = planner._WORD_TABLES[ManeuverMode.LANDING], planner._Iterations(200)
    legs, p = [], list(start)
    for _ in range(words):
        more, p, _ = planner._solve_word(word, p, goal, RESTART_TOL, log)
        legs += more
    assert plan.legs == tuple(legs) and plan.trace == tuple(log.steps)
    assert plan.achieved.tolist() == list(p)
    if sha256 is not None:
        text = json.dumps([plan.legs, plan.achieved.tolist(), plan.pieces])
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
    traj = planner.replay(plan)
    np.testing.assert_allclose(traj.endpoint, plan.achieved, atol=1e-8)
    assert constraint_residuals(traj).passed()
    return plan


@pytest.mark.parametrize("pair", range(len(FALLBACK_PAIRS)))
def test_a_missed_word_is_chained_at_the_goal(pair):
    start, goal = FALLBACK_PAIRS[pair]
    plan = _assert_chained_plan(start, goal, words=2, sha256=FALLBACK_PLANS_SHA256[pair])
    # the first word misses in its guess and check iterations, the second meets the goal
    assert plan.iterations == 4
    # with the iterations spent by the first word, its miss is the reason
    spent = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                              max_iterations=2)
    assert (spent.success, spent.pieces, spent.iterations) == (False, 1, 2)
    assert spent.reason == spent.to_json_dict()["reason"] == "word missed"
    assert spent.legs == plan.legs[:8]
    # the second word cut off after its guess keeps its legs, which meet the goal
    short = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                              max_iterations=3)
    assert (short.success, short.pieces, short.iterations, short.reason) == (True, 2, 3, None)
    assert short.legs == plan.legs and short.achieved.tolist() == plan.achieved.tolist()
    # four iterations are the whole plan
    four = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                             max_iterations=4)
    assert four.success and four.legs == plan.legs


def test_former_four_waypoint_pair_plans_in_two_chained_words():
    plan = _assert_chained_plan(*FOUR_WORD_PAIR, words=2, sha256=FOUR_WORD_PLAN_SHA256)
    assert plan.iterations == 4


def test_a_missed_word_costs_its_guess_and_its_check():
    start, goal = NEWTON_PAIR
    plan = _assert_chained_plan(start, goal, words=2)
    assert plan.iterations == 4
    # the missed word alone, its legs kept: the plan's first two iterations
    one = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                            max_iterations=2, trace=True)
    assert (one.pieces, one.legs) == (1, plan.legs[:8])
    assert one.trace == plan.trace[:2]


def test_chaining_stops_at_a_word_that_makes_no_progress():
    # the landing word toward a far goal ends farther from it than it began:
    # no second word is shot
    plan = planner.plan_path(ManeuverMode.LANDING, np.zeros(5), [1e150, 0, 0, 0, 0], trace=True)
    assert (plan.success, plan.reason, plan.pieces, plan.iterations) == \
        (False, "word missed", 1, 2)
    assert plan.trace[1][0] > plan.trace[0][0] == 1e150
    assert plan.to_json_dict()["pieces"] == 1
    # the attacking word toward this goal ends exactly as far from it as it began
    plan = planner.plan_path(ManeuverMode.ATTACKING, np.zeros(5), [1e100] * 5, trace=True)
    assert (plan.success, plan.reason, plan.pieces, plan.iterations) == \
        (False, "word missed", 1, 2)
    assert plan.trace[1][0] == plan.trace[0][0] == 1e100


def test_chained_words_close_a_tolerance_below_rounding():
    # each word cuts the gap to about its own rounding, until it is exactly 0;
    # the later words' durations are under 1e-15, so they add no legs
    plan = planner.plan_path(ManeuverMode.LANDING, np.zeros(5), [0.1, 0, 0, 0, 0], tol=1e-300,
                             trace=True)
    assert (plan.success, plan.reason, plan.pieces, plan.iterations) == (True, None, 5, 10)
    assert plan.to_json_dict()["gap_max"] == 0.0
    _assert_word_progress(plan)


#: Landing starts far out in a (scaled by 1e13, 1e15 and 1e20) from the
#: scan of 300 pairs of [-1, 1]^5 under `np.random.default_rng(3)`: one word
#: misses a by the |alpha2| that rounding drops from its long second leg,
#: and the second word, shot from where it ended, meets the goal.
FAR_OUT_PAIRS = [
    ([0.8942813263313545, 0.6842307741978282, 0.48801268722496216, 6263274783891.217,
      0.6402780832539134],
     [-0.49248961047593354, -0.03607390562323487, -0.31456649868296993, -0.4765334127426917,
      0.1431031662452611]),
    ([-0.8287016657127513, -0.5263789868078006, 0.6025489304127938, 164324072128735.56,
      -0.8117427155192016],
     [-0.1337461195270524, -0.04189740371833195, -0.6805221707258429, 0.46915430281842907,
      -0.7726559601571932]),
    ([-0.21754361900867591, 0.03348036524272735, -0.1387439591716444, 1.7359714287628147e+19,
      0.4756755745843204],
     [0.9125345096721971, -0.4315976725024171, 0.2970944141596501, 0.39243199334031087,
      -0.41455850197502575]),
]


@pytest.mark.parametrize("pair", range(len(FAR_OUT_PAIRS)))
def test_far_out_landing_start_plans_in_chained_words(pair):
    start, goal = FAR_OUT_PAIRS[pair]
    plan = planner.plan_path(ManeuverMode.LANDING, start, goal, trace=True)
    assert plan.success and plan.pieces <= 3
    _assert_word_progress(plan)
    traj = planner.replay(plan)
    residuals = constraint_residuals(traj)
    assert planner.replay_passed(residuals, float(np.max(np.abs(traj.endpoint - plan.achieved))))


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_chained_words_plan_across_a_wide_box(mode):
    # pairs of [-256, 256]^5 at 1e-9: landing's word misses each by rounding,
    # and every word chained on ends below the gap it started from
    pts = sample_vectors(16, 5, 98, f"test-chain-{mode.value}", box=256.0)
    for start, goal in zip(pts[0::2], pts[1::2]):
        plan = planner.plan_path(mode, start, goal, tol=1e-9, trace=True)
        assert plan.success, (mode, start, goal)
        assert plan.pieces == (2 if mode is ManeuverMode.LANDING else 1)
        _assert_word_progress(plan)


def test_plan_reports_why_it_failed():
    start, goal = NEWTON_PAIR
    done = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL, trace=True)
    payload = done.to_json_dict()
    assert done.success and payload["pieces"] == 2 and "reason" not in payload
    assert all(set(step) == {"gap_max", "legs_added"} for step in payload["trace"])
    short = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                              max_iterations=1)
    assert (short.success, short.reason) == (False, "max_iterations spent")
    missed = planner.plan_path(ManeuverMode.LANDING, start, goal, tol=RESTART_TOL,
                               max_iterations=2)
    assert (missed.success, missed.reason) == (False, "word missed")
    overflow = planner.plan_path(ManeuverMode.ATTACKING, np.zeros(5), [1e308] * 5)
    assert (overflow.success, overflow.reason) == (False, "gap not finite")


@pytest.mark.parametrize("v", [[math.nan, 1.0, -2.0], [1.0, math.nan, -2.0],
                               [1.0, -2.0, math.nan], [math.inf, -math.inf], [-0.0, 0.0],
                               [0.5, -3.0, 2.0]])
def test_sup_and_gap_max_propagate_nan_as_np_max_does(v):
    want = float(np.max(np.abs(v)))
    zeros = [0.0] * len(v)
    for got in (planner._sup(v), planner._gap_max(v, zeros), planner._gap_max(zeros, v)):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want and math.copysign(1.0, got) == 1.0


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
        # a plan of two words, both shot at the goal
        plans.append(planner.plan_path(mode, *FALLBACK_PAIRS[0], tol=RESTART_TOL))
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


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_replay_fails_a_plan_whose_leg_was_stretched(mode):
    # the replay re-chains every leg start from plan.start and plan.legs, so
    # one leg's duration scaled by 1 + 1e-6 moves its endpoint off the
    # recorded `achieved` and the replay fails; a replay that took its leg
    # starts from the shooter's points, unchecked, would pass such a plan
    plan = planner.plan_path(mode, np.zeros(5), [0.4, -0.3, 0.2, 0.3, -0.2])
    assert plan.success
    long_legs = [j for j, (_, s) in enumerate(plan.legs) if abs(s) >= 0.1]
    assert long_legs
    for j in [None] + long_legs:
        legs = list(plan.legs)
        if j is not None:
            legs[j] = (legs[j][0], legs[j][1] * (1.0 + 1e-6))
        stretched = dataclasses.replace(plan, legs=tuple(legs))
        traj = planner.replay(stretched)
        error = float(np.max(np.abs(traj.endpoint - stretched.achieved)))
        assert planner.replay_passed(constraint_residuals(traj), error) is (j is None), j


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
    assert constraint_residuals(dataclasses.replace(traj, mode=ManeuverMode.G2_STRICT)).passed()


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
    # does with b = 0, in one word
    for mode in (ManeuverMode.ATTACKING, ManeuverMode.G2_STRICT):
        assert planner.plan_path(mode, start, [0.1] * 5).reason != "phase-1 singular"
    plan = planner.plan_path(ManeuverMode.LANDING, [0, 0, 0, 1e150, 0], [0.1] * 5)
    assert plan.success and plan.pieces == 1


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
    # plan` computes, over full-box pairs and the planner suite's pairs at a
    # few seeds (landing's bracket check and chained plans included), with
    # every np.linalg function and np.roots patched to raise
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg or np.roots called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "roots", refuse)
    pts = sample_vectors(20, 5, 99, f"test-no-lapack-{mode.value}", box=BOX_HALF_WIDTH)
    pairs = list(zip(pts[0::2], pts[1::2]))
    for seed in (1, 2, 5, 7919):
        suite = sample_vectors(6, 5, seed, f"planner.plan.{planner._family_mode(mode).value}",
                               box=0.8)
        pairs += list(zip(suite[0::2], suite[1::2]))
    cases = [(start, goal, 1e-3, 1) for start, goal in pairs]
    if mode is ManeuverMode.LANDING:
        cases += [(start, goal, RESTART_TOL, 2) for start, goal in FALLBACK_PAIRS]
        cases.append((*FAR_OUT_PAIRS[0], 1e-3, 2))
    for start, goal, tol, words in cases:
        plan = planner.plan_path(mode, start, goal, tol=tol)
        assert plan.success and plan.pieces == words
        assert constraint_residuals(planner.replay(plan)).passed()
    if mode is ManeuverMode.LANDING:
        for seed in (1, 2, 5, 7919):
            assert dict(suites._planner_checks(seed))["landing-word-bracket"]().passed
    for fn in (np.roots, np.linalg.solve, np.linalg.eigvals, np.linalg.qr):
        with pytest.raises(AssertionError, match="np.linalg or np.roots called"):
            fn(np.eye(2))


@pytest.mark.parametrize("mode", list(ManeuverMode))
def test_a_plan_keeps_the_nan_legs_its_endpoint_was_flowed_by(mode):
    # every phase-1 duration toward [1e308] * 5 is nan: the legs the plan
    # reports are the ones its achieved point comes from, so its replay ends
    # where the plan does, not at the start
    plan = planner.plan_path(mode, np.zeros(5), [1e308] * 5)
    assert [k for k, _ in plan.legs] == [0, 1, 2, 3]
    assert all(math.isnan(s) for _, s in plan.legs)
    with np.errstate(all="ignore"):
        traj = planner.replay(plan)
    assert _finite_pattern(traj.endpoint) == _finite_pattern(plan.achieved) == "nnnnn"


def test_a_plan_keeps_its_shortest_legs_so_its_replay_ends_at_achieved():
    # at tol 1e-300 the later words chain legs of about 1e-17 to 1e-33, which
    # the shooter flowed; only legs of duration exactly 0 are left out
    plan = planner.plan_path(ManeuverMode.LANDING, np.zeros(5), [0.1, 0, 0, 0, 0],
                             tol=1e-300)
    assert plan.success
    durations = [abs(s) for _, s in plan.legs]
    assert min(durations) < 1e-30 and 0.0 not in durations
    np.testing.assert_array_equal(planner.replay(plan).endpoint, plan.achieved)


def test_plan_stops_when_the_gap_itself_overflows():
    plan = planner.plan_path(ManeuverMode.ATTACKING, [-1e308, 0, 0, 0, 0],
                             [1e308, 0, 0, 0, 0])
    assert not plan.success
    assert plan.iterations == 1 and plan.legs == ()
    assert plan.reason == "gap not finite" and np.all(np.isfinite(plan.achieved))


INF = math.inf
NAN_LEGS = tuple((k, math.nan) for k in range(4))
#: Per mode and goal of `test_plan_stops_at_the_first_state_that_overflows`,
#: planned from the origin: the default plan's reason, its legs, and which
#: coordinates of its endpoint are finite (f), infinite (i) or nan (n). The
#: rectangle is never flowed at these goals, so the endpoint is where the
#: phase-1 legs end; flowing four legs of zero duration on from it turned
#: no inf into nan. A plan stopped after its guess has the same legs and
#: endpoint. At [1e308] * 5 the phase-1 solve's integer-weighted numerators
#: overflow, every duration is nan, and the plan keeps the four legs of nan
#: duration that its endpoint was flowed by; the legs and endpoints at the
#: other two goals are the phase-1 solve's rounding, pinned from these
#: `plan_path` calls. Legs compare by repr, so nan equals nan.
OVERFLOW_PLANS = {
    (ManeuverMode.ATTACKING, 0): (None, ((0, -3.3333333333333335e+299),
                                         (2, 3.3333333333333335e+299)), "fffff"),
    (ManeuverMode.LANDING, 0): ("gap not finite", ((1, -1e+300), (3, 1e+300)), "fnnff"),
    (ManeuverMode.G2_SIMPLE, 0): (None, ((0, 1e+300),), "fffff"),
    (ManeuverMode.G2_STRICT, 0): (None, ((0, 1e+300),), "fffff"),
    (ManeuverMode.ATTACKING, 1): ("gap not finite", NAN_LEGS, "nnnnn"),
    (ManeuverMode.LANDING, 1): ("gap not finite", NAN_LEGS, "nnnnn"),
    (ManeuverMode.G2_SIMPLE, 1): ("gap not finite", NAN_LEGS, "nnnnn"),
    (ManeuverMode.G2_STRICT, 1): ("gap not finite", NAN_LEGS, "nnnnn"),
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
    assert (plan.reason, plan.iterations, repr(plan.legs)) == (reason, 2, repr(legs))
    assert _finite_pattern(plan.achieved) == pattern
    short = planner.plan_path(mode, np.zeros(5), goal, max_iterations=1)
    assert (short.reason, short.iterations, repr(short.legs)) == \
        (reason and "max_iterations spent", 1, repr(legs))
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
#: solve's rounding; they were re-pinned when it stopped calling LAPACK,
#: and the landing digest again when the landing word came to be solved in
#: closed form.
LAW_OUTPUTS_SHA256 = {
    "attacking": "1aafc933a981e76ae852c9117a13b9e48694f92b9d5abd1d957dff168f06e861",
    "landing": "d553722d2533665e293c1ce5439b88118f64c312faf9a7e9a514b993eaf6ed24",
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

"""Reachability planning through bracket-generating admissible flows.

Each maneuver mode carries a four-member family of admissible vector fields,
every member an instance of the mode's control law with frozen controls. The
four fields span the contact distribution, and their pairwise brackets
restore the missing fifth direction, so piecewise flows reach any nearby
target: phase 1 matches (x, y, a, b) by a linear solve in the flow
durations, phase 2 closes the z gap with commutator rectangles.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Sequence

import numpy as np
import sympy as sp

from . import kernels
from .chart import DIM
from .forms import VectorField, bracket, constant_field
from .maneuvers import ManeuverMode, Trajectory

#: Chart slots matched directly by phase 1.
IDX4 = (0, 1, 3, 4)

LEG_DT = 1e-2
LEG_MIN_STEPS = 20
MAX_RECTANGLE_EPS = 0.5

#: Frozen (u1, u2, u3) triples whose control-law velocities form the family.
FAMILY_CONTROLS: dict[ManeuverMode, tuple[tuple[float, float, float], ...]] = {
    ManeuverMode.ATTACKING: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                             (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),
    ManeuverMode.LANDING: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                           (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),
    ManeuverMode.G2_STRICT: ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                             (1.0, -1.0, 0.0), (1.0, 2.0, 0.0)),
}

#: Commutator rectangle (field pair, z gain of the bracket) per mode. The
#: landing gain 1 + b^2 depends on the point; `plan_path` reads it from
#: `landing_depth2_contact_values`.
_RECTANGLE = {
    ManeuverMode.ATTACKING: ((1, 2), 3.0),
    ManeuverMode.LANDING: ((1, 3), None),
    ManeuverMode.G2_STRICT: ((1, 0), 1.0),
}


def _family_mode(mode: ManeuverMode) -> ManeuverMode:
    """The simple G2 mode plans with the strict family (a subcone of it)."""
    return ManeuverMode.G2_STRICT if mode == ManeuverMode.G2_SIMPLE else mode


def family_field(mode: ManeuverMode, k: int) -> VectorField:
    """Member k of the mode's admissible family, with exact Jacobian."""
    fmode = _family_mode(mode)
    u1, u2, u3 = FAMILY_CONTROLS[fmode][k]
    kid = fmode.kernel_id

    def value(p: np.ndarray) -> np.ndarray:
        return kernels.velocity(kid, p, u1, u2, u3)

    def jacobian(p: np.ndarray) -> np.ndarray:
        a, b = float(p[3]), float(p[4])
        c1, c2, _, _ = kernels.zcoeffs(kid, a, b, u1, u2, u3)
        dca, dcb = kernels.zcoeff_grads(kid, a, b, u1, u2, u3)
        J = np.zeros((DIM, DIM))
        J[0, 3], J[0, 4] = dca[0], dcb[0]
        J[1, 3], J[1, 4] = dca[1], dcb[1]
        J[2, 3] = dca[0] * a + c1 + dca[1] * b
        J[2, 4] = dcb[0] * a + c2 + dcb[1] * b
        return J

    return VectorField(f"{fmode.value}-Y{k + 1}", DIM, value, jacobian)


def bracket_family(mode: ManeuverMode) -> tuple[VectorField, ...]:
    return tuple(family_field(mode, k) for k in range(4))


def bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] as a field; its own Jacobian falls back to finite differences."""
    return VectorField(f"[{X.id},{Y.id}]", X.dim,
                       lambda p: bracket(X, Y, p))


@dataclasses.dataclass(frozen=True)
class GeneratingReport:
    min_rank: int              # over the sample points
    worst_fifth_singular: float  # smallest 5th singular value, scaled

    def passed(self) -> bool:
        return self.min_rank >= DIM


def bracket_generating_report(mode: ManeuverMode,
                              points: np.ndarray) -> GeneratingReport:
    """Rank of the family plus all pairwise brackets at each point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fields = list(bracket_family(mode))
    fields += [bracket_field(fields[i], fields[j])
               for i, j in itertools.combinations(range(4), 2)]
    min_rank = DIM
    worst = math.inf
    for p in pts:
        A = np.stack([X.value(p) for X in fields], axis=1)
        sv = np.linalg.svd(A, compute_uv=False)
        scaled = float(sv[DIM - 1] / sv[0])
        worst = min(worst, scaled)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        min_rank = min(min_rank, rank)
    return GeneratingReport(min_rank, worst)


@dataclasses.dataclass(frozen=True)
class DistinguishedBracket:
    label: str
    field: VectorField          # the bracket expression
    expected: VectorField       # the stated constant value


def distinguished_bracket(mode: ManeuverMode) -> DistinguishedBracket:
    """The bracket identity that certifies the missing contact direction.

    Attacking: [Y2, Y3] = 3 dz. G2: [Y2, Y1] = dz. Landing: the stated
    depth-3 identity [Y1, [Y2, [Y2, Y3]]] = 9 dz; the depth-3 expression
    actually vanishes identically (see landing_nested_bracket_norm), so its
    verification fails, while depth-2 brackets do leave the distribution.
    """
    Y = bracket_family(mode)
    ez = np.zeros(DIM)
    ez[2] = 1.0
    fmode = _family_mode(mode)
    if fmode == ManeuverMode.ATTACKING:
        return DistinguishedBracket("[Y2,Y3] = 3 dz", bracket_field(Y[1], Y[2]),
                                    constant_field("3dz", 3.0 * ez))
    if fmode == ManeuverMode.G2_STRICT:
        return DistinguishedBracket("[Y2,Y1] = dz", bracket_field(Y[1], Y[0]),
                                    constant_field("dz", ez))
    nested = bracket_field(Y[0], bracket_field(Y[1], bracket_field(Y[1], Y[2])))
    return DistinguishedBracket("[Y1,[Y2,[Y2,Y3]]] = 9 dz", nested,
                                constant_field("9dz", 9.0 * ez))


def distinguished_bracket_residual(mode: ManeuverMode, points: np.ndarray) -> float:
    db = distinguished_bracket(mode)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return max(float(np.max(np.abs(db.field.value(p) - db.expected.value(p))))
               for p in pts)


@functools.lru_cache(maxsize=1)
def _landing_nested_symbolic():
    """Exact depth-3 landing bracket, plus the symbolic family for probing."""
    coords = sp.symbols("x y z a b")
    a, b = coords[3], coords[4]

    def law(*u):
        c1, c2, c3, c4 = kernels.zcoeffs(kernels.LANDING, a, b, *map(sp.Rational, u))
        return sp.Matrix([c1, c2, c1 * a + c2 * b, c4, -3 * c3])

    family = [law(*u) for u in FAMILY_CONTROLS[ManeuverMode.LANDING]]

    def br(X, Y):
        return sp.expand(Y.jacobian(coords) * X - X.jacobian(coords) * Y)

    nested = br(family[0], br(family[1], br(family[1], family[2])))
    nested_fn = sp.lambdify(coords, list(nested), "numpy")
    family_fns = [sp.lambdify(coords, list(F), "numpy") for F in family]
    return nested_fn, family_fns


def landing_nested_bracket_norm(points: np.ndarray) -> float:
    """Sup norm of the landing depth-3 expression; it vanishes identically.

    Evaluated through an exact symbolic bracket (nested finite differencing
    amplifies roundoff past 1e-6); the symbolic family is probed against the
    kernel fields at the first point so the two routes cannot drift apart.
    """
    nested_fn, family_fns = _landing_nested_symbolic()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Y = bracket_family(ManeuverMode.LANDING)
    probe = pts[0]
    for fn, field in zip(family_fns, Y):
        drift = np.max(np.abs(np.array(fn(*probe), dtype=float) - field.value(probe)))
        if drift > 1e-12:
            raise AssertionError(f"symbolic family drifted from kernels: {drift:g}")
    return max(float(np.max(np.abs(np.array(nested_fn(*p), dtype=float))))
               for p in pts)


def landing_depth2_contact_values(p: np.ndarray) -> tuple[float, float]:
    """Contact values of the depth-2 landing brackets [Y2, Y4] and [Y1, Y3].

    Both are bounded away from zero (1 + b^2 and 9(1 + a^2)), which is what
    actually generates the missing direction for the landing family.
    """
    Y = bracket_family(ManeuverMode.LANDING)
    p = np.asarray(p, dtype=float)
    a, b = p[3], p[4]
    w = np.array([-a, -b, 1.0, 0.0, 0.0])
    v24 = bracket(Y[1], Y[3], p)
    v13 = bracket(Y[0], Y[2], p)
    return float(w @ v24), float(w @ v13)


# -- flows and plans -----------------------------------------------------------

def _leg_steps(duration: float) -> int:
    """Samples per leg in `replay`; flows themselves need only one step."""
    return max(LEG_MIN_STEPS, int(math.ceil(abs(duration) / LEG_DT)))


def flow(mode: ManeuverMode, k: int, p: np.ndarray, duration: float) -> np.ndarray:
    """Endpoint of the time-`duration` flow of family member k from p.

    The constant-control flow is exact in one step, so this is the last row
    of any `rk4_constant` sampling of the leg, bit for bit.
    """
    fmode = _family_mode(mode)
    u1, u2, u3 = FAMILY_CONTROLS[fmode][k]
    return kernels.rk4_constant(fmode.kernel_id, p, u1, u2, u3, duration, 1)[-1]


def _phase1_matrix(mode: ManeuverMode, p: np.ndarray) -> np.ndarray:
    """Columns: (x, y, a, b) components of the family fields at p."""
    M = np.empty((4, 4))
    for k in range(4):
        v = family_field(mode, k).value(p)
        M[:, k] = v[list(IDX4)]
    return M


@dataclasses.dataclass(frozen=True)
class Plan:
    mode: ManeuverMode
    start: np.ndarray
    goal: np.ndarray
    legs: tuple[tuple[int, float], ...]   # (family index, signed duration)
    achieved: np.ndarray
    gap: np.ndarray
    iterations: int
    tol: float
    success: bool

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "start": [float(v) for v in self.start],
            "goal": [float(v) for v in self.goal],
            "legs": [{"field": int(k), "duration": float(s)} for k, s in self.legs],
            "achieved": [float(v) for v in self.achieved],
            "gap_max": float(np.max(np.abs(self.gap))),
            "iterations": self.iterations,
            "tolerance": self.tol,
            "success": self.success,
        }


def _append_leg(legs: list, k: int, s: float) -> None:
    if abs(s) > 1e-15:
        legs.append((k, float(s)))


def plan_path(mode: ManeuverMode, start: Sequence[float], goal: Sequence[float],
              tol: float = 1e-3, max_iterations: int = 200) -> Plan:
    """Plan admissible legs from start to goal within sup-norm tol.

    Phase 1: durations along the family from a linear solve on the
    (x, y, a, b) block, damped for the landing family whose matrix is
    state-dependent. Phase 2: one commutator rectangle per iteration to move
    z by eps^2 times the bracket's z gain (for landing, the contact value
    1 + b^2 of [Y2, Y4] at the current point); negative z gaps swap the legs.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if start.shape != (DIM,) or goal.shape != (DIM,):
        raise ValueError(f"start and goal must have shape ({DIM},)")
    fmode = _family_mode(mode)
    p = start.copy()
    legs: list[tuple[int, float]] = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gap = goal - p
        if float(np.max(np.abs(gap))) < tol:
            break
        # phase 1: the 4 matched coordinates
        gap4 = gap[list(IDX4)]
        if float(np.max(np.abs(gap4))) > 1e-15:
            if fmode == ManeuverMode.LANDING:
                for _ in range(40):
                    gap4 = (goal - p)[list(IDX4)]
                    if float(np.max(np.abs(gap4))) < 0.1 * tol:
                        break
                    s = np.linalg.solve(_phase1_matrix(fmode, p), gap4)
                    before = float(np.linalg.norm(gap4))
                    for damping in (1.0, 0.5, 0.25):
                        q = p
                        trial: list[tuple[int, float]] = []
                        for k in range(4):
                            _append_leg(trial, k, damping * s[k])
                            q = flow(fmode, k, q, damping * s[k])
                        after = float(np.linalg.norm((goal - q)[list(IDX4)]))
                        if after < before or damping == 0.25:
                            p = q
                            legs.extend(trial)
                            break
            else:
                s = np.linalg.solve(_phase1_matrix(fmode, p), gap4)
                for k in range(4):
                    _append_leg(legs, k, s[k])
                    p = flow(fmode, k, p, s[k])
        # phase 2: commutator rectangle for the z gap
        dz = goal[2] - p[2]
        if abs(dz) >= 0.1 * tol:
            (i, j), coeff = _RECTANGLE[fmode]
            if coeff is None:
                coeff = landing_depth2_contact_values(p)[0]
            if dz < 0.0:
                i, j = j, i
            eps = min(MAX_RECTANGLE_EPS, math.sqrt(abs(dz) / coeff))
            for k, s in ((i, eps), (j, eps), (i, -eps), (j, -eps)):
                _append_leg(legs, k, s)
                p = flow(fmode, k, p, s)
    gap = goal - p
    success = float(np.max(np.abs(gap))) < tol
    return Plan(mode, start, goal, tuple(legs), p, gap, iterations, tol, success)


def _negated_controls(kid: int, u: tuple[float, float, float]) -> tuple[float, float, float]:
    """Controls of the reversed field; reversal stays inside the control law."""
    u1, u2, u3 = u
    if kid in (kernels.ATTACKING, kernels.LANDING):
        return (-u1, -u2, u3)
    return (-u1, u2, u3)


def replay(plan: Plan) -> Trajectory:
    """Integrate the plan's legs into one admissible trajectory.

    Backward legs are replayed as forward legs of the reversed control law,
    so time increases monotonically and every sample satisfies the mode's
    constraints; endpoint agreement with the plan certifies the replay.
    """
    fmode = _family_mode(plan.mode)
    kid = fmode.kernel_id
    if not plan.legs:
        return Trajectory(plan.mode, np.zeros(1), plan.start[None, :].copy(),
                          np.zeros((1, DIM)))
    times = [np.zeros(1)]
    states = [plan.start[None, :]]
    controls, counts = [], []
    t0 = 0.0
    p = plan.start
    for k, s in plan.legs:
        u = FAMILY_CONTROLS[fmode][k]
        if s < 0.0:
            u = _negated_controls(kid, u)
        dur = abs(s)
        n = _leg_steps(dur)
        seg = kernels.rk4_constant(kid, p, u[0], u[1], u[2], dur, n)
        times.append(t0 + np.linspace(0.0, dur, n + 1)[1:])
        states.append(seg[1:])
        controls.append(u)
        counts.append(n)
        p = seg[-1]
        t0 += dur
    # each sample, joints included, moves with the leg that leaves it; the
    # final sample keeps the last leg's controls
    counts[-1] += 1
    states = np.vstack(states)
    vels = kernels.velocity(kid, states, *np.repeat(controls, counts, axis=0).T)
    return Trajectory(plan.mode, np.concatenate(times), states, vels)

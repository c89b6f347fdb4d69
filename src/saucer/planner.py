"""Reachability planning through bracket-generating admissible flows.

Each maneuver mode carries a four-member family of admissible vector fields,
every member an instance of the mode's control law with frozen controls. The
four fields span the contact distribution, and their pairwise brackets
restore the missing fifth direction, so piecewise flows reach any nearby
target. The planner shoots one fixed word of 8 legs, the four family flows
and one commutator rectangle, and solves for its six durations by
Gauss-Newton with the exact Jacobian of the word's endpoint. The rectangle
moves its start by exactly e1 e2 times a known displacement (`_RECTANGLE`),
so the guess solves for the four family durations and e1 e2 together on the
family legs alone (`_guess`). A goal the word misses is reached by chaining
words through evenly spaced waypoints.

The word is written once, in `_WORDS` over `FAMILY_CONTROLS`; at import it
becomes one leg table per family mode (`_WORD_TABLES`), from which the
shooter calls `kernels.flow` on Python floats leg by leg and the Jacobian
reads its controls. `replay` expands a plan's legs to its samples with one
stacked repeat of a per-leg table.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .chart import DIM, DIST_SLOTS, contact_covector
from .forms import FieldStack
from .maneuvers import ManeuverMode, ResidualReport, Trajectory

LEG_DT = 1e-2
LEG_MIN_STEPS = 20
#: `replay` thins its legs evenly when they would take more samples than this.
MAX_REPLAY_SAMPLES = 200_000
#: A replay certifies its plan when its endpoint is strictly within this of the
#: plan's achieved point (`replay_passed`).
REPLAY_TOL = 1e-8

#: Frozen (u1, u2, u3) triples whose control-law velocities form the family.
FAMILY_CONTROLS: dict[ManeuverMode, tuple[tuple[float, float, float], ...]] = {
    ManeuverMode.ATTACKING: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                             (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),
    ManeuverMode.LANDING: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                           (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),
    ManeuverMode.G2_STRICT: ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                             (1.0, -1.0, 0.0), (1.0, 2.0, 0.0)),
}

#: Commutator rectangle per mode: its field pair (i, j) and its displacement
#: per unit e1 e2 at its start point p, as a constant vector plus a vector per
#: unit b of p. The rectangle (i, e1) (j, e2) (i, -e1) (j, -e2) moves p by
#: exactly e1 e2 times it, at any durations: attacking 3 dz ([Y2, Y3] = 3 dz),
#: G2 dz ([Y2, Y1] = dz), landing dz - b dy, whose contact value is the
#: 1 + b^2 of [Y2, Y4] (`landing_depth2_contact_values`).
_RECTANGLE = {
    ManeuverMode.ATTACKING: ((1, 2), (0.0, 0.0, 3.0, 0.0, 0.0), (0.0,) * DIM),
    ManeuverMode.LANDING: ((1, 3), (0.0, 0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0, 0.0)),
    ManeuverMode.G2_STRICT: ((1, 0), (0.0, 0.0, 1.0, 0.0, 0.0), (0.0,) * DIM),
}


def _family_mode(mode: ManeuverMode) -> ManeuverMode:
    """The simple G2 mode plans with the strict family (a subcone of it)."""
    return ManeuverMode.G2_STRICT if mode == ManeuverMode.G2_SIMPLE else mode


def family(mode: ManeuverMode) -> FieldStack:
    """The mode's four admissible fields Y1..Y4 as one stack: the control law
    at each frozen control triple, at one point (5,) or a stack (m, 5)."""
    fmode = _family_mode(mode)
    controls = FAMILY_CONTROLS[fmode]
    return FieldStack(tuple(f"{fmode.value}-Y{k + 1}" for k in range(4)),
                      lambda p: np.stack([kernels.velocity(fmode, p, *u) for u in controls],
                                         axis=-2))


@dataclasses.dataclass(frozen=True)
class GeneratingReport:
    min_rank: int              # over the sample points
    worst_fifth_singular: float  # smallest 5th singular value, scaled
    worst_point: tuple[float, ...]  # sample where that value is taken

    def passed(self) -> bool:
        return self.min_rank >= DIM


def bracket_generating_report(mode: ManeuverMode,
                              points: np.ndarray) -> GeneratingReport:
    """Rank of the family plus all pairwise brackets at each point.

    The family and its brackets come over the whole stack at once, and one
    stacked SVD gives the singular values at all points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    V, B = family(mode).brackets(pts)
    upper, lower = np.triu_indices(4, 1)
    A = np.swapaxes(np.concatenate([V, B[:, upper, lower]], axis=1), -1, -2)
    sv = np.linalg.svd(A, compute_uv=False)
    scaled = sv[:, DIM - 1] / sv[:, 0]
    ranks = np.sum(sv > 1e-10 * sv[:, :1], axis=1)
    worst = int(np.argmin(scaled))
    return GeneratingReport(int(np.min(ranks)), float(scaled[worst]),
                            tuple(float(v) for v in pts[worst]))


def distinguished_bracket_residual(mode: ManeuverMode, points: np.ndarray) -> float:
    """Sup norm of the two sides of the bracket identity that certifies the
    missing contact direction, over one point or a stack at once.

    Attacking: [Y2, Y3] = 3 dz. G2: [Y2, Y1] = dz. These are the brackets
    and gains of the modes' commutator rectangles. Landing: the stated
    depth-3 identity [Y1, [Y2, [Y2, Y3]]] = 9 dz, whose left side is the
    exact constant `_landing_nested`; it vanishes identically, so its
    verification fails, while depth-2 brackets do leave the distribution.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fmode = _family_mode(mode)
    if fmode == ManeuverMode.LANDING:
        lhs, gain = np.tile(_landing_nested(), (len(pts), 1)), 9.0
    else:
        (i, j), displacement, _ = _RECTANGLE[fmode]
        lhs, gain = family(fmode).brackets(pts)[1][:, i, j], displacement[2]
    lhs[:, 2] -= gain
    return float(np.max(np.abs(lhs)))


@functools.lru_cache(maxsize=1)
def _landing_nested() -> np.ndarray:
    """[Y1, [Y2, [Y2, Y3]]] of the landing family, exactly: one constant (5,).

    Each member's (a, b) components are its constant controls (u2, -3 u1),
    and x, y, z never enter the law, so every bracket is D_X Y - D_Y X along
    those constant steps and the nested bracket is D_1 D_2 (D_2 Y3 - D_3 Y2).
    The components have degree at most 3 in (a, b), so that is a constant,
    and the same third difference at the origin equals it exactly: the steps
    and the law's coefficients are integers, so every value is an exact
    integer float.
    """
    Y = [lambda a, b, u=u: np.array(kernels.law(ManeuverMode.LANDING, a, b, *u))
         for u in FAMILY_CONTROLS[ManeuverMode.LANDING]]
    steps = [y(0.0, 0.0)[3:] for y in Y]

    def diff(f, k):
        """The difference of f along member Y[k]'s (a, b) step."""
        da, db = steps[k]
        return lambda a, b: f(a + da, b + db) - f(a, b)

    def bracket23(a, b):  # [Y2, Y3] = D_2 Y3 - D_3 Y2
        return diff(Y[2], 1)(a, b) - diff(Y[1], 2)(a, b)

    return diff(diff(bracket23, 1), 0)(0.0, 0.0)


def landing_nested_bracket_norm(points: np.ndarray) -> float:
    """Sup norm of the landing depth-3 expression over the points; it
    vanishes identically, being the constant `_landing_nested`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return float(np.max(np.abs(np.broadcast_to(_landing_nested(), pts.shape))))


def landing_depth2_contact_values(p: np.ndarray) -> tuple:
    """Contact values of the depth-2 landing brackets [Y2, Y4] and [Y1, Y3].

    Both are bounded away from zero (1 + b^2 and 9(1 + a^2)), which is what
    actually generates the missing direction for the landing family. At one
    point (5,) they are floats; over a stack (m, 5), arrays.
    """
    p = np.asarray(p, dtype=float)
    B = family(ManeuverMode.LANDING).brackets(p)[1]
    w = contact_covector(p)[..., None, :]
    v24 = (w @ B[..., 1, 3, :, None])[..., 0, 0]
    v13 = (w @ B[..., 0, 2, :, None])[..., 0, 0]
    return (float(v24), float(v13)) if p.ndim == 1 else (v24, v13)


# -- flows and plans -----------------------------------------------------------

def _leg_steps(duration: float) -> int:
    """Samples per leg in `replay`, at most MAX_REPLAY_SAMPLES; flows need one step."""
    steps = abs(duration) / LEG_DT
    if not steps < MAX_REPLAY_SAMPLES:   # also an infinite or nan duration
        return MAX_REPLAY_SAMPLES
    return max(LEG_MIN_STEPS, int(math.ceil(steps)))


def flow(mode: ManeuverMode, k: int, p: Sequence[float], duration: float) -> tuple:
    """Endpoint of the time-`duration` flow of family member k from p.

    `kernels.flow` on Python floats, returned as five floats: the last row
    of any `rk4_constant` sampling of the leg, bit for bit. The shooter
    flows the same legs from its word table without this lookup (`_shoot`).
    """
    fmode = _family_mode(mode)
    u1, u2, u3 = FAMILY_CONTROLS[fmode][k]
    return kernels.flow(fmode, [float(v) for v in p], u1, u2, u3,
                        float(duration))


def _phase1_matrix(word: _Word, p: Sequence[float]) -> np.ndarray:
    """Columns: (x, y, a, b) components of the family fields at p."""
    a, b = float(p[3]), float(p[4])
    return np.array([kernels.law(word.mode, a, b, *u) for u in word.controls]).T[DIST_SLOTS]


def _sup(v: Sequence[float]) -> float:
    """max |v_i| over a few floats; nan when any v_i is nan, as np.max gives."""
    worst = max(map(abs, v))
    return math.nan if any(x != x for x in v) else worst


def _gap_max(target: Sequence[float], p: Sequence[float]) -> float:
    """max |target - p| by `_sup`."""
    return _sup([g - q for g, q in zip(target, p)])


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
    #: Per iteration: max |gap| to the waypoint it aims at when it began and
    #: the legs it added to the plan; only recorded when `plan_path` is asked
    #: to trace.
    trace: tuple[tuple[float, int], ...] | None = None
    #: Waypoints of the attempt that made the plan: one word is shot at each.
    pieces: int = 1
    #: Why the plan failed; None on success.
    reason: str | None = None
    #: Per iteration, recorded with `trace`: (|gap|, |step|) in the 2-norm
    #: for a Newton iteration, the step 0.0 when it took none (it met tol or
    #: its attempt ended); None for the guess of each word.
    newton_trace: tuple[tuple[float, float] | None, ...] | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "mode": self.mode.value,
            "start": [float(v) for v in self.start],
            "goal": [float(v) for v in self.goal],
            "legs": [{"field": int(k), "duration": float(s)} for k, s in self.legs],
            "achieved": [float(v) for v in self.achieved],
            "gap_max": float(np.max(np.abs(self.gap))),
            "iterations": self.iterations,
            "tolerance": self.tol,
            "success": self.success,
            "pieces": self.pieces,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.trace is not None:
            payload["trace"] = [{"gap_max": gap, "legs_added": added}
                                for gap, added in self.trace]
            for step, newton in zip(payload["trace"], self.newton_trace or ()):
                if newton is not None:
                    step["residual"], step["step"] = newton
        return payload


class _Iterations:
    """The iteration record of one `plan_path` call, against its budget."""

    def __init__(self, budget: int):
        self.left = budget
        self.steps: list[tuple[float, int]] = []
        self.newton: list[tuple[float, float] | None] = []

    def record(self, gap_max: float, added: int,
               newton: tuple[float, float] | None = None) -> None:
        self.left -= 1
        self.steps.append((gap_max, added))
        self.newton.append(newton)

    def drop_legs(self) -> None:
        """The legs recorded so far leave the plan: no iteration kept any."""
        self.steps = [(gap_max, 0) for gap_max, _ in self.steps]


#: The word `plan_path` shoots on, per family mode: the four family flows,
#: then the commutator rectangle of the mode's pair (i, j). Each leg is
#: (family index, slot of theta = (s1, s2, s3, s4, e1, e2), sign).
_WORDS = {
    fmode: ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
            (i, 4, 1.0), (j, 5, 1.0), (i, 4, -1.0), (j, 5, -1.0))
    for fmode, ((i, j), _, _) in _RECTANGLE.items()
}


class _Word(NamedTuple):
    """A family mode's word as one table, so shooting it looks nothing up by mode."""
    mode: ManeuverMode
    controls: tuple[tuple[float, float, float], ...]   # FAMILY_CONTROLS of the mode
    #: The rectangle's displacement per unit e1 e2 at its start p is
    #: displacement + p[4] * per_b (`_RECTANGLE`).
    displacement: tuple[float, ...]
    per_b: tuple[float, ...]
    #: Per leg: (family index, u1, u2, u3, slot of theta, sign).
    legs: tuple[tuple[int, float, float, float, int, float], ...]

    @property
    def prefix(self) -> "_Word":
        """The word's four family legs alone, which move its start by durations s1..s4."""
        return self._replace(legs=self.legs[:4])


#: `_WORDS` with each leg's controls filled in from `FAMILY_CONTROLS`.
_WORD_TABLES = {
    fmode: _Word(fmode, FAMILY_CONTROLS[fmode], *_RECTANGLE[fmode][1:],
                 tuple((k, *FAMILY_CONTROLS[fmode][k], slot, sign) for k, slot, sign in word))
    for fmode, word in _WORDS.items()
}
#: Signs of (e1, e2) in the order they are tried, for e1 e2 >= 0 and for
#: e1 e2 < 0. The third pattern is no mirror of the second: some plans that
#: miss in the first two land in it.
_SIGN_PATTERNS = {True: ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)),
                  False: ((1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))}
#: Halvings of a Newton step before it counts as giving no descent.
MAX_HALVINGS = 10
#: Newton steps of the guess on the word's four family legs (`_guess`).
MAX_GUESS_STEPS = 32
#: The guess is done once its residual is below this fraction of tol.
GUESS_TOL_FRACTION = 1e-2


def _shoot(word: _Word, points: Sequence, theta: Sequence[float]) -> list:
    """Start and the endpoint of every leg of the word at durations theta.

    `points` holds the start and the endpoints of the word's first legs,
    already flowed at theta's durations (just [start] to shoot the whole
    word); only the legs after them are flowed. Each is one `kernels.flow`
    on Python floats, its controls, theta slot and sign read from the word's
    table: the same arithmetic as a chain of `flow` calls, bit for bit.
    """
    mode = word.mode
    points = list(points)
    p = points[-1]
    for _, u1, u2, u3, slot, sign in word.legs[len(points) - 1:]:
        p = kernels.flow(mode, p, u1, u2, u3, sign * theta[slot])
        points.append(p)
    return points


def _word_legs(word: _Word, theta: Sequence[float]) -> list:
    """The word's legs at durations theta, legs of zero duration left out."""
    return [(k, float(sign * theta[slot])) for k, _, _, _, slot, sign in word.legs
            if abs(theta[slot]) > 1e-15]


def _word_jacobian(word: _Word, points: Sequence, theta: Sequence[float]) -> list:
    """d(endpoint)/d(theta) of the word: six columns of five floats.

    Every flow moves (a, b) by a translation and adds to (x, y, z) a function
    of (a0, b0), so a leg's derivative is [[I3, M], [0, I2]] with M =
    d(x, y, z)/d(a0, b0), and the derivative of all later legs is [[I3, A],
    [0, I2]] with A the sum of their M. Leg l therefore adds sign times
    V(p_l) + A V_ab(p_l) to the column of its slot, V its field and p_l its
    endpoint. Walking the legs backwards accumulates A. Under the attacking
    and G2 laws vx, vy do not depend on (a, b), so M is zero but for
    dz/d(a0, b0) = t (vx, vy); under the landing law M integrates
    `kernels.law_gradient` over the leg, a polynomial of degree 2 in time,
    so Simpson's rule is exact.
    """
    mode = word.mode
    landing = mode is ManeuverMode.LANDING
    columns = [[0.0] * DIM for _ in theta]
    xa = xb = ya = yb = za = zb = 0.0   # A
    for l in range(len(points) - 1, 0, -1):
        _, u1, u2, u3, slot, sign = word.legs[l - 1]
        a, b = points[l][3], points[l][4]
        vx, vy, vz, va, vb = kernels.law(mode, a, b, u1, u2, u3)
        column = columns[slot]
        column[0] += sign * (vx + xa * va + xb * vb)
        column[1] += sign * (vy + ya * va + yb * vb)
        column[2] += sign * (vz + za * va + zb * vb)
        column[3] += sign * va
        column[4] += sign * vb
        t = sign * theta[slot]
        if not landing:
            za += t * vx
            zb += t * vy
            continue
        a0, b0 = points[l - 1][3], points[l - 1][4]
        g0, g1, g2 = (kernels.law_gradient(mode, a, b, u1, u2, u3)
                      for a, b in ((a0, b0), (0.5 * (a0 + a), 0.5 * (b0 + b)), (a, b)))
        t /= 6.0
        xa, xb, ya, yb, za, zb = [s + t * (d0 + 4.0 * d1 + d2) for s, d0, d1, d2
                                  in zip((xa, xb, ya, yb, za, zb), g0, g1, g2)]
    return columns


def _guess(word: _Word, target: list, s: list, points: list,
           tol: float) -> tuple[list, float, list]:
    """The guess's family durations s, rectangle product P = e1 e2, and the
    start and endpoints of the four family legs at those s.

    The word's endpoint is exactly q + P d(q), q the endpoint of its four
    family legs and d the rectangle's displacement per unit e1 e2 at q
    (`_RECTANGLE`): five equations q + P d(q) = target in (s, P). From the
    phase-1 durations s, whose legs pass through `points`, and the P that
    meets z there, Newton steps on them until their residual is below
    GUESS_TOL_FRACTION of tol, at most MAX_GUESS_STEPS of them, each shooting
    the four legs alone. The columns of s are `_word_jacobian` over those
    legs plus P d'(q) dq_b/ds, and the column of P is d(q). A singular or
    not finite solve falls back to the phase-1 s, P and points. The
    attacking and G2 legs move (x, y, a, b) linearly and their d is
    constant, so the phase-1 s and P meet the equations at once, and the
    points returned are the ones passed in.
    """
    prefix = word.prefix
    q = points[-1]
    product = (target[2] - q[2]) / word.displacement[2]
    phase1 = s, product, points
    for step in range(MAX_GUESS_STEPS + 1):
        d = [c + q[4] * c_b for c, c_b in zip(word.displacement, word.per_b)]
        r = [g - x - product * v for g, x, v in zip(target, q, d)]
        gap_max = _sup(r)
        if not gap_max < math.inf:
            return phase1
        if gap_max < GUESS_TOL_FRACTION * tol or step == MAX_GUESS_STEPS:
            return s, product, points
        columns = _word_jacobian(prefix, points, s)
        jt = [[v + product * c_b * column[4] for v, c_b in zip(column, word.per_b)]
              for column in columns] + [d]
        try:
            delta = np.linalg.solve(np.array(jt).T, r).tolist()
        except np.linalg.LinAlgError:
            return phase1
        if not all(map(math.isfinite, delta)):
            return phase1
        s = [v + dv for v, dv in zip(s, delta)]
        product += delta[4]
        points = _shoot(prefix, points[:1], s)
        q = points[-1]


def _newton_step(word: _Word, start: list, theta: list, points: list,
                 r: list, norm: float):
    """One damped Gauss-Newton step: (theta, points, step norm), or a reason.

    The step is the minimum-norm solution of J delta = r; it is halved until
    |r| falls, at most MAX_HALVINGS times.
    """
    jt = np.array(_word_jacobian(word, points, theta))
    try:
        delta = (jt @ np.linalg.solve(jt.T @ jt, r)).tolist()
    except np.linalg.LinAlgError:
        return None, "singular Jacobian"
    if not all(map(math.isfinite, delta)):
        return None, "singular Jacobian"
    target = [q + g for q, g in zip(points[-1], r)]
    scale = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = [s + scale * d for s, d in zip(theta, delta)]
        shot = _shoot(word, [start], trial)
        if math.hypot(*[g - q for g, q in zip(target, shot[-1])]) < norm:
            return (trial, shot, scale * math.hypot(*delta)), None
        scale *= 0.5
    return None, "no descent"


def _newton(word: _Word, start: list, target: list, tol: float,
            log: _Iterations) -> tuple[list, list, str | None]:
    """Shoot the word at target: (legs, endpoint, reason), reason None on success.

    Iteration 1 builds the guess: one phase-1 solve for s1..s4, whose four
    family legs alone are shot, then `_guess` solves the four legs and the
    rectangle's exact displacement together for s1..s4 and P = e1 e2, and
    |e1| = |e2| = sqrt(|P|) in the first sign pattern whose e1 e2 has the
    sign of P. The rectangle is left out, and never flowed, when the
    phase-1 legs meet tol or end where the gap is not finite. Every later
    iteration takes one Newton step on the whole word; an attempt that ends
    on a singular Jacobian or no descent moves on to the next sign pattern.
    Each sign pattern's word flows only its four rectangle legs, from the
    family legs' points that `_guess` returned; only a Newton step shoots
    the whole word.
    """
    gap_max = _gap_max(target, start)
    if not tol <= gap_max < math.inf:
        log.record(gap_max, 0)
        return [], start, None if gap_max < tol else "gap not finite"
    s = np.linalg.solve(_phase1_matrix(word, start),
                        [target[i] - start[i] for i in DIST_SLOTS]).tolist()
    theta = s + [0.0, 0.0]
    points = prefix = _shoot(word.prefix, [start], s)
    patterns: list = []
    if tol <= _gap_max(target, prefix[-1]) < math.inf:
        s, product, prefix = _guess(word, target, s, prefix, tol)
        e = math.sqrt(abs(product))
        patterns = [[e * s1, e * s2] for s1, s2 in _SIGN_PATTERNS[product >= 0.0]]
        theta = s + patterns.pop(0)
        points = _shoot(word, prefix, theta)
    legs = _word_legs(word, theta)
    log.record(gap_max, len(legs))
    while log.left > 0:
        r = [g - q for g, q in zip(target, points[-1])]
        gap_max, norm = _sup(r), math.hypot(*r)
        if not tol <= gap_max < math.inf:
            log.record(gap_max, 0, (norm, 0.0))
            return legs, points[-1], None if gap_max < tol else "gap not finite"
        step, reason = _newton_step(word, start, theta, points, r, norm)
        if step is None and not patterns:
            log.record(gap_max, 0, (norm, 0.0))
            return legs, points[-1], reason
        if step is None:
            theta, length = s + patterns.pop(0), 0.0
            points = _shoot(word, prefix, theta)
        else:
            theta, points, length = step
        n_before = len(legs)
        legs = _word_legs(word, theta)
        log.record(gap_max, len(legs) - n_before, (norm, length))
    met = _gap_max(target, points[-1]) < tol
    return legs, points[-1], None if met else "max_iterations spent"


def _check_plan_inputs(start: np.ndarray, goal: np.ndarray, tol: float,
                       max_iterations: int) -> None:
    if start.shape != (DIM,) or goal.shape != (DIM,):
        raise ValueError(f"start and goal must have shape ({DIM},)")
    if not all(map(math.isfinite, start.tolist() + goal.tolist())):
        raise ValueError("start and goal must be finite")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations!r}")


#: Newton misses after which `plan_path` restarts with twice the waypoints.
_MISSES = ("singular Jacobian", "no descent")


def _waypoints(fmode: ManeuverMode, start: list, target: list, pieces: int,
               tol: float, log: _Iterations) -> tuple[list, list, str | None]:
    """Shoot the word at waypoint k of `pieces`, start + k/pieces (target - start).

    Each word starts where the last one ended, and the last waypoint is the
    target itself. Returns the legs, the endpoint and the reason as `_newton`
    does; a waypoint met with no iterations left ends the attempt.
    """
    word = _WORD_TABLES[fmode]
    legs: list[tuple[int, float]] = []
    p = start
    for k in range(1, pieces + 1):
        if log.left <= 0:
            return legs, p, "max_iterations spent"
        waypoint = target if k == pieces else [
            s + (g - s) * k / pieces for s, g in zip(start, target)]
        more, p, reason = _newton(word, p, waypoint, tol, log)
        legs += more
        if reason is not None:
            return legs, p, reason
    return legs, p, None


@np.errstate(over="ignore", invalid="ignore")
def plan_path(mode: ManeuverMode, start: Sequence[float], goal: Sequence[float],
              tol: float = 1e-3, max_iterations: int = 200,
              trace: bool = False) -> Plan:
    """Plan admissible legs from start to goal within sup-norm tol.

    The plan is one word of 8 legs, Y1 Y2 Y3 Y4 (i, e1) (j, e2) (i, -e1)
    (j, -e2), with (i, j) the mode's commutator pair: its six durations are
    solved for by Gauss-Newton shooting from a phase-1 guess (`_newton`),
    with the exact Jacobian of the word's endpoint. The state is carried as
    Python floats, moved leg by leg by `kernels.flow` from the word's table
    (`_shoot`). When every sign pattern of (e1, e2) ends on a singular
    Jacobian or no descent, the attempt's legs leave the plan and planning
    restarts from the start with twice the `pieces`: one word is shot at
    each of that many evenly spaced waypoints (`_waypoints`).
    Every iteration, whether it builds a guess or takes a Newton step,
    counts against `max_iterations`. With `trace`, the plan records, per
    iteration, max |gap| to the waypoint it aims at, the legs it added, and
    the Newton residual and step.

    A failed plan carries a `reason`: a singular Jacobian or no descent (no
    iterations were left to restart), "max_iterations spent", or "gap not
    finite": planning stops at the first gap that is not finite, where the
    state overflowed (flows far from the origin do) or the gap itself did.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    _check_plan_inputs(start, goal, tol, max_iterations)
    fmode = _family_mode(mode)
    target = goal.tolist()
    log = _Iterations(max_iterations)
    pieces = 1
    while True:
        legs, p, reason = _waypoints(fmode, start.tolist(), target, pieces, tol, log)
        if reason not in _MISSES or log.left <= 0:
            break
        log.drop_legs()
        pieces *= 2
    achieved = np.array(p)
    gap = goal - achieved
    success = float(np.max(np.abs(gap))) < tol
    return Plan(mode, start, goal, tuple(legs), achieved, gap, len(log.steps), tol,
                success, tuple(log.steps) if trace else None, pieces,
                None if success else reason,
                tuple(log.newton) if trace else None)


def _negated_controls(mode: ManeuverMode,
                      u: tuple[float, float, float]) -> tuple[float, float, float]:
    """Controls of the reversed field; reversal stays inside the control law."""
    u1, u2, u3 = u
    if mode in (ManeuverMode.ATTACKING, ManeuverMode.LANDING):
        return (-u1, -u2, u3)
    return (-u1, u2, u3)


def _replay_counts(durations: Sequence[float]) -> list[int]:
    """Samples per leg: `_leg_steps` each, scaled down to fit MAX_REPLAY_SAMPLES.

    Flows are exact at any density, so the cap only thins far-flung plans;
    every leg keeps at least one sample.
    """
    counts = [_leg_steps(d) for d in durations]
    total = sum(counts)
    if total > MAX_REPLAY_SAMPLES:
        counts = [max(1, n * MAX_REPLAY_SAMPLES // total) for n in counts]
    return counts


def replay(plan: Plan) -> Trajectory:
    """Evaluate the plan's legs as one admissible trajectory.

    Backward legs are replayed as forward legs of the reversed control law,
    so time increases monotonically and every sample satisfies the mode's
    constraints; endpoint agreement within `REPLAY_TOL` certifies the replay.
    The leg start points are chained on Python floats. One table then holds
    per leg its start, its controls, the row of its first sample, its sample
    spacing and its start time; one `np.repeat` expands it to a column per
    sample, and every sample of every leg, its state and its velocity, comes
    from one stacked `kernels.flow` call: the flow evaluates the law at each
    sample's state, and writes that value out as the sample's velocity. Each
    sample, joints included, moves with the leg that leaves it, and the
    final sample keeps the last leg's controls.
    """
    word = _WORD_TABLES[_family_mode(plan.mode)]
    mode = word.mode
    if not plan.legs:
        return Trajectory(plan.mode, np.zeros(1), plan.start[None, :].copy(),
                          np.zeros((1, DIM)))
    legs = []   # (start, controls, duration, start time)
    p, t0 = [float(v) for v in plan.start], 0.0
    for k, s in plan.legs:
        u = word.controls[k]
        if s < 0.0:
            u = _negated_controls(mode, u)
        dur = abs(s)
        legs.append((p, u, dur, t0))
        p = kernels.flow(mode, p, *u, dur)
        t0 += dur
    # sample i of leg j sits at local time i * (dur_j / n_j), as np.linspace
    # spaces it; the last leg also holds the final sample, at its full duration
    durations = [dur for _, _, dur, _ in legs]
    steps = _replay_counts(durations)
    counts = steps[:-1] + [steps[-1] + 1]
    table, first = [], 0
    for (p, u, dur, t0), n, count in zip(legs, steps, counts):
        table.append((*p, *u, first, dur / n, t0))
        first += count
    # one column per sample, from its leg: rows 0-4 the start (then the
    # state), 5-7 the controls, 8 the index of the first sample (then the
    # local time, then the time), 9 the sample spacing, 10 the start time
    rows = np.repeat(np.array(table).T, counts, axis=1)
    local = rows[8]
    np.subtract(np.arange(first, dtype=float), local, out=local)
    local *= rows[9]
    local[-1] = durations[-1]
    # the velocities in column storage, like the states
    velocities = np.empty((DIM, first))
    for row, value in zip(rows, kernels.flow(mode, rows[:5], *rows[5:8], local,
                                             out=velocities.T)):
        row[:] = value
    local += rows[10]
    return Trajectory(plan.mode, local, rows[:5].T, velocities.T)


def replay_passed(residuals: ResidualReport, endpoint_error: float) -> bool:
    """The replay verdict: its residuals pass and its endpoint is within `REPLAY_TOL`."""
    return residuals.passed() and endpoint_error < REPLAY_TOL

"""Reachability planning through bracket-generating admissible flows.

Each maneuver mode carries a four-member family of admissible vector fields,
every member an instance of the mode's control law with frozen controls. The
four fields span the contact distribution, and their pairwise brackets
restore the missing fifth direction, so piecewise flows reach any nearby
target. The planner shoots one fixed word of 8 legs, the four family flows
and one commutator rectangle. The rectangle moves its start by exactly
e1 e2 times a known displacement (`_RECTANGLE`), so a solve on the family
legs alone finds the four family durations and e1 e2 together
(`_guess`). The family legs move (a, b) linearly, so the phase-1 durations
meet (a, b) already, and e1 e2 then meets z. Attacking and G2 legs move
(x, y) linearly too, so that is their word. Landing's is solved in closed
form on the plane of durations that keeps (a, b) (`_free_directions`): its
(x, y) gap there is a sextic in one unknown with a root between the two
roots of a known quadratic (`_landing_sextic`, `_bracket`). Phase 1 itself
is exact integer arithmetic on the (a, b) rows and one 2x2 Cramer step
along those directions (`_phase1`), so planning makes no LAPACK call. A goal
the word misses is reached by chaining words at the goal, each from where the
last one ended.

The word is written once, in `_WORDS` over `FAMILY_CONTROLS`; at import it
becomes one leg table per family mode (`_WORD_TABLES`), from which the
shooter calls `kernels.flow` leg by leg on Python floats. `replay` expands
a plan's legs to its samples with one stacked repeat of a per-leg table.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .chart import DIM, contact_covector
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


def _phase1(word: _Word, p: Sequence[float], target: Sequence[float]) -> list | None:
    """The phase-1 durations s1..s4: the family fields at p, times s, meet the
    (x, y, a, b) gap to target. None when that system is singular.

    No LAPACK call. The (a, b) rows hold the members' constant small-integer
    (va, vb): Cramer's rule solves them on the word's pivot columns (i, j)
    for s_p, each numerator divided by the pivot's determinant last. The
    word's `free` directions n1, n2 keep those rows, and s = s_p + alpha1 n1
    + alpha2 n2 takes (alpha1, alpha2) from one 2x2 Cramer solve of the
    (x, y) rows. That determinant is 3 (attacking), -6 (G2) or
    3 (1 + a^2 + b^2) (landing), so the system is singular only where it
    overflows: None when it is zero or not finite, as it is whenever a law
    value is, which the landing fields make it far out in (a, b).
    """
    a, b = p[3], p[4]
    vx, vy, _, va, vb = zip(*[kernels.law(word.mode, a, b, *u) for u in word.controls])
    (x1, y1), (x2, y2) = [(n0 * vx[0] + n1 * vx[1] + n2 * vx[2] + n3 * vx[3],
                           n0 * vy[0] + n1 * vy[1] + n2 * vy[2] + n3 * vy[3])
                          for n0, n1, n2, n3 in word.free]
    det = x1 * y2 - x2 * y1
    if not (det != 0.0 and math.isfinite(det)):
        return None
    i, j = word.pivot
    ga, gb = target[3] - p[3], target[4] - p[4]
    pivot = va[i] * vb[j] - va[j] * vb[i]
    s = [0.0] * 4
    s[i] = si = (ga * vb[j] - va[j] * gb) / pivot
    s[j] = sj = (va[i] * gb - ga * vb[i]) / pivot
    rx = target[0] - p[0] - vx[i] * si - vx[j] * sj
    ry = target[1] - p[1] - vy[i] * si - vy[j] * sj
    alpha1 = (rx * y2 - x2 * ry) / det
    alpha2 = (x1 * ry - rx * y1) / det
    return [v + alpha1 * n1 + alpha2 * n2 for v, n1, n2 in zip(s, *word.free)]


def _sup(v: Sequence[float]) -> float:
    """max |v_i| over a few floats; nan when any v_i is nan, as np.max gives
    (the |v_i| are non-negative, so their sum is nan exactly when one is)."""
    return math.nan if math.isnan(sum(map(abs, v))) else max(map(abs, v))


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
    #: Per iteration: max |gap| to the goal when it began and the legs it
    #: added to the plan; only recorded when `plan_path` is asked to trace.
    trace: tuple[tuple[float, int], ...] | None = None
    #: Words the plan chains at the goal, each from where the last one ended.
    pieces: int = 1
    #: Why the plan failed; None on success.
    reason: str | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "mode": self.mode.value,
            "start": [float(v) for v in self.start],
            "goal": [float(v) for v in self.goal],
            "legs": [{"field": int(k), "duration": float(s)} for k, s in self.legs],
            "achieved": [float(v) for v in self.achieved],
            "gap_max": _gap_max(self.goal.tolist(), self.achieved.tolist()),
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
        return payload


class _Iterations:
    """The iteration record of one `plan_path` call, against its budget."""

    def __init__(self, budget: int):
        self.left = budget
        self.steps: list[tuple[float, int]] = []

    def record(self, gap_max: float, added: int) -> None:
        self.left -= 1
        self.steps.append((gap_max, added))


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
    #: The family members (i, j) whose constant (va, vb) make the first
    #: nonzero 2x2 determinant, on which `_phase1` solves the (a, b) rows,
    #: and two directions n1, n2 of the family durations s1..s4 that leave
    #: the family legs' (a, b) endpoint where it is (`_free_directions`).
    pivot: tuple[int, int]
    free: tuple[tuple[float, ...], ...]
    #: The word's four family legs alone, which move its start by durations s1..s4.
    prefix: "_Word | None" = None


def _free_directions(mode: ManeuverMode,
                     controls: Sequence[tuple[float, float, float]]) -> tuple:
    """The pivot (i, j) and two directions n of the four family durations
    with sum_k n_k (va_k, vb_k) = 0, the members' constant (va, vb) read from
    `kernels.law` at a = b = 0.

    Each family leg moves (a, b) by its duration times (va, vb), so a step
    along n leaves the legs' (a, b) endpoint where it is. Columns (i, j) of
    the first nonzero 2x2 pivot are solved by Cramer's rule for each free
    column f, with n_f = 1 and the other free entry 0: the family's (va, vb)
    are small integers, so every product and quotient here is exact, and no
    LAPACK call runs at import.
    """
    ab = [kernels.law(mode, 0.0, 0.0, *u)[3:] for u in controls]

    def det(k, l):
        """The 2x2 determinant of columns ab[k] and ab[l]."""
        return ab[k][0] * ab[l][1] - ab[l][0] * ab[k][1]

    i, j = next((i, j) for i in range(4) for j in range(i + 1, 4) if det(i, j) != 0.0)
    free = []
    for f in sorted({0, 1, 2, 3} - {i, j}):
        n = [0.0] * 4
        n[f], n[i], n[j] = 1.0, det(j, f) / det(i, j), det(f, i) / det(i, j)
        free.append(tuple(n))
    return (i, j), tuple(free)


def _word_table(fmode: ManeuverMode, word: tuple) -> _Word:
    """`_WORDS[fmode]` with each leg's controls filled in from `FAMILY_CONTROLS`."""
    controls = FAMILY_CONTROLS[fmode]
    table = _Word(fmode, controls, *_RECTANGLE[fmode][1:],
                  tuple((k, *controls[k], slot, sign) for k, slot, sign in word),
                  *_free_directions(fmode, controls))
    return table._replace(prefix=table._replace(legs=table.legs[:4]))


_WORD_TABLES = {fmode: _word_table(fmode, word) for fmode, word in _WORDS.items()}


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
    """The word's legs at durations theta, legs of duration exactly 0 left
    out (their flow is the identity); every other leg stays, however short
    or nan, as `_shoot` flowed it."""
    return [(k, float(sign * theta[slot])) for k, _, _, _, slot, sign in word.legs
            if theta[slot] != 0.0]


def _quadratic(fm: float, f0: float, fp: float) -> tuple:
    """(c0, c1, c2) of c0 + c1 t + c2 t^2 through (-1, fm), (0, f0), (1, fp)."""
    return f0, 0.5 * (fp - fm), 0.5 * (fp + fm) - f0


def _landing_sextic(word: _Word, target: list, s: list, points: list) -> tuple:
    """The landing word's (x, y) gap on the free plane of the phase-1
    durations s, as quadratics (c0, c1, c2) in alpha1: (N, D, Y0, Y1, Y2).

    At s + alpha1 n1 + alpha2 n2 (the `free` directions, which keep (a, b)
    and so d) the family legs end at q, and the P that meets z leaves the
    gap q + P d(q) - target at G_x = N + alpha2 D, G_y = Y0 + alpha2 Y1 +
    alpha2^2 Y2. n1 moves the third leg's duration to sigma = s3 + alpha1,
    and the landing law gives, exactly, D = 1 + b^2 - 3 b sigma - 9/2 sigma^2,
    Y1 = 6 a sigma and Y2 = -3 sigma, with b where the legs end and a where
    the second one ends, both at alpha = 0. N and Y0 are quadratics in
    alpha1 (the law is quadratic in (a, b), which move linearly): the legs
    shot at alpha1 = -1 and 1, alpha2 = 0, give them by the three-point
    Lagrange rule, with `points`, the phase-1 shoot, at alpha1 = 0. No
    step along n2 is shot, so none is lost to rounding where the second and
    fourth legs' durations differ by many orders of magnitude.
    """
    (dx, dy, dz, _, _), (bx, by, _, _, _) = word.displacement, word.per_b
    gx, gy = [], []
    for a1 in (-1.0, 0.0, 1.0):
        q = points[-1] if a1 == 0.0 else _shoot(
            word.prefix, points[:1], [v + a1 * m for v, m in zip(s, word.free[0])])[-1]
        product = (target[2] - q[2]) / dz
        gx.append(q[0] + product * (dx + q[4] * bx) - target[0])
        gy.append(q[1] + product * (dy + q[4] * by) - target[1])
    a, b, sigma = points[2][3], points[-1][4], s[2]
    return (_quadratic(*gx),
            (1.0 + b * b - 3.0 * b * sigma - 4.5 * sigma * sigma, -3.0 * b - 9.0 * sigma, -4.5),
            _quadratic(*gy), (6.0 * a * sigma, 6.0 * a, 0.0), (-3.0 * sigma, -3.0, 0.0))


def _sextic(coefficients: tuple, t: float) -> float:
    """R(t) = Y0 D^2 - Y1 N D + Y2 N^2: G_y at alpha2 = -N/D, times D^2, each of
    N, D, Y0, Y1, Y2 (n, d, p, q, r) evaluated as c0 + t (c1 + t c2)."""
    (n0, n1, n2), (d0, d1, d2), (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = coefficients
    n, d = n0 + t * (n1 + t * n2), d0 + t * (d1 + t * d2)
    return ((p0 + t * (p1 + t * p2)) * d - (q0 + t * (q1 + t * q2)) * n) * d \
        + (r0 + t * (r1 + t * r2)) * n * n


def _bracket(coefficients: tuple) -> tuple | None:
    """(r1, r2, R(r1), R(r2), root): r1 < r2 the roots of D and a root of R
    strictly between, None unless R(r1) > 0 > R(r2); None unless D opens
    downward with two real roots, as it does wherever it is finite.

    D's roots are sigma = (-3 b -+ sqrt(27 b^2 + 18)) / 9, one negative and
    one positive, and Y2 = -3 sigma, so R = Y2 N^2 at the roots of D gives
    R(r1) >= 0 >= R(r2), and a root where alpha2 = -N/D is finite. R(rk) = 0
    only where N vanishes there too, and the root may sit on alpha2's pole:
    that word is left to the next chained word. The Illinois rule finds the root: the
    secant of the ends, its value at an end kept twice in a row halved, or
    a bisection where the secant leaves the bracket, until R is 0 or no
    float lies between the ends.
    """
    d0, d1, d2 = coefficients[1]
    disc = d1 * d1 - 4.0 * d0 * d2
    if not d2 < 0.0 < disc < math.inf:
        return None
    h = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
    lo, hi = sorted((h / d2, d0 / h))
    f_lo, f_hi = _sextic(coefficients, lo), _sextic(coefficients, hi)
    bracket, kept = (lo, hi, f_lo, f_hi), 0
    if not f_lo > 0.0 > f_hi:
        return bracket + (None,)
    while True:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                return bracket + (lo,)
        f = _sextic(coefficients, t)
        if f > 0.0:
            f_hi *= 0.5 if kept > 0 else 1.0
            lo, f_lo, kept = t, f, 1
        elif f < 0.0:
            f_lo *= 0.5 if kept < 0 else 1.0
            hi, f_hi, kept = t, f, -1
        else:
            return bracket + (t,)


def _guess(word: _Word, target: list, s: list, points: list) -> tuple[list, float, list]:
    """The guess's family durations s, rectangle product P = e1 e2, and the
    start and endpoints of the four family legs at those s.

    The word's endpoint is exactly q + P d(q), q the endpoint of its four
    family legs and d the rectangle's displacement per unit e1 e2 at q
    (`_RECTANGLE`): five equations q + P d(q) = target in (s, P). The
    phase-1 durations s, whose legs pass through `points`, meet the (a, b)
    rows already, since (a, b) moves linearly in s and d has no (a, b)
    part, and P then meets z. The attacking and G2 legs move (x, y) linearly
    and their d is constant, so that is their word, and the points returned
    are the ones passed in. Landing's moves s along the `free` directions to
    alpha1 the root of R in `_bracket` and alpha2 = -N/D, and shoots its legs
    once more; with no root, or where those legs overflow, the phase-1 word
    stands, and its check misses it; the next word starts where it ends.
    """
    product = (target[2] - points[-1][2]) / word.displacement[2]
    if word.mode is not ManeuverMode.LANDING:
        return s, product, points
    coefficients = _landing_sextic(word, target, s, points)
    alpha1 = (_bracket(coefficients) or (None,) * 5)[4]
    if alpha1 is not None:
        (n0, n1, n2), (d0, d1, d2) = coefficients[:2]
        d = d0 + alpha1 * (d1 + alpha1 * d2)
        alpha2 = -(n0 + alpha1 * (n1 + alpha1 * n2)) / d if d != 0.0 else math.inf
        moved = [v + alpha1 * m1 + alpha2 * m2 for v, m1, m2 in zip(s, *word.free)]
        shot = _shoot(word.prefix, points[:1], moved)
        if _sup(shot[-1]) < math.inf:
            return moved, (target[2] - shot[-1][2]) / word.displacement[2], shot
    return s, product, points


def _solve_word(word: _Word, start: list, target: list, tol: float,
                log: _Iterations) -> tuple[list, list, str | None]:
    """Shoot the word at target: (legs, endpoint, reason), reason None on success.

    Iteration 1 builds the word: the phase-1 durations s1..s4 (`_phase1`),
    whose four family legs alone are shot, then `_guess` solves the four
    legs and the rectangle's exact displacement together for s1..s4 and
    P = e1 e2, and e1 = sqrt(|P|), e2 = e1 with the sign of P. The
    rectangle is flowed only then, from the family legs' points that
    `_guess` returned; it is left out when the phase-1 legs meet tol or end
    where the gap is not finite. Iteration 2 checks the word's endpoint: a finite gap of at
    least tol is a "word missed". A phase-1 system that `_phase1` cannot
    solve ends the word in iteration 1, unshot: "phase-1 singular".
    """
    gap_max = _gap_max(target, start)
    if not tol <= gap_max < math.inf:
        log.record(gap_max, 0)
        return [], start, None if gap_max < tol else "gap not finite"
    s = _phase1(word, start, target)
    if s is None:
        log.record(gap_max, 0)
        return [], start, "phase-1 singular"
    theta = s + [0.0, 0.0]
    points = _shoot(word.prefix, [start], s)
    if tol <= _gap_max(target, points[-1]) < math.inf:
        s, product, prefix = _guess(word, target, s, points)
        e = math.sqrt(abs(product))
        theta = s + [e, e if product >= 0.0 else -e]
        points = _shoot(word, prefix, theta)
    legs = _word_legs(word, theta)
    log.record(gap_max, len(legs))
    gap_max = _gap_max(target, points[-1])
    if log.left <= 0:
        return legs, points[-1], None if gap_max < tol else "max_iterations spent"
    log.record(gap_max, 0)
    if gap_max < tol:
        return legs, points[-1], None
    return legs, points[-1], "word missed" if gap_max < math.inf else "gap not finite"


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


@np.errstate(over="ignore", invalid="ignore")
def plan_path(mode: ManeuverMode, start: Sequence[float], goal: Sequence[float],
              tol: float = 1e-3, max_iterations: int = 200,
              trace: bool = False) -> Plan:
    """Plan admissible legs from start to goal within sup-norm tol.

    The plan is one word of 8 legs, Y1 Y2 Y3 Y4 (i, e1) (j, e2) (i, -e1)
    (j, -e2), with (i, j) the mode's commutator pair: its six durations
    come from the phase-1 durations, the exact (a, b) pivot plus one 2x2
    Cramer step (`_phase1`), and one solve for the four family durations
    and e1 e2 (`_solve_word`). The state is carried as Python floats,
    moved leg by leg by `kernels.flow` from the word's table (`_shoot`), and
    no step calls LAPACK. Success is max |goal - achieved| < tol by
    `_gap_max`, the rule of the payload's `gap_max`.
    When the word misses, another word is shot at the goal from where it
    ended, and its legs join the plan's; `pieces` counts the words. Each
    word takes two iterations, its guess and its check, and both count
    against `max_iterations`. Chaining stops when a word meets tol, when its
    check gap is not below the gap it started from, and when the iterations
    run out. With `trace`, the plan records, per iteration, max |gap| to
    the goal and the legs it added; a word's two entries are the gaps it
    started from and ended at.

    A failed plan carries a `reason`: "word missed" (the last word missed,
    and made no progress or spent the last iterations), "max_iterations
    spent", "gap not finite": planning stops at the first gap that is not
    finite, where the state overflowed (flows far from the origin do) or
    the gap itself did, or "phase-1 singular": the phase-1 determinant at a
    word's start is zero or not finite, which it is only where the landing
    fields overflow, far out in (a, b).
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    _check_plan_inputs(start, goal, tol, max_iterations)
    word = _WORD_TABLES[_family_mode(mode)]
    target = goal.tolist()
    log = _Iterations(max_iterations)
    legs, p, pieces = [], start.tolist(), 0
    while True:
        more, p, reason = _solve_word(word, p, target, tol, log)
        legs += more
        pieces += 1
        if reason != "word missed" or log.left <= 0 or \
                not log.steps[-1][0] < log.steps[-2][0]:
            break
    achieved = np.array(p)
    success = _gap_max(target, p) < tol
    return Plan(mode, start, goal, tuple(legs), achieved, goal - achieved, len(log.steps), tol,
                success, tuple(log.steps) if trace else None, pieces,
                None if success else reason)


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
    One walk over the legs chains their starts on Python floats (the
    certificate) and fills a table of each leg's start, controls, first row,
    sample spacing and start time; one `np.repeat` expands it to a column per
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
    # sample i of leg j sits at local time i * (dur_j / n_j), as np.linspace
    # spaces it; the last leg also holds the final sample, at its full duration
    steps = _replay_counts([abs(s) for _, s in plan.legs])
    counts = steps[:-1] + [steps[-1] + 1]
    flat, p, first, t0 = [], plan.start.tolist(), 0, 0.0
    for (k, s), n, count in zip(plan.legs, steps, counts):
        if flat:   # where the last leg ends; the final leg's end is never read
            p = kernels.flow(mode, p, *u, dur)
        u = _negated_controls(mode, word.controls[k]) if s < 0.0 else word.controls[k]
        dur = abs(s)
        flat += (*p, *u, first, dur / n, t0)
        first += count
        t0 += dur
    # one column per sample, from its leg: rows 0-4 the start (then the
    # state), 5-7 the controls, 8 the index of the first sample (then the
    # local time, then the time), 9 the sample spacing, 10 the start time
    table = np.empty((11, len(plan.legs)))
    table.T.flat = flat
    rows = table.repeat(counts, axis=1)
    local = rows[8]
    np.subtract(np.arange(first, dtype=float), local, out=local)
    local *= rows[9]
    local[-1] = dur
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

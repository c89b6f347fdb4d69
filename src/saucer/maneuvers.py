"""Maneuver structures and trajectory integration on the saucer chart.

Three admissibility structures live on the rank-4 contact distribution:

* attacking: velocities must be null for the split metric 2(dx da + dy db);
* landing: velocities must be null for the sphere-congruence metric ghat;
* G2: velocities must point along the cubic cone (strict) or its tangent
  variety (simple), read through the quartic-mode coframe.

Every structure comes with a closed-form control law producing admissible
velocities, and `constraint_residuals` checks a trajectory against the
structure after the fact. A `ControlProgram` holds its three controls as
`kernels.ControlSpec`s, whatever form they were given in, so
`integrate_trajectory` samples every one by the same rule.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Sequence

import numpy as np

from . import gl2, kernels
from .chart import DIM, DIST_SLOTS
from .forms import SymTensorField, constant_symtensor
from .kernels import ManeuverMode
from .sampling import BOX_HALF_WIDTH

#: Index order of distribution tensors: coframe (dx, dy, da, db) restricted
#: to the contact distribution.
DIST_COFRAME = ("dx", "dy", "da", "db")
#: `ResidualReport.passed` holds a trajectory's worst contact and nullity
#: residuals strictly below these.
CONTACT_TOL = 1e-9
NULLITY_TOL = 1e-8


# -- distribution tensors ----------------------------------------------------
#
# Each metric is one chart tensor field. Neither has a dz slot, so its
# restriction to the distribution over the E-frame is its (x, y, a, b) block.

def _restrict(G: np.ndarray) -> np.ndarray:
    """The DIST_COFRAME block of chart tensors (..., 5, 5), (..., 4, 4)."""
    return G[..., DIST_SLOTS[:, None], DIST_SLOTS]


_ATTACKING_METRIC_5 = np.zeros((DIM, DIM))
_ATTACKING_METRIC_5[0, 3] = _ATTACKING_METRIC_5[3, 0] = 1.0
_ATTACKING_METRIC_5[1, 4] = _ATTACKING_METRIC_5[4, 1] = 1.0

#: Split metric 2(dx . da + dy . db) on the chart; constant.
ATTACKING_METRIC_FIELD = constant_symtensor("attacking-metric", _ATTACKING_METRIC_5)


def _landing_metric_5(p: np.ndarray) -> np.ndarray:
    """ghat on the chart at one point (5,) or each point of a stack (m, 5).

    ghat = 2 (1 + a^2) dx . db - 2 ab dx . da - 2 (1 + b^2) dy . da + 2 ab dy . db,
    written with symmetric products u . v = (u x v + v x u)/2.
    """
    a, b = p[..., 3], p[..., 4]
    G = np.zeros(p.shape + (DIM,), dtype=np.result_type(p, float))
    G[..., 0, 4] = G[..., 4, 0] = 1.0 + a * a
    G[..., 0, 3] = G[..., 3, 0] = -a * b
    G[..., 1, 3] = G[..., 3, 1] = -(1.0 + b * b)
    G[..., 1, 4] = G[..., 4, 1] = a * b
    return G


#: Sphere-congruence metric ghat on the chart.
LANDING_METRIC_FIELD = SymTensorField("landing-metric", _landing_metric_5)


def attacking_metric(p: np.ndarray) -> np.ndarray:
    """The attacking metric over DIST_COFRAME; constant in p."""
    return _restrict(_ATTACKING_METRIC_5)


def landing_metric(p: np.ndarray) -> np.ndarray:
    """ghat over DIST_COFRAME at one point (5,) or each point of a stack (m, 5)."""
    return _restrict(_landing_metric_5(np.asarray(p, dtype=float)))


def invariant_two_form_dist(p: np.ndarray) -> np.ndarray:
    """d(omega^0) restricted to the distribution, over DIST_COFRAME.

    Constant: (4, 4) at one point (5,), (..., 4, 4) over a stack (..., 5).
    """
    W = np.zeros(np.shape(p)[:-1] + (4, 4))
    W[..., 0, 2] = W[..., 1, 3] = 1.0
    W[..., 2, 0] = W[..., 3, 1] = -1.0
    return W


def g2_coframe(p: np.ndarray) -> np.ndarray:
    """Quartic-mode coframe rows (omega^1..omega^4) as covectors on the chart.

    omega^1 = dx, omega^2 = dy, omega^3 = -(1/3) db, omega^4 = da; dual to
    the Z frame, and d(omega^0) = omega^1 ^ omega^4 - 3 omega^2 ^ omega^3.
    The rows are constant: (4, 5) at one point, (..., 4, 5) over a stack.
    """
    C = np.zeros(np.shape(p)[:-1] + (4, DIM))
    C[..., 0, 0] = 1.0
    C[..., 1, 1] = 1.0
    C[..., 2, 4] = -1.0 / 3.0
    C[..., 3, 3] = 1.0
    return C


def _quartic_field_array() -> np.ndarray:
    C = g2_coframe(np.zeros(DIM))
    return np.einsum("ABCD,Ap,Bq,Cr,Ds->pqrs", gl2.UPSILON_TENSOR, C, C, C, C)


#: Upsilon pulled back to the chart through the quartic-mode coframe.
QUARTIC_FIELD = constant_symtensor("g2-quartic", _quartic_field_array())


# -- velocity laws and integration -------------------------------------------

@dataclasses.dataclass(frozen=True)
class ControlProgram:
    """Open-loop controls for one maneuver segment.

    Each control is given as anything `kernels.ControlSpec.from_spec` takes:
    a number, a polynomial list, a sine or cosine dict, a callable of time
    or a spec. It is stored as that `ControlSpec`. A program whose three
    controls are all constants takes the closed form; any other is
    integrated by RK4. G2 laws ignore u3 only in the strict mode.
    """
    mode: ManeuverMode
    u1: kernels.ControlSpec
    u2: kernels.ControlSpec
    u3: kernels.ControlSpec = 0.0
    duration: float = 1.0
    dt: float = 1e-3

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            object.__setattr__(self, name, kernels.ControlSpec.from_spec(getattr(self, name)))
        for name in ("duration", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(f"duration / dt must be finite, got {self.duration!r} / {self.dt!r}")

    @property
    def controls(self) -> tuple:
        return self.u1, self.u2, self.u3

    @property
    def is_constant(self) -> bool:
        return all(u.constant is not None for u in self.controls)


class ChartEscapeWarning(RuntimeWarning):
    """Trajectory left the sampling box; the chart remains valid but distant."""


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Samples of one maneuver: times (m,), states and velocities (m, 5).

    `integrate_trajectory` stores states and velocities in column storage,
    each the (m, 5) transposed view of a contiguous (5, m) array, so every
    coordinate's column is contiguous. Any other layout works as well.
    """
    mode: ManeuverMode
    times: np.ndarray          # (m,)
    states: np.ndarray         # (m, 5)
    velocities: np.ndarray     # (m, 5)
    escaped: bool = False

    def __len__(self) -> int:
        return len(self.times)

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def _law_rates(mode: ManeuverMode) -> tuple:
    """The control law as `kernels.rk4_triangular` rates: (a, b) from the
    controls alone, then (x, y, z) from (a, b) and the controls."""
    def ab(y, u):
        return kernels.law(mode, 0.0, 0.0, *u)[3:]

    def xyz(y, u):
        return kernels.law(mode, y[3], y[4], *u)[:3]

    return ((3, 4), ab), ((0, 1, 2), xyz)


def integrate_trajectory(program: ControlProgram, p0: Sequence[float]) -> Trajectory:
    """Sample the control law's trajectory from p0 at fixed dt.

    Constant-control programs are evaluated in closed form by
    `kernels.rk4_constant`, exact up to rounding at every sample. Controls
    that vary in time are integrated by classical RK4 at step dt in
    `kernels.rk4_triangular`: the law is triangular (c3 and c4 see only the
    controls, and x, y, z never enter it), so a and b are integrated first
    from the controls alone, and their stage values give every stage slope
    of x, y and z. The result equals the per-step RK4 loop. Velocities and
    the escape test are evaluated one `kernels.row_blocks` block at a time,
    and each block's velocities are written straight into (5, m) column
    storage.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (DIM,):
        raise ValueError(f"initial point must have shape ({DIM},)")
    if not np.all(np.isfinite(p0)):
        raise ValueError(f"initial point must be finite, got {p0}")
    n_steps = max(1, int(round(program.duration / program.dt)))
    mode = program.mode
    constant = program.is_constant
    if constant:
        times = np.linspace(0.0, program.duration, n_steps + 1)
        controls = tuple(u.constant for u in program.controls)
        states = kernels.rk4_constant(mode, p0, *controls, program.duration, n_steps)
    else:
        times, states, controls = kernels.rk4_triangular(
            p0, program.duration, n_steps, program.controls, _law_rates(mode))
    vels = np.empty((DIM, len(states))).T
    highs, lows = [], []
    for rows in kernels.row_blocks(len(states)):
        block = states[rows]
        kernels.velocity(mode, block, *(controls if constant else [u[rows] for u in controls]),
                         out=vels[rows])
        highs.append(block.max())
        lows.append(block.min())

    # np.maximum lets a NaN through, as a whole-array max does, and a
    # trajectory whose extreme is not finite has escaped
    escaped = not np.maximum(np.max(highs), -np.min(lows)) <= BOX_HALF_WIDTH
    if escaped:
        warnings.warn("trajectory left the sampling box", ChartEscapeWarning,
                      stacklevel=2)
    return Trajectory(mode, times, states, vels, escaped=escaped)


# -- admissibility residuals --------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ResidualReport:
    mode: ManeuverMode
    contact: np.ndarray               # |omega^0(v)| per sample
    nullity: dict                     # name -> per-sample |residual|

    @property
    def max_contact(self) -> float:
        return float(np.max(self.contact)) if len(self.contact) else 0.0

    @property
    def max_nullity(self) -> float:
        vals = [np.max(arr) for arr in self.nullity.values() if len(arr)]
        return float(max(vals)) if vals else 0.0

    def passed(self) -> bool:
        return self.max_contact < CONTACT_TOL and self.max_nullity < NULLITY_TOL


#: Names of each mode's per-sample nullity residuals, in report order.
_NULLITY_NAMES = {
    ManeuverMode.ATTACKING: ("metric",),
    ManeuverMode.LANDING: ("metric",),
    ManeuverMode.G2_SIMPLE: ("upsilon",),
    ManeuverMode.G2_STRICT: ("g1", "g2", "g3", "upsilon"),
}


def constraint_residuals(traj: Trajectory) -> ResidualReport:
    """Pointwise admissibility of (state, velocity) samples for traj.mode.

    Contact: |v_z - a v_x - b v_y|. Attacking: |v_a v_x + v_b v_y|. Landing:
    |ghat(v, v)|. G2 strict: the three bilinears and Upsilon on the
    quartic-mode components; G2 simple: Upsilon only. The samples are
    evaluated one `kernels.row_blocks` block at a time, each block's
    residuals written straight into its rows of the report's arrays.
    """
    mode = traj.mode
    n = len(traj.states)
    contact = np.empty(n)
    nullity = {name: np.empty(n) for name in _NULLITY_NAMES[mode]}
    for rows in kernels.row_blocks(n):
        _block_residuals(mode, traj.states[rows], traj.velocities[rows], contact[rows],
                         [values[rows] for values in nullity.values()])
    return ResidualReport(mode, contact, nullity)


def _block_residuals(mode: ManeuverMode, states: np.ndarray, vels: np.ndarray,
                     contact: np.ndarray, nullity: list) -> None:
    """The contact and nullity residuals of one block of samples, written
    into contact and the arrays of nullity, in `_NULLITY_NAMES` order."""
    a = states[:, 3]
    b = states[:, 4]
    vx, vy, vz = vels[:, 0], vels[:, 1], vels[:, 2]
    va, vb = vels[:, 3], vels[:, 4]
    np.abs(vz - a * vx - b * vy, out=contact)
    if mode == ManeuverMode.ATTACKING:
        np.abs(va * vx + vb * vy, out=nullity[0])
        return
    if mode == ManeuverMode.LANDING:
        ab = a * b
        g = 2.0 * ((1.0 + a * a) * vb - ab * va) * vx \
            - 2.0 * ((1.0 + b * b) * va - ab * vb) * vy
        np.abs(g, out=nullity[0])
        return
    # (m, 4) view of four contiguous columns, so every product below runs
    # over contiguous memory
    X = np.stack([vx, vy, vb / -3.0, va]).T
    np.abs(gl2.quartic_upsilon(X), out=nullity[-1])
    if mode == ManeuverMode.G2_STRICT:
        for g, out in zip(gl2.bilinear_diagonals(X), nullity):
            np.abs(g, out=out)


def ambient_nullity_pair(p: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(r' . n', -(v_a v_x + v_b v_y)/|N|) for a contact-admissible velocity.

    The ambient derivative of the Gauss map reproduces the attacking metric up
    to the normal scale; both numbers agree on admissible samples.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    a, b = p[3], p[4]
    va, vb = v[3], v[4]
    f = 1.0 / np.sqrt(1.0 + a * a + b * b)
    N = np.array([-a, -b, 1.0])
    # dn = f * dN + df * N with dN = (-va, -vb, 0), df = f^3 (a va + b vb)
    dN = np.array([-va, -vb, 0.0])
    df = f ** 3 * (a * va + b * vb)
    ndot = f * dN + df * N
    rdot = v[:3]
    return float(rdot @ ndot), float(-f * (va * v[0] + vb * v[1]))

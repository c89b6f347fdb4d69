"""Maneuver structures and trajectory integration on the saucer chart.

Three admissibility structures live on the rank-4 contact distribution:

* attacking: velocities must be null for the split metric 2(dx da + dy db);
* landing: velocities must be null for the sphere-congruence metric ghat;
* G2: velocities must point along the cubic cone (strict) or its tangent
  variety (simple), read through the quartic-mode coframe.

Every structure comes with a closed-form control law producing admissible
velocities, and `constraint_residuals` checks a trajectory against the
structure after the fact.
"""
from __future__ import annotations

import dataclasses
import enum
import warnings
from typing import Callable, Sequence

import numpy as np

from . import gl2, kernels
from .chart import DIM, contact_covector
from .forms import SymTensorField, constant_symtensor
from .sampling import BOX_HALF_WIDTH

#: Index order of distribution tensors: coframe (dx, dy, da, db) restricted
#: to the contact distribution.
DIST_COFRAME = ("dx", "dy", "da", "db")

#: Chart coordinates carried by each distribution slot.
DIST_COORD_INDICES = (0, 1, 3, 4)


class ManeuverMode(enum.Enum):
    ATTACKING = "attacking"
    LANDING = "landing"
    G2_SIMPLE = "g2s"
    G2_STRICT = "g2d"

    @property
    def kernel_id(self) -> int:
        return _KERNEL_IDS[self]

    @classmethod
    def from_name(cls, name: str) -> "ManeuverMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown maneuver mode {name!r}; expected one of {valid}") from None


_KERNEL_IDS = {
    ManeuverMode.ATTACKING: kernels.ATTACKING,
    ManeuverMode.LANDING: kernels.LANDING,
    ManeuverMode.G2_SIMPLE: kernels.G2_SIMPLE,
    ManeuverMode.G2_STRICT: kernels.G2_STRICT,
}


# -- distribution tensors ----------------------------------------------------

def attacking_metric(p: np.ndarray) -> np.ndarray:
    """Split metric 2(dx . da + dy . db) over DIST_COFRAME; constant in p."""
    G = np.zeros((4, 4))
    G[0, 2] = G[2, 0] = 1.0
    G[1, 3] = G[3, 1] = 1.0
    return G


def landing_metric(p: np.ndarray) -> np.ndarray:
    """Sphere-congruence metric ghat over DIST_COFRAME.

    ghat = 2 (1 + a^2) dx . db - 2 ab dx . da - 2 (1 + b^2) dy . da + 2 ab dy . db,
    written with symmetric products u . v = (u x v + v x u)/2.
    """
    a, b = float(p[3]), float(p[4])
    G = np.zeros((4, 4))
    G[0, 3] = G[3, 0] = 1.0 + a * a
    G[0, 2] = G[2, 0] = -a * b
    G[1, 2] = G[2, 1] = -(1.0 + b * b)
    G[1, 3] = G[3, 1] = a * b
    return G


def invariant_two_form_dist(p: np.ndarray) -> np.ndarray:
    """d(omega^0) restricted to the distribution, over DIST_COFRAME."""
    W = np.zeros((4, 4))
    W[0, 2] = W[1, 3] = 1.0
    W[2, 0] = W[3, 1] = -1.0
    return W


def g2_coframe(p: np.ndarray) -> np.ndarray:
    """Quartic-mode coframe rows (omega^1..omega^4) as covectors on the chart.

    omega^1 = dx, omega^2 = dy, omega^3 = -(1/3) db, omega^4 = da; dual to
    the Z frame, and d(omega^0) = omega^1 ^ omega^4 - 3 omega^2 ^ omega^3.
    """
    C = np.zeros((4, DIM))
    C[0, 0] = 1.0
    C[1, 1] = 1.0
    C[2, 4] = -1.0 / 3.0
    C[3, 3] = 1.0
    return C


def g2_components(v: np.ndarray) -> np.ndarray:
    """Quartic-mode components (v_x, v_y, -(1/3) v_b, v_a) of a chart vector."""
    v = np.asarray(v, dtype=float)
    return np.array([v[0], v[1], -v[4] / 3.0, v[3]])


# -- full-chart tensor fields (used by the symmetry solver) ------------------

def _attacking_metric_5(p: np.ndarray) -> np.ndarray:
    G = np.zeros((DIM, DIM))
    G[0, 3] = G[3, 0] = 1.0
    G[1, 4] = G[4, 1] = 1.0
    return G


ATTACKING_METRIC_FIELD = constant_symtensor(
    "attacking-metric", "chart", _attacking_metric_5(np.zeros(DIM)))


def _landing_metric_5(p: np.ndarray) -> np.ndarray:
    a, b = float(p[3]), float(p[4])
    G = np.zeros((DIM, DIM))
    G[0, 4] = G[4, 0] = 1.0 + a * a
    G[0, 3] = G[3, 0] = -a * b
    G[1, 3] = G[3, 1] = -(1.0 + b * b)
    G[1, 4] = G[4, 1] = a * b
    return G


def _landing_metric_5_derivative(p: np.ndarray) -> np.ndarray:
    """dG[m, i, j] = d(G_ij)/dx^m; only the a and b derivatives survive."""
    a, b = float(p[3]), float(p[4])
    dG = np.zeros((DIM, DIM, DIM))
    dG[3, 0, 4] = dG[3, 4, 0] = 2.0 * a
    dG[3, 0, 3] = dG[3, 3, 0] = -b
    dG[3, 1, 4] = dG[3, 4, 1] = b
    dG[4, 0, 3] = dG[4, 3, 0] = -a
    dG[4, 1, 3] = dG[4, 3, 1] = -2.0 * b
    dG[4, 1, 4] = dG[4, 4, 1] = a
    return dG


LANDING_METRIC_FIELD = SymTensorField(
    "landing-metric", DIM, 2, "chart",
    _landing_metric_5, _landing_metric_5_derivative)


def _quartic_field_array() -> np.ndarray:
    C = g2_coframe(np.zeros(DIM))
    return np.einsum("ABCD,Ap,Bq,Cr,Ds->pqrs", gl2.UPSILON_TENSOR, C, C, C, C)


#: Upsilon pulled back to the chart through the quartic-mode coframe.
QUARTIC_FIELD = constant_symtensor("g2-quartic", "chart", _quartic_field_array())


# -- velocity laws and integration -------------------------------------------

def maneuver_velocity(mode: ManeuverMode, p: np.ndarray,
                      u1: float, u2: float, u3: float = 0.0) -> np.ndarray:
    """Admissible chart velocity of the mode's control law at p."""
    return kernels.velocity(mode.kernel_id, np.asarray(p, dtype=float),
                            float(u1), float(u2), float(u3))


@dataclasses.dataclass(frozen=True)
class ControlProgram:
    """Open-loop controls for one maneuver segment.

    Each control is a constant or a callable of time. G2 laws ignore u3 only
    in the strict mode.
    """
    mode: ManeuverMode
    u1: "float | Callable[[float], float]"
    u2: "float | Callable[[float], float]"
    u3: "float | Callable[[float], float]" = 0.0
    duration: float = 1.0
    dt: float = 1e-3

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def is_constant(self) -> bool:
        return not any(callable(u) for u in (self.u1, self.u2, self.u3))

    def controls_at(self, t: float) -> tuple[float, float, float]:
        return tuple(float(u(t)) if callable(u) else float(u)
                     for u in (self.u1, self.u2, self.u3))

    def controls_on(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u1, u2, u3) over an array of times; a callable runs once per distinct time."""
        return tuple(kernels.at_distinct_times(u, t) if callable(u)
                     else np.full(np.shape(t), float(u))
                     for u in (self.u1, self.u2, self.u3))


class ChartEscapeWarning(RuntimeWarning):
    """Trajectory left the sampling box; the chart remains valid but distant."""


@dataclasses.dataclass(frozen=True)
class Trajectory:
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


def integrate_trajectory(program: ControlProgram, p0: Sequence[float]) -> Trajectory:
    """Sample the control law's trajectory from p0 at fixed dt.

    Constant-control programs are evaluated in closed form by
    `kernels.rk4_constant`, exact up to rounding at every sample. Controls
    that vary in time are integrated by classical RK4 at step dt, run on
    whole columns: the law is triangular (c3 and c4 see only the controls,
    and x, y, z never enter it), so a and b are integrated first from the
    controls alone, and their stage values give every stage slope of x, y
    and z. The result equals the per-step RK4 loop. Velocities come from one
    stacked `kernels.velocity` call over all samples.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (DIM,):
        raise ValueError(f"initial point must have shape ({DIM},)")
    n_steps = max(1, int(round(program.duration / program.dt)))
    h = program.duration / n_steps
    times = np.linspace(0.0, program.duration, n_steps + 1)
    kid = program.mode.kernel_id

    if program.is_constant:
        controls = program.controls_at(0.0)
        states = kernels.rk4_constant(kid, p0, *controls, program.duration, n_steps)
    else:
        sampled = program.controls_on(kernels.rk4_stage_times(times, h))
        controls = tuple(u[:n_steps + 1] for u in sampled)
        stage_controls = list(zip(*(kernels.rk4_stage_values(u, n_steps) for u in sampled)))
        slopes_a, slopes_b = [], []
        for u in stage_controls:
            _, _, c3, c4 = kernels.zcoeffs(kid, 0.0, 0.0, *u)
            slopes_a.append(c4)
            slopes_b.append(-3.0 * c3)
        a = kernels.rk4_column(p0[3], h, *slopes_a)
        b = kernels.rk4_column(p0[4], h, *slopes_b)
        slopes_x, slopes_y, slopes_z = [], [], []
        for a_s, b_s, u in zip(kernels.rk4_stages(a, h, *slopes_a[:3]),
                               kernels.rk4_stages(b, h, *slopes_b[:3]), stage_controls):
            c1, c2, _, _ = kernels.zcoeffs(kid, a_s, b_s, *u)
            slopes_x.append(c1)
            slopes_y.append(c2)
            slopes_z.append(c1 * a_s + c2 * b_s)
        states = np.column_stack([kernels.rk4_column(p0[0], h, *slopes_x),
                                  kernels.rk4_column(p0[1], h, *slopes_y),
                                  kernels.rk4_column(p0[2], h, *slopes_z), a, b])
    vels = kernels.velocity(kid, states, *controls)

    escaped = bool(np.max(np.abs(states)) > BOX_HALF_WIDTH)
    if escaped:
        warnings.warn("trajectory left the sampling box", ChartEscapeWarning,
                      stacklevel=2)
    return Trajectory(program.mode, times, states, vels, escaped=escaped)


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

    def passed(self, contact_tol: float = 1e-9, nullity_tol: float = 1e-8) -> bool:
        return self.max_contact <= contact_tol and self.max_nullity <= nullity_tol


def constraint_residuals(traj: Trajectory, mode: ManeuverMode | None = None) -> ResidualReport:
    """Pointwise admissibility of (state, velocity) samples for the mode.

    Contact: |v_z - a v_x - b v_y|. Attacking: |v_a v_x + v_b v_y|. Landing:
    |ghat(v, v)|. G2 strict: the three bilinears and Upsilon on the
    quartic-mode components; G2 simple: Upsilon only.
    """
    if mode is None:
        mode = traj.mode
    states, vels = traj.states, traj.velocities
    a = states[:, 3]
    b = states[:, 4]
    vx, vy, vz = vels[:, 0], vels[:, 1], vels[:, 2]
    va, vb = vels[:, 3], vels[:, 4]
    contact = np.abs(vz - a * vx - b * vy)

    nullity: dict[str, np.ndarray] = {}
    if mode == ManeuverMode.ATTACKING:
        nullity["metric"] = np.abs(va * vx + vb * vy)
    elif mode == ManeuverMode.LANDING:
        g = 2.0 * ((1.0 + a * a) * vb - a * b * va) * vx \
            - 2.0 * ((1.0 + b * b) * va - a * b * vb) * vy
        nullity["metric"] = np.abs(g)
    else:
        X = np.stack([vx, vy, -vb / 3.0, va], axis=1)
        if mode == ManeuverMode.G2_STRICT:
            for name, G in zip(("g1", "g2", "g3"), gl2.BILINEAR_MATRICES):
                nullity[name] = np.abs(np.einsum("si,ij,sj->s", X, G, X))
        nullity["upsilon"] = np.abs(gl2.quartic_upsilon(X))
    return ResidualReport(mode, contact, nullity)


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

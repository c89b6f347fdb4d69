"""Verification suites behind the `saucer verify` subcommand.

Every suite is a list of named checks closed over a seed; sampling labels
keep the random streams independent and reproducible, so a fixed seed yields
identical reports. A check that draws no samples gives the same result at
every seed, so it is a module-level function cached for the process
(`functools.cache`): a process's first pass computes it, later passes reuse
the result. A check that raises is not cached, so it fails on every pass.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import catalogs, fibration, gl2, planner, structure, symmetry
from .chart import (E_FRAME, Z_FRAME, AmbientConfig, OutsideChart,
                    ambient_from_chart, ambient_nondegeneracy_pair,
                    chart_from_ambient, contact_covector,
                    contact_nondegeneracy)
from .forms import FieldStack, VectorField, constant_field
from .maneuvers import (ATTACKING_METRIC_FIELD, LANDING_METRIC_FIELD,
                        QUARTIC_FIELD, ManeuverMode, attacking_metric,
                        constraint_residuals, g2_coframe, invariant_two_form_dist)
from .reports import Check, CheckResult, SuiteReport, run_checks
from .sampling import rng_for, sample_vectors

SUITE_NAMES = ("config", "structure", "gl2", "symmetry", "fibration", "planner")


def _result(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), detail, tol)


def _coords(point) -> str:
    return "(" + ", ".join(f"{v:.6f}" for v in point) + ")"


def _worst_sample(values: np.ndarray, pts: np.ndarray) -> tuple[float, str]:
    """Largest per-sample residual and "worst at (...)" naming its sample."""
    k = int(np.argmax(values))
    return float(values[k]), f"worst at {_coords(pts[k])}"


# -- config suite ----------------------------------------------------------------

@functools.cache
def _outside_chart_rejected() -> CheckResult:
    bad = AmbientConfig(r=np.zeros(3), n=np.array([1.0, 0.0, 0.0]))
    try:
        chart_from_ambient(bad)
    except OutsideChart:
        return CheckResult("outside-chart-rejected", True, None,
                           "equatorial normal raises")
    return CheckResult("outside-chart-rejected", False, None,
                       "no exception for n_z = 0")


def _config_checks(seed: int) -> list[Check]:
    def contact_constant() -> CheckResult:
        pts = sample_vectors(100, 5, seed, "config.contact")
        worst, where = _worst_sample(np.abs(contact_nondegeneracy(pts) - 2.0), pts)
        return _result("contact-constant", worst, 1e-12, f"100 points, target 2; {where}")

    def ambient_triple() -> CheckResult:
        pts = sample_vectors(25, 5, seed, "config.ambient")
        lhs, rhs = ambient_nondegeneracy_pair(pts)
        worst, where = _worst_sample(np.abs(lhs - rhs), pts)
        # both sides lie in (0, 2], so 1e-13 is a few hundred ulps of either
        return _result("ambient-triple-match", worst, 1e-13, f"25 points; {where}")

    def roundtrip() -> CheckResult:
        pts = sample_vectors(100, 5, seed, "config.roundtrip")
        errors = np.max(np.abs(chart_from_ambient(ambient_from_chart(pts)) - pts), axis=1)
        worst, where = _worst_sample(errors, pts)
        return _result("chart-roundtrip", worst, 1e-12, f"100 points; {where}")

    def duality() -> CheckResult:
        pts = sample_vectors(50, 5, seed, "config.duality")
        Z, E = (np.swapaxes(F.values(pts), -1, -2) for F in (Z_FRAME, E_FRAME))
        errors = np.maximum(
            np.max(np.abs(g2_coframe(pts) @ Z - np.eye(4)), axis=(1, 2)),
            np.max(np.abs(np.einsum("zi,zij->zj", contact_covector(pts), E)), axis=1))
        worst, where = _worst_sample(errors, pts)
        return _result("frame-duality", worst, 1e-12,
                       f"coframe vs Z frame; w0 annihilates the distribution; {where}")

    return [("contact-constant", contact_constant),
            ("ambient-triple-match", ambient_triple),
            ("chart-roundtrip", roundtrip),
            ("outside-chart-rejected", _outside_chart_rejected),
            ("frame-duality", duality)]


# -- structure suite -------------------------------------------------------------

@functools.cache
def _split_operator() -> CheckResult:
    K = structure.attacking_k_operator()
    target = np.diag([1.0, 1.0, -1.0, -1.0])
    worst = float(np.max(np.abs(K.matrix - target)))
    worst = max(worst, float(np.max(np.abs(K.matrix @ K.matrix - np.eye(4)))))
    return _result("split-operator", worst, 1e-14, "K and K^2 exact")


@functools.cache
def _split_eigenbundles() -> CheckResult:
    K = structure.attacking_k_operator()
    plus, minus = structure.eigen_split(K)
    p = np.zeros(5)
    G, W = attacking_metric(p), invariant_two_form_dist(p)
    worst = 0.0
    for basis in (plus, minus):
        if basis.shape[1] != 2:
            return CheckResult("split-eigenbundles", False, None,
                               f"bundle rank {basis.shape[1]} != 2")
        for M in (G, W):
            worst = max(worst, float(np.max(np.abs(basis.T @ M @ basis))))
    return _result("split-eigenbundles", worst, 1e-10,
                   "both bundles null for g and Lagrangean for the 2-form")


@functools.cache
def _pair_stabilizers() -> tuple:
    """The attacking-pair and quartic-pair stabilizers, solved once per process."""
    return (structure.solve_infinitesimal_stabilizer(structure.attacking_pair_e()),
            structure.solve_infinitesimal_stabilizer(structure.quartic_mode_pair()))


@functools.cache
def _stabilizer_dimensions() -> CheckResult:
    sol_pair, sol_quartic = _pair_stabilizers()
    sol_omega = structure.solve_infinitesimal_stabilizer([gl2.OMEGA_MATRIX])
    dims = (sol_pair.dimension, sol_quartic.dimension, sol_omega.dimension)
    ok = dims == (5, 4, 11)
    worst = max(sol_pair.residual, sol_quartic.residual, sol_omega.residual)
    return CheckResult("stabilizer-dimensions", ok, worst,
                       f"dims {dims}, expected (5, 4, 11)")


@functools.cache
def _stabilizer_span() -> CheckResult:
    sol, solq = _pair_stabilizers()
    ok = all(sol.contains(Y) for Y in structure.STABILIZER_BASIS)
    table = structure.verify_commutation_table(structure.STABILIZER_BASIS,
                                               structure.STABILIZER_TABLE)
    eye2 = np.eye(2)
    for r in range(2):
        for s in range(2):
            A = np.outer(eye2[r], eye2[s])
            ok = ok and solq.contains(gl2.gl2_action_derivative(A))
    return CheckResult("stabilizer-span", ok and table <= 1e-10, table,
                       "printed basis and Sym^3 image lie in the solutions")


def _structure_checks(seed: int) -> list[Check]:
    def landing_square() -> CheckResult:
        pts = sample_vectors(200, 5, seed, "structure.landing")
        K = structure.landing_k_operator(pts)
        expected = -1.0 / (1.0 + pts[:, 3] ** 2 + pts[:, 4] ** 2)
        errors = np.abs(K.square_scalar - expected) / np.abs(expected)
        worst, where = _worst_sample(errors, pts)
        return _result("landing-square-scalar", worst, 1e-13,
                       f"raw K^2 = -(1+a^2+b^2)^{{-1}} Id, relative; {where}")

    def landing_orientation() -> CheckResult:
        pts = sample_vectors(100, 5, seed, "structure.orientation")
        K = structure.landing_k_operator(pts)
        Z1, _ = structure.landing_frame_z(pts)
        KZ1 = (K.matrix @ Z1[:, :, None])[:, :, 0]
        errors = np.linalg.norm(KZ1 - 1j * Z1, axis=-1) / np.linalg.norm(Z1, axis=-1)
        worst, where = _worst_sample(errors, pts)
        return _result("landing-orientation", worst, 1e-13, f"K Z1 = +i Z1; {where}")

    def levi() -> CheckResult:
        pts = sample_vectors(100, 5, seed, "structure.levi")
        signature = structure.levi_form(pts).signature
        bad = np.flatnonzero(np.any(signature != (1, 1), axis=1))
        if bad.size:
            k = bad[0]
            return CheckResult("levi-form", False, None,
                               f"signature {tuple(int(v) for v in signature[k])} "
                               f"at {pts[k].round(3)}")
        origin = structure.levi_form(np.zeros(5))
        worst = abs(origin.c_value - 2.0)
        one = structure.levi_form(np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
        worst = max(worst, abs(one.c_value - 2.0 * (3.0 + 1j * np.sqrt(3.0))))
        return _result("levi-form", worst, 1e-12,
                       "signature (1,1) at 100 points; pinned values")

    return [("split-operator", _split_operator),
            ("split-eigenbundles", _split_eigenbundles),
            ("landing-square-scalar", landing_square),
            ("landing-orientation", landing_orientation),
            ("levi-form", levi),
            ("stabilizer-dimensions", _stabilizer_dimensions),
            ("stabilizer-span", _stabilizer_span)]


# -- gl2 suite --------------------------------------------------------------------

def _gl2_checks(seed: int) -> list[Check]:
    def dual_route() -> CheckResult:
        X = sample_vectors(1000, 4, seed, "gl2.dual")
        a = gl2.quartic_upsilon(X)
        b = gl2.quartic_upsilon_det(X)
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst, where = _worst_sample(np.abs(a - b) / scale, X)
        return _result("quartic-dual-route", worst, 1e-10,
                       f"det L vs expanded polynomial, 1000 samples; {where}")

    def polarization() -> CheckResult:
        X = sample_vectors(200, 4, seed, "gl2.polar")
        u = gl2.quartic_upsilon(X)
        scale = np.maximum(1.0, np.abs(u))
        t = np.einsum("ijkl,zi,zj,zk,zl->z", gl2.UPSILON_TENSOR, X, X, X, X)
        errors = np.maximum(np.abs(gl2.upsilon_polarized(X, X, X, X) - u) / scale,
                            np.abs(t - u) / scale)
        worst, where = _worst_sample(errors, X)
        return _result("polarization-diagonal", worst, 1e-10,
                       f"4-linear extension restores the quartic; {where}")

    def spinor_route() -> CheckResult:
        X = sample_vectors(100, 4, seed, "gl2.spinor")
        worst = float(np.max(np.abs(gl2.endomorphism_L(X) - gl2.endomorphism_L_spinor(X))))
        return _result("endomorphism-spinor-route", worst, 1e-12,
                       "closed form vs epsilon contractions")

    def equivariance() -> CheckResult:
        alpha, beta, X = _equivariance_draws(seed)
        rho = gl2.gl2_action(alpha)
        worst = float(np.max(np.abs(gl2.gl2_action(alpha @ beta) - rho @ gl2.gl2_action(beta)),
                             initial=0.0))
        lhs = gl2.quartic_upsilon((rho @ X[..., None])[..., 0])
        # float_power is C pow, as a Python float's ** 6 is
        rhs = np.float_power(np.linalg.det(alpha), 6) * gl2.quartic_upsilon(X)
        scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale, initial=0.0)))
        lam = 1.7
        scal = gl2.gl2_action(np.diag([lam, lam])) - lam ** 3 * np.eye(4)
        worst = max(worst, float(np.max(np.abs(scal))))
        return _result("action-equivariance", worst, 1e-8,
                       "morphism property, det^6 scaling, central scaling")

    def classification() -> CheckResult:
        X, expected = _classification_samples(seed)
        correct = int(np.count_nonzero(gl2.classify_directions(X) == expected))
        rate = correct / len(X)
        return CheckResult("null-classification", rate >= 0.99, rate,
                           f"{correct}/{len(X)} labeled samples")

    return [("quartic-dual-route", dual_route),
            ("polarization-diagonal", polarization),
            ("endomorphism-spinor-route", spinor_route),
            ("action-equivariance", equivariance),
            ("null-classification", classification)]


def _equivariance_draws(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept (alpha, beta, X) of action-equivariance as stacks (n, 2, 2),
    (n, 2, 2), (n, 4): 50 draws of each, kept where both determinants reach 0.05."""
    rng = rng_for(seed, "gl2.equivariance")
    alpha, beta = rng.uniform(-1.0, 1.0, size=(2, 50, 2, 2))
    X = rng.uniform(-1.0, 1.0, size=(50, 4))
    keep = (np.abs(np.linalg.det(alpha)) >= 0.05) & (np.abs(np.linalg.det(beta)) >= 0.05)
    return alpha[keep], beta[keep], X[keep]


def _classification_samples(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The labeled directions of null-classification, (1000, 4), and their
    codes into gl2.NULL_CLASSES: 300 on the cubic cone s nu(t), 300 on its
    tangent variety nu(t) + s nu'(t), 400 generic."""
    rng = rng_for(seed, "gl2.classify")
    t = rng.uniform(-1.5, 1.5, size=600)
    low, high = np.repeat([[0.2, 2.0], [0.1, 1.0]], 300, axis=0).T
    s = rng.uniform(low, high) * rng.choice([-1.0, 1.0], size=600)
    generic = rng.uniform(-2.0, 2.0, size=(400, 4))
    X = np.concatenate([s[:300, None] * gl2.cubic_point(t[:300]),
                        gl2.tangent_point(t[300:], s[300:]), generic])
    return X, np.repeat([0, 1, 2], [300, 300, 400])


# -- symmetry suite ----------------------------------------------------------------

#: Each symmetry catalog's label, the structure its fields preserve and the
#: name of its matrix-model oracle.
_CATALOGS = {"attacking": (ATTACKING_METRIC_FIELD, "sl4"),
             "landing": (LANDING_METRIC_FIELD, "su22"),
             "g2": (QUARTIC_FIELD, "g2-split")}


@dataclasses.dataclass(frozen=True)
class _CatalogEvaluation:
    """One catalog as the symmetry checks read it at one seed."""

    residuals: dict[str, float]   # per field, the worse of contact and membership
    worst: float                  # the largest, at the field and sample detail names
    detail: str
    rank: int
    closure: float                # misfits on two point sets and their disagreement
    constants: symmetry.StructureConstants   # solved on the Killing point set
    killing: symmetry.KillingDiagnostics
    model: symmetry.LieAlgebraModel

    def verdicts(self) -> dict[str, bool]:
        """Its part of each check's verdict, by check ("catalog": its residuals)."""
        return {"catalog": self.worst <= symmetry.CATALOG_TOL,
                "catalog-ranks": self.rank == len(self.residuals),
                "structure-constant-closure": self.closure <= symmetry.CLOSURE_TOL,
                "killing-signatures": (self.killing.signature == self.model.killing_signature
                                       and self.constants.dimension == self.model.dimension
                                       and self.killing.jacobi <= 1e-8)}


def _evaluate_catalog(label: str, seed: int) -> _CatalogEvaluation:
    """A catalog at the symmetry suite's point sets for the seed (residual,
    two closure sets, Killing, rank), from one values and one Jacobians fill
    over their union. A point's rows of the fill do not depend on the other
    points, so each set's slice gives what the set alone gives, bit for bit;
    only the results are kept."""
    S, model_name = _CATALOGS[label]
    fields = catalogs.catalog(label)
    sets = [sample_vectors(12, 5, seed, f"symmetry.{label}"),
            *(sample_vectors(10, 5, seed, f"symmetry.{name}") for name in
              (f"close.{label}.a", f"close.{label}.b", f"killing.{label}", "rank"))]
    cuts = np.cumsum([len(p) for p in sets])[:-1]
    pts = np.concatenate(sets)
    V, J = np.split(fields.values(pts), cuts), np.split(fields.jacobians(pts), cuts)
    reports = dict(zip(fields.ids, symmetry.stacked_symmetry_reports(V[0], J[0], S, sets[0])))
    residuals = {i: max(rep.contact, rep.membership) for i, rep in reports.items()}
    worst = max(residuals, key=residuals.get)
    detail = f"worst field {worst} at {_coords(reports[worst].worst_point)}"
    sa, sb, sk = map(symmetry.stacked_structure_constants, V[1:4], J[1:4])
    scale = max(1.0, float(np.max(np.abs(sa.c))))
    closure = max(sa.misfit, sb.misfit, float(np.max(np.abs(sa.c - sb.c))) / scale)
    return _CatalogEvaluation(residuals, residuals[worst], detail,
                              symmetry.stacked_rank(V[4]), closure, sk,
                              symmetry.killing_diagnostics(sk),
                              symmetry.reference_model(model_name))


def _symmetry_checks(seed: int) -> list[Check]:
    @functools.cache
    def evaluated(label: str) -> _CatalogEvaluation:
        """Shared by the pass; timings charge it to the first check asking."""
        return _evaluate_catalog(label, seed)

    def every() -> list[_CatalogEvaluation]:
        return [evaluated(lbl) for lbl in _CATALOGS]

    def passed(check: str) -> bool:
        return all(ev.verdicts()[check] for ev in every())

    def catalog_residuals(name: str, label: str) -> CheckResult:
        ev = evaluated(label)
        return CheckResult(name, ev.verdicts()["catalog"], ev.worst, ev.detail,
                           symmetry.CATALOG_TOL)

    def ranks() -> CheckResult:
        got = tuple(ev.rank for ev in every())
        expected = tuple(len(ev.residuals) for ev in every())
        return CheckResult("catalog-ranks", passed("catalog-ranks"), None,
                           f"ranks {got}, expected {expected}")

    def closure() -> CheckResult:
        return CheckResult("structure-constant-closure", passed("structure-constant-closure"),
                           max(ev.closure for ev in every()),
                           "misfit and agreement across disjoint point sets",
                           symmetry.CLOSURE_TOL)

    def killing() -> CheckResult:
        detail = "; ".join(f"{lbl}: {ev.killing.signature} vs {ev.model.name} "
                           f"{ev.model.killing_signature}"
                           for lbl, ev in zip(_CATALOGS, every()))
        return CheckResult("killing-signatures", passed("killing-signatures"),
                           max(ev.killing.jacobi for ev in every()), detail)

    def negative_controls() -> CheckResult:
        pts = sample_vectors(10, 5, seed, "symmetry.negative")
        da = constant_field("da-dir", [0.0, 0.0, 0.0, 1.0, 0.0])
        rep, = symmetry.catalog_symmetry_reports(FieldStack.of(da), ATTACKING_METRIC_FIELD, pts)
        ok = rep.contact > 1e-2 and rep.membership < 1e-10
        scale = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        euler = VectorField("euler", lambda p: p * scale)
        worstq = symmetry.catalog_symmetry_reports(FieldStack.of(euler), QUARTIC_FIELD,
                                                   pts)[0].membership
        ok = ok and worstq > 1e-3
        return CheckResult("negative-controls", ok, worstq,
                           f"da contact {rep.contact:.3g}, membership "
                           f"{rep.membership:.3g}; euler quartic {worstq:.3g}")

    return [("attacking-catalog", lambda: catalog_residuals("attacking-catalog", "attacking")),
            ("landing-catalog", lambda: catalog_residuals("landing-catalog", "landing")),
            ("g2-catalog", lambda: catalog_residuals("g2-catalog", "g2")),
            ("catalog-ranks", ranks),
            ("structure-constant-closure", closure),
            ("killing-signatures", killing),
            ("negative-controls", negative_controls)]


# -- fibration suite ----------------------------------------------------------------

@functools.cache
def _cubic_example() -> CheckResult:
    run = fibration.run_joystick(1.0, 1.0, duration=1.5, n_steps=300)
    t = run.engine.times
    worst = float(np.max(np.abs(run.engine.states[:, 0] + t ** 3)))
    return _result("cubic-example", worst, 1e-10, "unit controls trace y0 = -t^3")


@functools.cache
def _lift_singularity_detected() -> CheckResult:
    curve = fibration.integrate_d2_curve(1.0, [1.0, -1.0], 2.0, 100)
    try:
        fibration.lift_curve(curve)
    except fibration.LiftSingular:
        return CheckResult("lift-singularity-detected", True, None,
                           "w crossing zero raises")
    return CheckResult("lift-singularity-detected", False, None,
                       "no exception for w -> 0")


def _fibration_checks(seed: int) -> list[Check]:
    def per_chart(label: str, count: int, residuals) -> tuple[float, str]:
        """Worst of residuals(chart, points) over both charts, and where."""
        worst = (-1.0, "")
        for chart_name in ("x", "y"):
            pts = sample_vectors(count, 6, seed, f"{label}.{chart_name}")
            value, where = _worst_sample(residuals(chart_name, pts), pts)
            worst = max(worst, (value, f"{where} in chart {chart_name}"))
        return worst

    def eds() -> CheckResult:
        worst, where = per_chart("fibration.eds", 25, fibration.eds_residuals)
        return _result("structure-equations", worst, 1e-12,
                       f"both charts, 25 points; {where}")

    def roundtrip() -> CheckResult:
        pts = sample_vectors(100, 6, seed, "fibration.roundtrip")
        errors = np.maximum(
            np.max(np.abs(fibration.x_from_y(fibration.y_from_x(pts)) - pts), axis=1),
            np.max(np.abs(fibration.y_from_x(fibration.x_from_y(pts)) - pts), axis=1))
        worst, where = _worst_sample(errors, pts)
        example = fibration.y_from_x(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]))
        target = np.array([-1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
        pinned = float(np.max(np.abs(example - target)))
        if pinned > worst:
            worst, where = pinned, "worst at the pinned example"
        return _result("transition-roundtrip", worst, 1e-12,
                       f"100 points plus the pinned example; {where}")

    def duality_residuals(chart_name: str, pts: np.ndarray) -> np.ndarray:
        C = fibration.coframe(chart_name, pts)
        F = fibration.frame(chart_name, pts)
        return np.max(np.abs(C @ F - np.eye(6)), axis=(1, 2))

    def duality() -> CheckResult:
        worst, where = per_chart("fibration.dual", 25, duality_residuals)
        return _result("coframe-frame-duality", worst, 1e-12, f"both charts; {where}")

    def commutators() -> CheckResult:
        worst, where = per_chart("fibration.comm", 10, fibration.frame_commutator_residuals)
        return _result("frame-commutators", worst, 1e-12, f"seven stated brackets; {where}")

    def joystick() -> CheckResult:
        rng = rng_for(seed, "fibration.joystick")
        reports = []
        for _ in range(6):
            u = list(rng.uniform(-1.0, 1.0, size=3))
            w = [float(rng.uniform(0.8, 1.5)), float(rng.uniform(-0.2, 0.2))]
            reports.append(fibration.run_joystick(u, w, duration=2.0, n_steps=200).report)
        worst_ang = max(rep.max_angular for rep in reports)
        worst_contact = max(rep.max_contact for rep in reports)
        ok = all(rep.passed() for rep in reports)
        return CheckResult("joystick-certification", ok, worst_ang,
                           f"6 runs; worst contact {worst_contact:.3g}")

    return [("structure-equations", eds),
            ("transition-roundtrip", roundtrip),
            ("coframe-frame-duality", duality),
            ("frame-commutators", commutators),
            ("joystick-certification", joystick),
            ("cubic-example", _cubic_example),
            ("lift-singularity-detected", _lift_singularity_detected)]


# -- planner suite -------------------------------------------------------------------

_PLAN_MODES = (ManeuverMode.ATTACKING, ManeuverMode.LANDING, ManeuverMode.G2_STRICT)


@functools.cache
def _plan_example() -> CheckResult:
    plan = planner.plan_path(ManeuverMode.ATTACKING, np.zeros(5),
                             np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    ok = (plan.success and len(plan.legs) == 1 and plan.legs[0][0] == 0
          and abs(plan.legs[0][1] + 1.0 / 3.0) < 1e-9)
    detail = f"legs {[(k, round(s, 6)) for k, s in plan.legs]}"
    return CheckResult("plan-example", ok, None, detail)


def _planner_checks(seed: int) -> list[Check]:
    def generating() -> CheckResult:
        worst = np.inf
        min_rank = 5
        where = ""
        for mode in _PLAN_MODES:
            pts = sample_vectors(40, 5, seed, f"planner.rank.{mode.value}")
            rep = planner.bracket_generating_report(mode, pts)
            min_rank = min(min_rank, rep.min_rank)
            if rep.worst_fifth_singular < worst:
                worst = rep.worst_fifth_singular
                where = f"{mode.value} at {_coords(rep.worst_point)}"
        return CheckResult("bracket-generating", min_rank == 5, worst,
                           f"family + pairwise brackets span at rank {min_rank}; "
                           f"smallest scaled 5th singular value {where}")

    def attacking_identity() -> CheckResult:
        pts = sample_vectors(25, 5, seed, "planner.id.attacking")
        worst = planner.distinguished_bracket_residual(ManeuverMode.ATTACKING, pts)
        return _result("attacking-bracket-identity", worst, 1e-8, "[Y2,Y3] = 3 dz")

    def g2_identity() -> CheckResult:
        pts = sample_vectors(25, 5, seed, "planner.id.g2")
        worst = planner.distinguished_bracket_residual(ManeuverMode.G2_STRICT, pts)
        return _result("g2-bracket-identity", worst, 1e-8, "[Y2,Y1] = dz")

    def landing_depth3() -> CheckResult:
        pts = sample_vectors(25, 5, seed, "planner.id.landing")
        worst = planner.landing_nested_bracket_norm(pts)
        return _result("landing-depth3-vanishes", worst, 1e-6,
                       "the depth-3 expression is identically zero")

    def landing_depth2() -> CheckResult:
        pts = sample_vectors(25, 5, seed, "planner.depth2")
        low = float(min(np.min(v) for v in planner.landing_depth2_contact_values(pts)))
        return CheckResult("landing-depth2-transversal", low >= 0.5, low,
                           "contact values of [Y2,Y4] and [Y1,Y3] stay >= 1")

    def rectangles() -> CheckResult:
        worst = 0.0
        for mode in (ManeuverMode.ATTACKING, ManeuverMode.G2_STRICT):
            p0 = sample_vectors(1, 5, seed, f"planner.rect.{mode.value}")[0]
            (i, j), displacement, _ = planner._RECTANGLE[mode]
            coeff = displacement[2]
            for eps in (0.2, 0.1, 0.05):
                p = p0.copy()
                for k, s in ((i, eps), (j, eps), (i, -eps), (j, -eps)):
                    p = planner.flow(mode, k, p, s)
                ratio = (p[2] - p0[2]) / eps ** 2
                worst = max(worst, abs(ratio - coeff) / coeff)
        # one ulp of z (4.4e-16 for |z| < 4) reads 1.8e-13 at eps = 0.05 and
        # coeff = 1, so 1e-11 leaves the four flows about 50 ulps of rounding
        return _result("rectangle-asymptotics", worst, 1e-11,
                       "z displacement / eps^2 hits the bracket coefficient")

    @functools.cache
    def planned(mode: ManeuverMode) -> list:
        """The mode's three pairs of plan-and-replay and their traced plans."""
        pts = sample_vectors(6, 5, seed, f"planner.plan.{mode.value}", box=0.8)
        return [(pts[2 * k], pts[2 * k + 1],
                 planner.plan_path(mode, pts[2 * k], pts[2 * k + 1], tol=1e-3, trace=True))
                for k in range(3)]

    def plans() -> CheckResult:
        tol = 1e-3
        worst_gap = 0.0
        worst_resid = 0.0
        replayed = True
        n_legs = n_iterations = 0
        for mode in _PLAN_MODES:
            for k, (start, goal, plan) in enumerate(planned(mode)):
                if not plan.success:
                    return CheckResult("plan-and-replay", False, None,
                                       f"{mode.value} plan failed at pair {k}")
                worst_gap = max(worst_gap, float(np.max(np.abs(plan.gap))))
                traj = planner.replay(plan)
                end_err = float(np.max(np.abs(traj.endpoint - plan.achieved)))
                rep = constraint_residuals(traj)
                worst_resid = max(worst_resid, rep.max_contact, rep.max_nullity,
                                  end_err)
                replayed = replayed and planner.replay_passed(rep, end_err)
                n_legs += len(plan.legs)
                n_iterations += plan.iterations
        ok = worst_gap < tol and replayed
        return CheckResult("plan-and-replay", ok, worst_gap,
                           f"9 pairs, {n_legs} legs, {n_iterations} iterations, "
                           f"replay residual {worst_resid:.3g}")

    def landing_bracket() -> CheckResult:
        word = planner._WORD_TABLES[ManeuverMode.LANDING]
        worst = 0.0
        for k, (start, goal, plan) in enumerate(planned(ManeuverMode.LANDING)):
            start, goal = start.tolist(), goal.tolist()
            s = planner._phase1(word, start, goal)
            bracket = s and planner._bracket(planner._landing_sextic(
                word, goal, s, planner._shoot(word.prefix, [start], s)))
            r1, r2, low, high, root = bracket or (None,) * 5
            if root is None or not (low >= 0.0 >= high and r1 < root < r2):
                return CheckResult("landing-word-bracket", False, None,
                                   f"no root strictly between the roots of D at pair {k}")
            # the gap the pair's first word left, checked in its second
            # iteration (the start's, if it met the goal already)
            worst = max(worst, plan.trace[:2][-1][0])
        # rounding alone: in [-0.8, 0.8]^5 the gap was at most 5.7e-14 on
        # the 18 000 pairs of seeds 1-5999, and every bracket held
        return _result("landing-word-bracket", worst, 1e-10,
                       "3 pairs; R(r1) >= 0 >= R(r2) and a root strictly between, "
                       "the word solved there ends this close to the goal")

    return [("bracket-generating", generating),
            ("attacking-bracket-identity", attacking_identity),
            ("g2-bracket-identity", g2_identity),
            ("landing-depth3-vanishes", landing_depth3),
            ("landing-depth2-transversal", landing_depth2),
            ("rectangle-asymptotics", rectangles),
            ("plan-and-replay", plans),
            ("landing-word-bracket", landing_bracket),
            ("plan-example", _plan_example)]


_BUILDERS = {
    "config": _config_checks,
    "structure": _structure_checks,
    "gl2": _gl2_checks,
    "symmetry": _symmetry_checks,
    "fibration": _fibration_checks,
    "planner": _planner_checks,
}


def catalog_report(label: str, seed: int) -> dict:
    """The symmetry suite's evaluation of one catalog at the seed, field by
    field: the same samples and bounds, and `pass` exactly when the suite's
    residual, rank, closure and Killing checks pass for this catalog."""
    name = {"g2s": "g2", "g2d": "g2"}.get(label, label)
    if name not in _CATALOGS:
        raise ValueError(f"unknown catalog {label!r}; expected one of "
                         f"{tuple(_CATALOGS)}")
    ev = _evaluate_catalog(name, seed)
    return {
        "catalog": name,
        "seed": seed,
        "dimension": len(ev.residuals),
        "rank": ev.rank,
        "field_residuals": ev.residuals,
        "detail": ev.detail,
        "structure_constants": ev.constants.c.tolist(),
        "closure_misfit": ev.closure,
        "jacobi_residual": ev.killing.jacobi,
        "killing_signature": list(ev.killing.signature),
        "oracle": {"model": ev.model.name,
                   "killing_signature": list(ev.model.killing_signature),
                   "dimension": ev.model.dimension},
        "pass": all(ev.verdicts().values()),
    }


def run_suite(name: str, seed: int) -> SuiteReport:
    if name not in _BUILDERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    checks = _BUILDERS[name](seed)
    return SuiteReport(name, seed, run_checks(checks))


def run_suites(names, seed: int) -> list[SuiteReport]:
    return [run_suite(name, seed) for name in names]

"""Acceptance gate: the full criteria list, one printed verdict line each.

Every criterion is evaluated completely before its assert fires, so the
printed line and the failure message carry the whole picture. Criterion 8
includes a stated bracket identity whose left side vanishes identically; it
is asserted as stated and fails, which is the faithful outcome (see the
planner module docstring and landing_nested_bracket_norm).
"""
from __future__ import annotations

import itertools
import json

import numpy as np

from saucer import catalogs, chart, cli, fibration, gl2, planner, structure, symmetry
from saucer.forms import bracket
from saucer.maneuvers import (
    ATTACKING_METRIC_FIELD,
    LANDING_METRIC_FIELD,
    ManeuverMode,
    attacking_metric,
    constraint_residuals,
    invariant_two_form_dist,
)
from saucer.sampling import rng_for, sample_vectors

SEED = 7
PLAN_MODES = (ManeuverMode.ATTACKING, ManeuverMode.LANDING, ManeuverMode.G2_STRICT)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_contact_constant():
    pts = sample_vectors(100, 5, SEED, "acc.contact")
    worst = max(abs(chart.contact_nondegeneracy(p) - 2.0) for p in pts)
    ok = worst < 1e-9
    line = _verdict(1, ok, f"contact constant 2 at 100 points, err {worst:.3e} (tol 1e-9)")
    assert ok, line


def test_criterion_2_attacking_k_and_eigenbundles():
    K = structure.attacking_k_operator()
    exact = bool(np.array_equal(K.matrix, np.diag([1.0, 1.0, -1.0, -1.0])))
    plus, minus = structure.eigen_split(K)
    g = attacking_metric(np.zeros(5))
    w = invariant_two_form_dist(np.zeros(5))
    resid = max(float(np.max(np.abs(E.T @ M @ E)))
                for E in (plus, minus) for M in (g, w))
    ok = exact and resid < 1e-10
    line = _verdict(2, ok, f"K diagonal exact={exact}, null/Lagrangean residual "
                           f"{resid:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_3_stabilizer_dimensions():
    sol5 = structure.solve_infinitesimal_stabilizer(structure.attacking_pair_e())
    table = structure.verify_commutation_table(
        structure.STABILIZER_BASIS, structure.STABILIZER_TABLE)
    span_ok = all(sol5.contains(Y) for Y in structure.STABILIZER_BASIS)
    sol4 = structure.solve_infinitesimal_stabilizer(structure.quartic_mode_pair())
    sol11 = structure.solve_infinitesimal_stabilizer(
        [structure.quartic_mode_pair()[1]])
    resid = max(table, sol5.residual)
    ok = (sol5.dimension == 5 and span_ok and resid < 1e-10
          and sol4.dimension == 4 and sol11.dimension == 11)
    line = _verdict(3, ok, f"dims {sol5.dimension}/{sol4.dimension}/{sol11.dimension} "
                           f"(expect 5/4/11), table+solver residual {resid:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_4_landing_square_and_levi():
    pts = sample_vectors(1000, 5, SEED, "acc.landing")
    worst = 0.0
    for p in pts:
        KL = structure.landing_k_operator(p)
        expected = -1.0 / (1.0 + p[3] ** 2 + p[4] ** 2)
        worst = max(worst, abs(KL.square_scalar - expected) / abs(expected))
    sig_ok = all(structure.levi_form(p).signature == (1, 1)
                 for p in sample_vectors(100, 5, SEED, "acc.levi"))
    ok = worst < 1e-9 and sig_ok
    line = _verdict(4, ok, f"K-tilde square scalar rel err {worst:.3e} at 1000 points "
                           f"(tol 1e-9), Levi signature (1,1) at 100: {sig_ok}")
    assert ok, line


def test_criterion_5_symmetry_catalogs():
    expected = {"attacking": (15, "sl4"), "landing": (15, "su22"), "g2": (14, "g2-split")}
    metric = {"attacking": ATTACKING_METRIC_FIELD, "landing": LANDING_METRIC_FIELD}
    worst_field = 0.0
    closure = 0.0
    ranks = {}
    sigs = {}
    oracle_ok = True
    for name, (dim, model) in expected.items():
        fields = catalogs.catalog(name)
        pts = sample_vectors(50, 5, SEED, f"acc.cat.{name}")
        for X in fields:
            if name == "g2":
                rep = symmetry.g2_symmetry_residual(X, pts)
            else:
                rep = symmetry.legendrean_symmetry_residual(X, metric[name], pts)
            worst_field = max(worst_field, rep.contact, rep.membership)
        sc = symmetry.extract_structure_constants(
            fields, sample_vectors(12, 5, SEED, f"acc.sc.{name}"))
        closure = max(closure, sc.misfit)
        ranks[name] = symmetry.catalog_rank(
            fields, sample_vectors(12, 5, SEED, f"acc.rank.{name}"))
        sigs[name] = symmetry.killing_diagnostics(sc).signature
        ref = symmetry.reference_model(model)
        oracle_ok &= (sigs[name] == ref.killing_signature and ref.dimension == dim)
    ranks_ok = ranks == {"attacking": 15, "landing": 15, "g2": 14}
    ok = worst_field < 1e-7 and closure < 1e-8 and ranks_ok and oracle_ok
    line = _verdict(5, ok, f"field residual {worst_field:.3e} (tol 1e-7), closure "
                           f"{closure:.3e} (tol 1e-8), ranks {ranks}, signatures {sigs}")
    assert ok, line


def test_criterion_6_quartic_and_classification():
    rng = rng_for(SEED, "acc.gl2")
    worst = 0.0
    for _ in range(1000):
        X = rng.uniform(-2.0, 2.0, size=4)
        lhs = gl2.quartic_upsilon_det(X)
        rhs = gl2.quartic_upsilon(X)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    hits = 0
    total = 0
    for _ in range(334):
        t = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        hits += gl2.classify_direction(gl2.cubic_point(t)) is gl2.NullClass.TYPE_N
        hits += gl2.classify_direction(
            gl2.tangent_point(t, s)) is gl2.NullClass.TYPE_II
        hits += gl2.classify_direction(
            rng.uniform(-2.0, 2.0, size=4) + np.array([0, 0, 0, 3.0])
        ) is not gl2.NullClass.TYPE_N  # generic samples; see rate below
        total += 3
    rate = hits / total
    # strict rate: how many generic samples are NotNull
    generic = sum(gl2.classify_direction(rng.uniform(-2.0, 2.0, size=4))
                  is gl2.NullClass.NOT_NULL for _ in range(1000)) / 1000.0
    ok = worst < 1e-10 and rate >= 0.99 and generic >= 0.99
    line = _verdict(6, ok, f"det-vs-quartic rel err {worst:.3e} (tol 1e-10), labeled "
                           f"classification rate {rate:.4f}, generic NotNull rate "
                           f"{generic:.4f} (floor 0.99)")
    assert ok, line


def test_criterion_7_fibration():
    rng = rng_for(SEED, "acc.fib")
    pts = rng.uniform(-1.5, 1.5, size=(20, 6))
    eds = max(float(np.max(fibration.eds_residuals(c, pts))) for c in ("x", "y"))
    safe = pts.copy()
    safe[:, 4] = np.sign(safe[:, 4]) * np.maximum(np.abs(safe[:, 4]), 0.3)
    round_err = max(float(np.max(np.abs(fibration.x_from_y(fibration.y_from_x(p)) - p)))
                    for p in safe)
    comm = max(float(np.max(fibration.frame_commutator_residuals(c, pts)))
               for c in ("x", "y"))
    worst_ang = 0.0
    worst_T = 0.0
    for k in range(20):
        u = fibration.ControlSpec.from_spec(
            {"kind": ("sin", "cos")[k % 2],
             "amplitude": float(rng.uniform(0.5, 1.5)),
             "frequency": float(rng.uniform(0.5, 2.0)),
             "phase": float(rng.uniform(0.0, 6.28))})
        w0 = float(rng.uniform(0.6, 1.4) * rng.choice([-1.0, 1.0]))
        run = fibration.run_joystick(u, w0, duration=2.0, n_steps=400)
        worst_ang = max(worst_ang, run.report.max_angular)
        worst_T = max(worst_T, float(np.max(np.abs(
            run.contact.cone_parameter + run.engine.states[:, 4]))))
    ok = eds < 1e-7 and round_err < 1e-12 and comm < 1e-8 and worst_ang < 1e-5 \
        and worst_T == 0.0
    line = _verdict(7, ok, f"EDS {eds:.3e} (tol 1e-7), roundtrip {round_err:.3e} "
                           f"(tol 1e-12), commutators {comm:.3e} (tol 1e-8), 20 "
                           f"joysticks angular {worst_ang:.3e} (tol 1e-5), T=-y4 "
                           f"deviation {worst_T:.1e}")
    assert ok, line


def test_criterion_8_planner():
    rank_ok = True
    min_rank = 5
    for mode in PLAN_MODES:
        pts = sample_vectors(100, 5, SEED, f"acc.rank.{mode.value}")
        rep = planner.bracket_generating_report(mode, pts)
        min_rank = min(min_rank, rep.min_rank)
        rank_ok &= rep.passed()
    id_pts = sample_vectors(10, 5, SEED, "acc.ids")
    residuals = {
        "attacking [Y2,Y3]=3dz": planner.distinguished_bracket_residual(
            ManeuverMode.ATTACKING, id_pts),
        "landing nested=9dz": planner.distinguished_bracket_residual(
            ManeuverMode.LANDING, id_pts),
        "g2 [Y2,Y1]=dz": planner.distinguished_bracket_residual(
            ManeuverMode.G2_STRICT, id_pts),
    }
    ids_ok = {k: v < 1e-8 for k, v in residuals.items()}
    rng = rng_for(SEED, "acc.plan")
    reached = 0
    replay_ok = True
    for i in range(50):
        mode = PLAN_MODES[i % 3]
        start = rng.uniform(-0.8, 0.8, size=5)
        goal = rng.uniform(-0.8, 0.8, size=5)
        plan = planner.plan_path(mode, start, goal, tol=1e-3)
        reached += plan.success
        traj = planner.replay(plan)
        rep = constraint_residuals(traj)
        replay_ok &= bool(rep.max_contact < 1e-8 and rep.max_nullity < 1e-8)
        replay_ok &= bool(np.max(np.abs(traj.endpoint - plan.achieved)) < 1e-8)
    ok = rank_ok and all(ids_ok.values()) and reached == 50 and replay_ok
    parts = ", ".join(f"{k} residual {v:.3e}" for k, v in residuals.items())
    line = _verdict(8, ok, f"rank {min_rank} (expect 5) at 100 points/mode, {parts} "
                           f"(tol 1e-8), reached {reached}/50 pairs at tol 1e-3, "
                           f"replay certified {replay_ok}")
    assert ok, line


def test_criterion_9_determinism(capsys):
    outs = []
    for _ in range(2):
        code = cli.main(["verify", "--suite", "all", "--seed", "7"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    d1, d2 = (json.loads(t) for t in outs)
    d1.pop("timestamp"), d2.pop("timestamp")
    ok = d1 == d2
    n_checks = sum(len(s["checks"]) for s in d1["suites"])
    line = _verdict(9, ok, f"verify --suite all --seed 7 twice: {n_checks} checks, "
                           f"reports identical (timestamp aside): {ok}")
    assert ok, line

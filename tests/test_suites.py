"""The verify suites as a whole: sample streams, call budgets, worst samples."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import re
import sys

import numpy as np
import pytest

from saucer import (catalogs, chart, cli, fibration, forms, gl2, planner, reports,
                    structure, suites, symmetry)
from saucer.maneuvers import ManeuverMode
from saucer.sampling import rng_for

#: sha256 over (label, samples) of every sample_vectors call the config,
#: gl2, fibration and planner suites make at seed 5, labels sorted: the draws
#: these checks made when they still evaluated their samples one point at a
#: time.
DRAWS_AT_SEED_5 = "48cbc2790abba9855fca184c13e689525f41dfbfa9f346c177a53622a0d0ef67"
DRAW_LABELS = 26

#: The same digest for the symmetry suite: the draws its checks made when
#: each filled its own catalogs at its own points.
SYMMETRY_DRAWS_AT_SEED_5 = "1a19f3f6c31406fa447bcbdb5b90a11360648592cc335e73de8df535dd722a15"
SYMMETRY_DRAW_LABELS = 14


def _draws_digest(monkeypatch, names):
    """(labels, sha256) of the sample_vectors calls of the named suites at seed 5."""
    seen = {}

    def recorded(fn):
        def sampler(count, *args, **kwargs):
            out = fn(count, *args, **kwargs)
            label = next(a for a in args if isinstance(a, str))
            seen[label] = out.copy()
            return out
        return sampler

    monkeypatch.setattr(suites, "sample_vectors", recorded(suites.sample_vectors))
    for name in names:
        assert suites.run_suite(name, 5).passed
    digest = hashlib.sha256()
    for label in sorted(seen):
        digest.update(label.encode())
        digest.update(seen[label].tobytes())
    return len(seen), digest.hexdigest()


def test_stacked_checks_draw_the_samples_they_always_drew(monkeypatch):
    assert _draws_digest(monkeypatch, ("config", "gl2", "fibration", "planner")) == (
        DRAW_LABELS, DRAWS_AT_SEED_5)


def test_symmetry_pass_draws_the_samples_it_always_drew(monkeypatch):
    assert _draws_digest(monkeypatch, ("symmetry",)) == (
        SYMMETRY_DRAW_LABELS, SYMMETRY_DRAWS_AT_SEED_5)


#: Seeds at which the gl2 draws are checked against their contract.
DRAW_SEEDS = (1, 5, 7919, 566551698)


def _tangent_parameters(rows):
    """(t, s) of rows nu(t) + s nu'(t): t + s is the second component and
    s^2 = (t + s)^2 - (t^2 + 2 t s) the second squared less the third; the
    sign of s is the one that restores the rows."""
    u = rows[:, 1]
    size = np.sqrt(u * u - rows[:, 2])
    errors = [np.max(np.abs(gl2.tangent_point(u - s, s) - rows), axis=1)
              for s in (size, -size)]
    s = np.where(errors[1] < errors[0], -size, size)
    return u - s, s


def test_gl2_draws_are_plain_seeded_draws():
    for seed in DRAW_SEEDS:
        X, codes = suites._classification_samples(seed)
        assert X.tobytes() == suites._classification_samples(seed)[0].tobytes(), seed
        np.testing.assert_array_equal(codes, np.repeat([0, 1, 2], [300, 300, 400]))
        cone, tangent, generic = np.split(X, [300, 600])
        s, t = cone[:, 0], cone[:, 1] / cone[:, 0]
        np.testing.assert_allclose(s[:, None] * gl2.cubic_point(t), cone, rtol=1e-12)
        assert np.all((0.2 <= np.abs(s)) & (np.abs(s) <= 2.0)), seed
        t2, s2 = _tangent_parameters(tangent)
        np.testing.assert_allclose(gl2.tangent_point(t2, s2), tangent, atol=1e-9)
        assert np.all((0.1 - 1e-9 <= np.abs(s2)) & (np.abs(s2) <= 1.0 + 1e-9)), seed
        assert np.all(np.abs(np.concatenate([t, t2])) <= 1.5 + 1e-9), seed
        assert all(np.any(v < 0) and np.any(v > 0) for v in (s, s2)), seed
        assert np.all(np.abs(generic) <= 2.0), seed
        # all 50 (alpha, beta, X) in one go; the pairs whose determinants
        # both reach 0.05 are kept, in draw order
        kept = suites._equivariance_draws(seed)
        rng = rng_for(seed, "gl2.equivariance")
        drawn = (rng.uniform(-1.0, 1.0, size=(50, 2, 2)),
                 rng.uniform(-1.0, 1.0, size=(50, 2, 2)),
                 rng.uniform(-1.0, 1.0, size=(50, 4)))
        keep = [abs(np.linalg.det(a)) >= 0.05 and abs(np.linalg.det(b)) >= 0.05
                for a, b in zip(*drawn[:2])]
        assert 30 <= sum(keep) < 50, seed
        for got, want in zip(kept, drawn):
            assert got.tobytes() == want[keep].tobytes(), seed


def _count_calls(monkeypatch, functions):
    """Count calls of each (module, name) through every saucer binding of it."""
    counts = {}
    for module, name in functions:
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        counts[key] = 0

        def counted(*args, _fn=original, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "saucer" or mod_name.startswith("saucer.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def _count_method_calls(monkeypatch, cls, names):
    """Count calls of each cls.name method."""
    counts = {}
    for name in names:
        key = f"{cls.__name__}.{name}"
        counts[key] = 0

        def counted(self, *args, _fn=getattr(cls, name), _key=key, **kwargs):
            counts[_key] += 1
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


def _verify_all(seed):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                         "--format", "compact"])
    return code, out.getvalue()


def test_verify_pass_stays_within_call_budgets(monkeypatch):
    # brackets, complex steps, coframes, quartics, K-operators, landing
    # frames and Levi forms run over whole sample stacks, a few calls per check;
    # action-equivariance alone stays per iteration
    _verify_all(5)
    counts = _count_calls(monkeypatch, [(forms, "bracket"),
                                        (forms, "complex_step_derivative"),
                                        (fibration, "coframe"),
                                        (gl2, "quartic_upsilon"),
                                        (structure, "landing_k_operator"),
                                        (structure, "landing_frame_z"),
                                        (structure, "levi_form")])
    # tensor fields are evaluated once per residual check, not once per point
    counts.update(_count_method_calls(monkeypatch, forms.SymTensorField,
                                      ("value", "point_derivative")))
    # every family of fields takes its Jacobians in one call per stack
    counts.update(_count_method_calls(monkeypatch, forms.FieldStack, ("jacobians",)))
    code, _ = _verify_all(5)
    assert code == 0
    assert counts["forms.bracket"] <= 40, counts
    # every Jacobian, point derivative and d is one complex step of a stack
    assert counts["forms.complex_step_derivative"] <= 40, counts
    assert counts["fibration.coframe"] <= 20, counts
    assert counts["gl2.quartic_upsilon"] <= 150, counts
    assert counts["structure.landing_k_operator"] <= 4, counts
    assert counts["structure.landing_frame_z"] <= 8, counts
    assert counts["structure.levi_form"] <= 4, counts
    assert counts["SymTensorField.value"] <= 100, counts
    assert counts["SymTensorField.point_derivative"] <= 100, counts
    # one per stack and point set, and one per symmetry catalog for all its sets
    assert counts["FieldStack.jacobians"] <= 13, counts


#: The checks that draw no samples, by suite: each is computed once per process.
SEED_FREE_CHECKS = {
    "config": ("outside-chart-rejected",),
    "structure": ("split-operator", "split-eigenbundles", "stabilizer-dimensions",
                  "stabilizer-span"),
    "fibration": ("cubic-example", "lift-singularity-detected"),
    "planner": ("plan-example",),
}


def _seed_free_checks(seed):
    """{name: thunk} of the seed-free checks as the suites list them at the seed."""
    return {name: check for suite, names in SEED_FREE_CHECKS.items()
            for name, check in suites._BUILDERS[suite](seed) if name in names}


def _clear_seed_free_caches():
    for check in _seed_free_checks(1).values():
        check.cache_clear()
    suites._pair_stabilizers.cache_clear()


@pytest.fixture
def cold_seed_free_checks():
    """Seed-free checks computed afresh, and forgotten after the test."""
    _clear_seed_free_caches()
    yield
    _clear_seed_free_caches()


def test_seed_free_checks_give_one_result_at_every_seed(cold_seed_free_checks):
    # computed afresh at each seed, so a seed that crept into one shows here
    results = []
    for seed in (1, 7919):
        _clear_seed_free_caches()
        checks = _seed_free_checks(seed)
        assert len(checks) == 8
        results.append({name: check() for name, check in checks.items()})
    assert results[0] == results[1]
    assert all(result.passed for result in results[0].values()), results[0]


def test_a_second_pass_reuses_the_seed_free_checks(monkeypatch, cold_seed_free_checks):
    first = suites.run_suites(suites.SUITE_NAMES, 5)
    counts = _count_calls(monkeypatch, [(structure, "solve_infinitesimal_stabilizer")])
    second = suites.run_suites(suites.SUITE_NAMES, 5)
    assert counts["structure.solve_infinitesimal_stabilizer"] == 0, counts
    assert first == second
    assert all(r.seconds is not None for rep in second for r in rep.results)
    texts = [json.dumps({**reports.report_payload(reps), "timestamp": ""})
             for reps in (first, second)]
    assert texts[0] == texts[1]


def test_a_seed_free_check_that_raises_fails_on_every_pass(monkeypatch, cold_seed_free_checks):
    # functools.cache keeps no exception, so the check runs and fails again
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("no plan")

    monkeypatch.setattr(planner, "plan_path", broken)
    check = _seed_free_checks(5)["plan-example"]
    for n in (1, 2):
        result, = reports.run_checks([("plan-example", check)])
        assert not result.passed and result.detail.startswith("raised RuntimeError")
        assert len(calls) == n
    monkeypatch.undo()
    assert check().passed


def test_structure_pass_solves_each_stabilizer_system_once(monkeypatch, cold_seed_free_checks):
    # the attacking pair, the quartic pair and the 2-form alone, on a cold pass
    counts = _count_calls(monkeypatch, [(structure, "solve_infinitesimal_stabilizer")])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", "structure", "--seed", "5", "--format", "compact"])
    assert code == 0
    assert counts["structure.solve_infinitesimal_stabilizer"] == 3, counts


def test_symmetry_pass_fills_each_catalog_stack_once_per_use(monkeypatch):
    # residuals, ranks, closure and Killing forms read one values fill and
    # one Jacobians fill of each catalog, over the union of their point sets
    counts = _count_calls(monkeypatch, [(catalogs, "_fill"),
                                        (symmetry, "legendrean_symmetry_residual"),
                                        (symmetry, "g2_symmetry_residual")])
    assert suites.run_suite("symmetry", 5).passed
    assert counts["catalogs._fill"] <= 6, counts
    assert counts["symmetry.legendrean_symmetry_residual"] == 0, counts
    assert counts["symmetry.g2_symmetry_residual"] == 0, counts


def _equivariance_one_by_one(seed):
    """action-equivariance's residual over the kept draws, one draw at a time."""
    worst = 0.0
    for alpha, beta, X in zip(*suites._equivariance_draws(seed)):
        rho = gl2.gl2_action(alpha)
        worst = max(worst, float(np.max(np.abs(
            gl2.gl2_action(alpha @ beta) - rho @ gl2.gl2_action(beta)))))
        lhs = gl2.quartic_upsilon(rho @ X)
        rhs = float(np.linalg.det(alpha)) ** 6 * gl2.quartic_upsilon(X)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    lam = 1.7
    scal = gl2.gl2_action(np.diag([lam, lam])) - lam ** 3 * np.eye(4)
    return max(worst, float(np.max(np.abs(scal))))


def test_stacked_equivariance_equals_the_draw_by_draw_residual():
    for seed in (1, 5, 7919):
        check = dict(suites._gl2_checks(seed))["action-equivariance"]()
        assert check.passed and check.value == _equivariance_one_by_one(seed), seed


def test_frame_commutators_resolve_a_perturbed_coefficient(monkeypatch):
    # the brackets are complex steps, so a coefficient that is wrong by 1e-10
    # stands far above their rounding (a few 1e-15): the bound of 1e-12 sees
    # it, where one of 1e-8 would pass it
    check = dict(suites._fibration_checks(1))["frame-commutators"]
    assert check().passed and check().threshold == 1e-12
    table = dict(fibration.FRAME_COMMUTATORS)
    table[(4, 1)] = {0: 1.0 + 1e-10}
    monkeypatch.setattr(fibration, "FRAME_COMMUTATORS", table)
    result = check()
    assert 1e-12 < result.value <= 1e-8
    assert not result.passed


def test_landing_square_scalar_resolves_a_perturbed_metric(monkeypatch):
    # the raw square is a handful of rounded products and one 4x4 solve, so
    # its relative error sits near 1e-15: a metric off by a relative 5e-12
    # moves it by 1e-11, which the bound of 1e-13 sees and one of 1e-9 passes
    check = dict(suites._structure_checks(1))["landing-square-scalar"]
    assert check().passed and check().threshold == 1e-13
    metric = structure.landing_metric
    monkeypatch.setattr(structure, "landing_metric", lambda p: metric(p) * (1.0 + 5e-12))
    result = check()
    assert 1e-13 < result.value <= 1e-9
    assert not result.passed


def test_landing_orientation_resolves_a_perturbed_frame(monkeypatch):
    # K Z1 = +i Z1 holds to rounding (below 1e-15 relative); one frame
    # component off by a relative 1e-11 breaks it by about that much
    check = dict(suites._structure_checks(1))["landing-orientation"]
    assert check().passed and check().threshold == 1e-13
    frame = structure.landing_frame_z

    def perturbed(p):
        Z1, Z2 = frame(p)
        Z1[..., 3] *= 1.0 + 1e-11
        return Z1, Z2

    monkeypatch.setattr(structure, "landing_frame_z", perturbed)
    result = check()
    assert 1e-13 < result.value <= 1e-9
    assert not result.passed


def test_ambient_triple_match_resolves_a_perturbed_volume(monkeypatch):
    # both sides lie in (0, 2] and agree to a few ulps (8.9e-16 at worst over
    # seeds 1-200, 7919 and 566551698): an area volume off by a relative 1e-10
    # moves the right side by up to 2e-10, which the bound of 1e-13 sees and
    # one of 1e-7 passes
    check = dict(suites._config_checks(1))["ambient-triple-match"]
    assert check().passed and check().threshold == 1e-13
    monkeypatch.setattr(chart, "_AREA_VOLUME", chart._AREA_VOLUME * (1.0 + 1e-10))
    result = check()
    assert 1e-13 < result.value <= 1e-7
    assert not result.passed


def test_rectangle_asymptotics_resolves_a_perturbed_coefficient(monkeypatch):
    # the ratio is exact but for the rounding of z, amplified by 1/eps^2 = 400
    # (1.6e-13 at worst over seeds 1-200, 7919 and 566551698): a bracket gain
    # off by a relative 1e-10 reads 1e-10, which the bound of 1e-11 sees and
    # one of 1e-8 passes
    check = dict(suites._planner_checks(1))["rectangle-asymptotics"]
    assert check().passed and check().threshold == 1e-11
    table = dict(planner._RECTANGLE)
    pair, displacement, per_b = table[ManeuverMode.G2_STRICT]
    gain = displacement[2] * (1.0 + 1e-10)
    table[ManeuverMode.G2_STRICT] = (pair, displacement[:2] + (gain,) + displacement[3:],
                                     per_b)
    monkeypatch.setattr(planner, "_RECTANGLE", table)
    result = check()
    assert 1e-11 < result.value <= 1e-8
    assert not result.passed


def test_landing_word_bracket_misses_with_the_wrong_rectangle_displacement(monkeypatch):
    # the solve eliminates P through the rectangle's displacement dz - b dy;
    # with dz alone in its place the bracket may still hold (D, Y1 and Y2
    # are closed forms), but the word solved at its root misses the goal
    clean = dict(suites._planner_checks(1))["landing-word-bracket"]()
    assert clean.passed and clean.value < 1e-13 and clean.threshold == 1e-10
    tables = dict(planner._WORD_TABLES)
    word = tables[ManeuverMode.LANDING]
    tables[ManeuverMode.LANDING] = word._replace(per_b=(0.0,) * 5)
    monkeypatch.setattr(planner, "_WORD_TABLES", tables)
    result = dict(suites._planner_checks(1))["landing-word-bracket"]()
    assert not result.passed
    assert result.value > 1e-3


WORST_SAMPLE_CHECKS = ("structure-equations", "contact-constant", "ambient-triple-match",
                       "bracket-generating", "frame-commutators", "quartic-dual-route",
                       "polarization-diagonal", "chart-roundtrip", "frame-duality",
                       "landing-square-scalar", "landing-orientation",
                       "transition-roundtrip", "coframe-frame-duality")


def test_residual_checks_name_their_worst_sample():
    _, out = _verify_all(5)
    details = {c["check"]: c["detail"]
               for s in json.loads(out)["suites"] for c in s["checks"]}
    point = re.compile(r"at \((-?\d+\.\d{6}, )+-?\d+\.\d{6}\)")
    for name in WORST_SAMPLE_CHECKS:
        assert point.search(details[name]), (name, details[name])


#: sha256 of the default (pretty) `verify --suite NAME --seed 5` payload,
#: timestamp blanked. Every residual in these suites is pinned to the bit,
#: so a change that moves one by an ulp shows here. The gl2 digest is that of
#: the plain seeded draws of action-equivariance and null-classification; the
#: structure digest carries the 1e-13 bounds of landing-square-scalar and
#: landing-orientation; the symmetry digest carries the 1e-8 bound of
#: structure-constant-closure; the config and planner digests carry the
#: 1e-13 bound of ambient-triple-match and the 1e-11 bound of
#: rectangle-asymptotics. The planner digest also carries the last bits of
#: the plan-and-replay residual, which follow the phase-1 solve's rounding
#: and the landing word's closed-form solve, and the landing-word-bracket
#: check.
PAYLOADS_AT_SEED_5 = {
    "config": "e0956b08465cfaa8af9c1f60d89121017efe0d3cd85647b18322b29c8776e6ef",
    "structure": "d6584ac8e3d0e2f9436e17d3e30f65da7288742eb847f31188cd6fd2df10ad0f",
    "gl2": "4d027298cb7320a100b0d9d03995a9c4c5297960f72f4961830f0a2fd638e2ee",
    "symmetry": "353479b165e1011b8ee4cfccd5bda25466887248e6ecafb22aeb037551056725",
    "fibration": "d854dc55ea25947d5f0ca6e1091084f950b340c89dadc4a87402885ecb84798b",
    "planner": "bd36170c956026fc783530d839295ba1ab93961c547bd0b7804b4e61c50058e0",
}


def test_gl2_and_symmetry_payloads_stay_byte_identical():
    for name, want in PAYLOADS_AT_SEED_5.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--suite", name, "--seed", "5"])
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.getvalue())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


#: The same digest for `verify --suite symmetry --catalog NAME --seed 5`: the
#: symmetry suite's own evaluation of the catalog, rank included.
CATALOG_PAYLOADS_AT_SEED_5 = {
    "attacking": "389eddb61db99ab39c01af937ad673250effbaf9c9099c5728e843acb6eeea2e",
    "landing": "de2392a2d5e603db40f349d2538469bdc49daa629aa51629a96b0953aad653ca",
    "g2": "0018772b7d65afcd7497eb0fa44f7746ffcbd4fe027a296355754cac088069ad",
}


def test_catalog_payloads_stay_byte_identical():
    for name, want in CATALOG_PAYLOADS_AT_SEED_5.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--suite", "symmetry", "--catalog", name, "--seed", "5"])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want, name


def _catalog_checks(checks, name):
    """The symmetry checks whose verdict covers the catalog `name`."""
    return [checks[f"{name}-catalog"], checks["catalog-ranks"],
            checks["structure-constant-closure"], checks["killing-signatures"]]


def _catalog_payload(name, seed):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["verify", "--suite", "symmetry", "--catalog", name,
                         "--seed", str(seed), "--format", "compact"])
    data = json.loads(out.getvalue())
    assert code == (0 if data["pass"] else 1)
    return data


def test_catalog_report_is_the_suite_evaluation(monkeypatch):
    for seed in (1, 2, 3, 4, 5, 7919):
        checks = {c.name: c for c in suites.run_suite("symmetry", seed).results}
        for name in ("attacking", "landing", "g2"):
            data = _catalog_payload(name, seed)
            suite = checks[f"{name}-catalog"]
            assert max(data["field_residuals"].values()) == suite.value, (seed, name)
            assert data["detail"] == suite.detail, (seed, name)
            assert data["rank"] == data["dimension"], (seed, name)
            assert data["pass"] is all(c.passed for c in _catalog_checks(checks, name))
    # a residual bound between the catalogs' worst fields fails the suite's
    # check of the worst catalog, and that catalog's report with it, alone
    checks = {c.name: c for c in suites.run_suite("symmetry", 1).results}
    worst = sorted((checks[f"{name}-catalog"].value, name)
                   for name in ("attacking", "landing", "g2"))
    assert worst[1][0] < worst[2][0]
    monkeypatch.setattr(symmetry, "CATALOG_TOL", worst[1][0])
    checks = {c.name: c for c in suites.run_suite("symmetry", 1).results}
    for _, name in worst:
        passed = all(c.passed for c in _catalog_checks(checks, name))
        assert passed is (name != worst[2][1])
        assert _catalog_payload(name, 1)["pass"] is passed


def test_structure_constant_closure_resolves_an_injected_error(monkeypatch):
    # misfits and cross-set disagreements are rounding, 1.16e-14 at worst over
    # seeds 1-500, 7919 and 566551698: an error of 1e-7 in either stands far
    # above them, and the bound of 1e-8 sees it, where the old 1e-6 passed it
    check = dict(suites._symmetry_checks(1))["structure-constant-closure"]
    assert check().passed and check().threshold == 1e-8
    solve = symmetry.stacked_structure_constants
    calls = itertools.count()

    def misfit(V, J):
        return dataclasses.replace(solve(V, J), misfit=1e-7)

    def disagreement(V, J):
        # each catalog solves its closure sets a and b, then its Killing set
        sc = solve(V, J)
        return dataclasses.replace(sc, c=sc.c * (1.0 + 1e-7)) if next(calls) % 3 == 1 else sc

    for injected in (misfit, disagreement):
        monkeypatch.setattr(symmetry, "stacked_structure_constants", injected)
        result = dict(suites._symmetry_checks(1))["structure-constant-closure"]()
        assert 1e-8 < result.value <= 1e-6, injected.__name__
        assert not result.passed
        assert _catalog_payload("g2", 1)["pass"] is False


def test_plan_and_replay_holds_replay_contact_to_the_residual_bound(monkeypatch):
    # the check and `saucer plan` share planner.replay_passed: replay contact
    # must stay below maneuvers.CONTACT_TOL (1e-9), where the check read 1e-8
    check = dict(suites._planner_checks(1))["plan-and-replay"]
    clean = check()
    assert clean.passed
    residuals = suites.constraint_residuals

    def noisy(traj, *args):
        rep = residuals(traj, *args)
        return dataclasses.replace(rep, contact=rep.contact + 3e-9)

    monkeypatch.setattr(suites, "constraint_residuals", noisy)
    result = check()
    assert not result.passed
    assert result.value == clean.value
    worst = float(result.detail.rsplit(" ", 1)[1])
    assert 1e-9 < worst < 1e-8
    monkeypatch.setattr(cli, "constraint_residuals", noisy)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["plan", "--mode", "g2d", "--from", "0,0,0,0,0",
                         "--to", "0.5,0,0.2,0,0", "--format", "compact"])
    replay = json.loads(out.getvalue())["replay"]
    assert 1e-9 < replay["max_contact"] < 1e-8
    assert replay["pass"] is False and code == 1

"""Symmetry catalogs close to the expected Lie algebras with the right Killing forms."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from saucer import catalogs, symmetry
from saucer.chart import E_FRAME, contact_covector
from saucer.forms import (FieldStack, SymTensorField, VectorField, constant_field,
                          lie_derivative_stack)
from saucer.maneuvers import (ATTACKING_METRIC_FIELD, LANDING_METRIC_FIELD,
                              QUARTIC_FIELD)
from saucer.sampling import sample_vectors


def _pts(seed, n=10):
    return sample_vectors(n, 5, seed, "chart")


def test_attacking_catalog_members_are_symmetries():
    fields = catalogs.catalog("attacking")
    assert len(fields) == 15
    pts = _pts(101, 8)
    for X in fields:
        rep = symmetry.legendrean_symmetry_residual(X, ATTACKING_METRIC_FIELD, pts)
        assert rep.passed(), X.id


def test_landing_catalog_members_are_symmetries():
    fields = catalogs.catalog("landing")
    assert len(fields) == 15
    pts = _pts(102, 8)
    for X in fields:
        rep = symmetry.legendrean_symmetry_residual(X, LANDING_METRIC_FIELD, pts)
        assert rep.passed(), X.id


def test_g2_catalog_members_are_symmetries():
    fields = catalogs.catalog("g2")
    assert len(fields) == 14
    pts = _pts(103, 8)
    for X in fields:
        rep = symmetry.g2_symmetry_residual(X, pts)
        assert rep.passed(), X.id


def test_catalog_ranks():
    for name, expected in (("attacking", 15), ("landing", 15), ("g2", 14)):
        fields = catalogs.catalog(name)
        assert symmetry.catalog_rank(fields, _pts(104 + expected, 12)) == expected


@pytest.mark.parametrize("name,model", [
    ("attacking", "sl4"), ("landing", "su22"), ("g2", "g2-split")])
def test_structure_constants_and_killing_signature(name, model):
    fields = catalogs.catalog(name)
    sc = symmetry.extract_structure_constants(fields, _pts(41, 12))
    assert sc.misfit < 1e-8
    diag = symmetry.killing_diagnostics(sc)
    assert diag.jacobi < 1e-6
    ref = symmetry.reference_model(model)
    assert diag.signature == ref.killing_signature
    assert sc.dimension == ref.dimension


def test_structure_constants_stable_across_point_sets():
    fields = catalogs.catalog("g2")
    sc1 = symmetry.extract_structure_constants(fields, _pts(7, 12))
    sc2 = symmetry.extract_structure_constants(fields, _pts(8, 12))
    assert np.max(np.abs(sc1.c - sc2.c)) < 1e-7


def _matrix_rank(A):
    return int(np.linalg.matrix_rank(A, tol=symmetry.RANK_TOL * np.linalg.norm(A)))


def test_structure_rank_is_the_matrix_rank():
    # the rank is read off the least-squares solve's singular values; a
    # repeated field makes the stack rank-deficient
    for name, dim in (("attacking", 15), ("landing", 15), ("g2", 14)):
        catalog = catalogs.catalog(name)
        for fields in (catalog, FieldStack.of(*catalog, catalog[0])):
            for seed in (1, 2, 3):
                pts = _pts(seed)
                sc = symmetry.extract_structure_constants(fields, pts)
                A = symmetry._stacked_columns(fields.values(pts))
                assert sc.rank == _matrix_rank(A) == dim, (name, len(fields), seed)
    builders = {"sl4": symmetry.sl4_basis, "su22": symmetry.su22_basis,
                "g2-split": symmetry.split_g2_basis}
    for name, build in builders.items():
        basis = build()
        sc = symmetry.matrix_structure_constants(basis)
        flat = np.stack([np.concatenate([np.real(M).ravel(), np.imag(M).ravel()])
                         if np.iscomplexobj(M) else M.ravel() for M in basis], axis=1)
        assert sc.rank == _matrix_rank(flat) == len(basis), name


def test_reference_models_verify_their_own_signatures():
    builders = {"sl4": symmetry.sl4_basis, "su22": symmetry.su22_basis,
                "g2-split": symmetry.split_g2_basis}
    expected = {"sl4": (9, 6, 0), "su22": (8, 7, 0), "g2-split": (8, 6, 0)}
    for name, build in builders.items():
        sc = symmetry.matrix_structure_constants(build())
        assert sc.misfit < 1e-8, name
        diag = symmetry.killing_diagnostics(sc)
        assert diag.signature == expected[name], name
        assert diag.jacobi < 1e-8
        ref = symmetry.reference_model(name)
        assert ref.killing_signature == expected[name]
        assert ref.dimension == len(build())


def test_octonion_algebra_backs_the_g2_model():
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        # alternative: u(uv) = (uu)v
        lhs = symmetry.octonion_product(u, symmetry.octonion_product(u, v))
        rhs = symmetry.octonion_product(symmetry.octonion_product(u, u), v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        # split norm is multiplicative
        nuv = symmetry.octonion_norm(symmetry.octonion_product(u, v))
        assert abs(nuv - symmetry.octonion_norm(u) * symmetry.octonion_norm(v)) < 1e-8


def test_split_g2_basis_is_a_derivation_algebra():
    basis = symmetry.split_g2_basis()
    assert len(basis) == 14
    rng = np.random.default_rng(4)
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    for D in basis[:5]:
        lhs = D @ symmetry.octonion_product(u, v)
        rhs = (symmetry.octonion_product(D @ u, v)
               + symmetry.octonion_product(u, D @ v))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def _derivation_system_reference(T):
    """The derivation system built entry by entry, as it was first written."""
    A = np.zeros((8 * 8 * 8, 64))
    row = 0
    for i in range(8):
        for j in range(8):
            for comp in range(8):
                for s in range(8):
                    A[row, comp * 8 + s] += T[i, j, s]
                for r in range(8):
                    A[row, r * 8 + i] -= T[r, j, comp]
                    A[row, r * 8 + j] -= T[i, r, comp]
                row += 1
    return A


def test_derivation_system_equals_the_hand_indexed_one():
    T = symmetry._octonion_table()
    np.testing.assert_array_equal(symmetry._derivation_system(T),
                                  _derivation_system_reference(T))


def test_attacking_exact_and_homothety_split():
    fields = catalogs.catalog("attacking")
    pts = _pts(55, 6)
    for i in catalogs.ATTACKING_EXACT + catalogs.ATTACKING_HOMOTHETY:
        X = fields[i]
        rep = symmetry.legendrean_symmetry_residual(X, ATTACKING_METRIC_FIELD, pts)
        assert rep.passed()


def test_negative_control_fields_fail():
    pts = _pts(77, 6)
    # d/da breaks the contact form
    da = constant_field("d-a", [0.0, 0.0, 0.0, 1.0, 0.0])
    rep = symmetry.g2_symmetry_residual(da, pts)
    assert rep.contact > 1e-2
    # the Euler field preserves contact directions but scales the quartic
    # inhomogeneously only if built badly; check a genuinely broken field.
    bad = constant_field("skew", [1.0, 0.0, 0.0, 0.0, 2.0])
    rep2 = symmetry.g2_symmetry_residual(bad, pts)
    assert max(rep2.contact, rep2.membership) > 1e-3


def test_constants_reproduce_brackets_at_fresh_points():
    from saucer.forms import bracket

    fields = catalogs.catalog("attacking")
    sc = symmetry.extract_structure_constants(fields, _pts(21, 12))
    for p in _pts(22, 4):
        vals = np.stack([X.value(p) for X in fields], axis=1)
        for i, j in itertools.islice(itertools.combinations(range(15), 2), 12):
            np.testing.assert_allclose(
                bracket(fields[i], fields[j], p), vals @ sc.c[i, j], atol=1e-7)


# -- oracle for the membership residual ----------------------------------------
#
# The package tests membership by restriction to D = ker w0. The oracle below
# is the direct statement: least-squares distance of L_X S from
# span{S, w0 . e_I} with e_I running over a basis of Sym^(k-1) covectors.

def _sym_outer(*covectors):
    T = covectors[0]
    for c in covectors[1:]:
        T = np.multiply.outer(T, c)
    perms = list(itertools.permutations(range(T.ndim)))
    return sum(np.transpose(T, perm) for perm in perms) / len(perms)


def _ideal_columns(rank, p):
    w = contact_covector(p)
    eye = np.eye(5)
    return [_sym_outer(w, *(eye[i] for i in idx)).ravel()
            for idx in itertools.combinations_with_replacement(range(5), rank - 1)]


def _lstsq_membership(X, S, p, ideal):
    lie = lie_derivative_stack(X.value(p)[None], X.jacobian(p)[None],
                               S.value(p)[None], S.point_derivative(p)[None])[0].ravel()
    A = np.stack([S.value(p).ravel()] + ideal, axis=1)
    coef, *_ = np.linalg.lstsq(A, lie, rcond=None)
    return (float(np.linalg.norm(A @ coef - lie))
            / (float(np.linalg.norm(S.value(p))) + float(np.linalg.norm(lie))))


_EULER_SCALE = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
_EULER = VectorField("euler", lambda p: p * _EULER_SCALE)


@pytest.mark.parametrize("fields,structure,expect_symmetric", [
    ("attacking", ATTACKING_METRIC_FIELD, True),
    ("landing", LANDING_METRIC_FIELD, True),
    ("g2", QUARTIC_FIELD, True),
    ("attacking", LANDING_METRIC_FIELD, False),
    ("landing", ATTACKING_METRIC_FIELD, False),
    ("attacking", QUARTIC_FIELD, False),
    ("euler", QUARTIC_FIELD, False),
])
def test_restricted_membership_matches_lstsq_oracle(fields, structure, expect_symmetric):
    tol = 1e-7
    pts = sample_vectors(6, 5, 5, "test.oracle")
    ideal = [_ideal_columns(structure.value(p).ndim, p) for p in pts]
    catalog = FieldStack.of(_EULER) if fields == "euler" else catalogs.catalog(fields)
    at_points = [symmetry.catalog_symmetry_reports(catalog, structure, p) for p in pts]
    overall = symmetry.catalog_symmetry_reports(catalog, structure, pts)
    for i, X in enumerate(catalog):
        old = np.array([_lstsq_membership(X, structure, p, cols)
                        for p, cols in zip(pts, ideal)])
        new = np.array([reports[i].membership for reports in at_points])
        np.testing.assert_array_equal(old <= tol, new <= tol, err_msg=X.id)
        if expect_symmetric:
            assert new.max() <= tol, X.id
        elif new.max() > tol:
            assert overall[i].contact <= tol, X.id
            assert old.max() > 4e-2 and new.max() > 4e-2, X.id
        assert overall[i].membership == pytest.approx(new.max()), X.id


def test_report_names_its_worst_sample():
    pts = _pts(61, 8)
    X = catalogs.catalog("landing")[0]
    rep = symmetry.legendrean_symmetry_residual(X, LANDING_METRIC_FIELD, pts)
    k = [tuple(p) for p in pts].index(rep.worst_point)
    at_k = symmetry.legendrean_symmetry_residual(X, LANDING_METRIC_FIELD, pts[k])
    worst = max(at_k.contact, at_k.membership)
    assert worst == pytest.approx(max(rep.contact, rep.membership))


# -- restricted-first membership against the full-tensor route ------------------
#
# The package builds L_X S restricted to D directly. The oracle below builds
# the full chart tensor L_X S (5^k components) with `lie_derivative_stack`,
# one field at a time, and restricts it and S to D afterwards.

def _restrict_fully(T, frames):
    for _ in range(T.ndim - 1):
        T = np.einsum("zi...,zia->z...a", T, frames)
    return T


def _full_tensor_membership(X, S, pts):
    frames = np.stack([E.value(pts) for E in E_FRAME], axis=-1)
    lie = lie_derivative_stack(X.value(pts), X.jacobian(pts), S.value(pts),
                               S.point_derivative(pts))
    lie = _restrict_fully(lie, frames).reshape(len(pts), -1)
    s = _restrict_fully(S.value(pts), frames).reshape(len(pts), -1)
    coef = np.einsum("zi,zi->z", lie, s) / np.einsum("zi,zi->z", s, s)
    mis = np.linalg.norm(lie - coef[:, None] * s, axis=1)
    return mis / (np.linalg.norm(s, axis=1) + np.linalg.norm(lie, axis=1))


def _deformed(S):
    """S + 0.3 y (dx)^k: a structure the catalogs mostly do not preserve."""
    def value(p):
        T = S.value_fn(p)
        k = T.ndim - p.ndim + 1
        dxk = np.zeros((5,) * k)
        dxk[(0,) * k] = 1.0
        return T + 0.3 * p[..., 1].reshape(p.shape[:-1] + (1,) * k) * dxk

    return SymTensorField(f"{S.name}+0.3y(dx)^k", value)


_DA = constant_field("d-a", [0.0, 0.0, 0.0, 1.0, 0.0])

_MEMBERSHIP_CASES = {
    "attacking": ("attacking", ATTACKING_METRIC_FIELD),
    "landing": ("landing", LANDING_METRIC_FIELD),
    "quartic": ("g2", QUARTIC_FIELD),
    "da": (FieldStack.of(_DA), ATTACKING_METRIC_FIELD),
    "da-quartic": (FieldStack.of(_DA), QUARTIC_FIELD),
    "euler": (FieldStack.of(_EULER), QUARTIC_FIELD),
    "deformed-attacking": ("attacking", _deformed(ATTACKING_METRIC_FIELD)),
    "deformed-landing": ("landing", _deformed(LANDING_METRIC_FIELD)),
    "deformed-quartic": ("g2", _deformed(QUARTIC_FIELD)),
}


@pytest.mark.parametrize("case", sorted(_MEMBERSHIP_CASES))
def test_restricted_first_membership_matches_the_full_tensor_route(case):
    fields, S = _MEMBERSHIP_CASES[case]
    fields = catalogs.catalog(fields) if isinstance(fields, str) else fields
    pts = sample_vectors(12, 5, 9, f"test.full-tensor.{case}")
    V, J = fields.values(pts), fields.jacobians(pts)
    got = symmetry._membership_residuals(V, J, S, pts)
    assert got.shape == (12, len(fields))
    for i, X in enumerate(fields):
        np.testing.assert_allclose(got[:, i], _full_tensor_membership(X, S, pts),
                                   rtol=0, atol=1e-14, err_msg=X.id)
    worst = got.max(axis=0)
    if case in ("attacking", "landing", "quartic", "da", "da-quartic"):
        assert worst.max() < 1e-13
    elif case == "euler":
        assert worst[0] > 1e-3
    else:
        assert np.count_nonzero(worst > 5e-2) >= 10, worst
    if case.startswith("da"):
        # d/da fails through the contact condition
        assert np.min(symmetry._contact_residuals(V, J, pts)) > 1e-2


@pytest.mark.parametrize("name,S", [
    ("attacking", ATTACKING_METRIC_FIELD), ("landing", LANDING_METRIC_FIELD),
    ("g2", QUARTIC_FIELD), ("landing", QUARTIC_FIELD)])
def test_catalog_reports_equal_the_per_field_reports(name, S):
    fields = catalogs.catalog(name)
    pts = sample_vectors(12, 5, 3, f"test.reports.{name}")
    reports = symmetry.catalog_symmetry_reports(fields, S, pts)
    assert len(reports) == len(fields)
    for X, rep in zip(fields, reports):
        assert rep == symmetry.legendrean_symmetry_residual(X, S, pts), X.id
    # the fields stacked one by one give the same bits
    assert symmetry.catalog_symmetry_reports(FieldStack.of(*fields), S, pts) == reports
    if S is QUARTIC_FIELD and name == "g2":
        assert reports == [symmetry.g2_symmetry_residual(X, pts) for X in fields]


def test_one_field_stack_has_trivial_structure_constants():
    # no bracket pairs: an empty right-hand side, not a reshape error
    X = catalogs.catalog("attacking")[0]
    sc = symmetry.extract_structure_constants(FieldStack.of(X), sample_vectors(10, 5, 1, "x"))
    np.testing.assert_array_equal(sc.c, np.zeros((1, 1, 1)))
    assert sc.misfit == 0.0 and sc.rank == 1
    assert symmetry.killing_diagnostics(sc).jacobi == 0.0


@pytest.mark.parametrize("value", [np.nan, 1e200])
def test_non_finite_points_give_failing_certificates(value, capfd):
    # NaN points, and points whose field values overflow, fail the
    # certificate instead of raising LinAlgError from LAPACK
    pts = np.full((3, 5), value)
    for name in ("attacking", "landing", "g2"):
        fields = catalogs.catalog(name)
        with np.errstate(all="ignore"):
            sc = symmetry.extract_structure_constants(fields, pts)
            rank = symmetry.catalog_rank(fields, pts)
        assert sc.rank == 0 and sc.misfit == np.inf and rank == 0, name
        np.testing.assert_array_equal(sc.c, np.zeros((len(fields),) * 3))
    assert "DLASCL" not in capfd.readouterr().err


def _jacobi_residual_one_shot(c):
    """The cyclic Jacobi sum as one full-size expression."""
    P = np.tensordot(c, c, axes=(2, 0))
    total = P + P.transpose(2, 0, 1, 3) + P.transpose(1, 2, 0, 3)
    return float(np.max(np.abs(total)))


def test_jacobi_residual_equals_the_one_shot_sum():
    for name in ("attacking", "landing", "g2"):
        fields = catalogs.catalog(name)
        for seed in range(1, 51):
            c = symmetry.extract_structure_constants(fields, _pts(seed)).c
            assert symmetry.jacobi_residual(c) == _jacobi_residual_one_shot(c), (name, seed)
    # constants of no algebra: an O(1) residual, so a misplaced slab shows
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 14, 15):
        c = rng.standard_normal((n, n, n))
        c = c - c.transpose(1, 0, 2)
        want = _jacobi_residual_one_shot(c)
        assert symmetry.jacobi_residual(c) == want and (n < 3 or want > 0.1), n

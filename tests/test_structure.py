"""Paracomplex/complex structure operators and infinitesimal stabilizers."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import structure
from saucer.maneuvers import attacking_metric, invariant_two_form_dist, landing_metric

coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


def _point(a, b):
    return np.array([0.1, -0.2, 0.3, a, b])


def test_attacking_k_is_the_split_diagonal():
    K = structure.attacking_k_operator()
    np.testing.assert_array_equal(K.matrix, np.diag([1.0, 1.0, -1.0, -1.0]))
    assert K.sign == 1
    assert K.square_scalar == 1.0


def test_attacking_eigenbundles_are_null_and_lagrangean():
    K = structure.attacking_k_operator()
    plus, minus = structure.eigen_split(K)
    assert plus.shape == (4, 2) and minus.shape == (4, 2)
    p = np.zeros(5)
    g = attacking_metric(p)
    w = invariant_two_form_dist(p)
    for E in (plus, minus):
        assert np.max(np.abs(E.T @ g @ E)) < 1e-10
        assert np.max(np.abs(E.T @ w @ E)) < 1e-10


@given(coord, coord)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_landing_square_is_the_conformal_scalar(a, b):
    KL = structure.landing_k_operator(_point(a, b))
    assert KL.sign == -1
    expected = -1.0 / (1.0 + a * a + b * b)
    assert abs(KL.square_scalar - expected) <= 1e-9 * abs(expected)
    n = KL.matrix.shape[0]
    np.testing.assert_allclose(KL.matrix @ KL.matrix, -np.eye(n), atol=1e-9)


@given(coord, coord)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_landing_orientation_follows_z1(a, b):
    p = _point(a, b)
    KL = structure.landing_k_operator(p)
    Z1, Z2 = structure.landing_frame_z(p)
    assert np.linalg.norm(KL.matrix @ Z1 - 1j * Z1) < 1e-9 * np.linalg.norm(Z1)
    assert np.linalg.norm(KL.matrix @ Z2 - 1j * Z2) < 1e-9 * np.linalg.norm(Z2)


def test_generic_pair_is_rejected():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4))
    g = M + M.T + 8 * np.eye(4)
    A = rng.normal(size=(4, 4))
    w = A - A.T
    with pytest.raises(structure.NotScalarSquare):
        structure.k_operator(g, w)


@given(coord, coord)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_levi_signature_is_split(a, b):
    L = structure.levi_form(_point(a, b))
    assert L.signature == (1, 1)
    np.testing.assert_allclose(L.matrix, L.matrix.conj().T, atol=1e-12)


def test_levi_pinned_values():
    L0 = structure.levi_form(np.zeros(5))
    assert abs(L0.c_value - 2.0) < 1e-12
    L1 = structure.levi_form(_point(1.0, 1.0))
    assert abs(L1.c_value - (6.0 + 2j * np.sqrt(3.0))) < 1e-10


def test_attacking_pair_stabilizer_is_five_dimensional():
    sol = structure.solve_infinitesimal_stabilizer(structure.attacking_pair_e())
    assert sol.dimension == 5
    assert sol.residual < 1e-10
    for Y in structure.STABILIZER_BASIS:
        assert sol.contains(Y)


def test_quartic_pair_stabilizer_is_four_dimensional():
    sol = structure.solve_infinitesimal_stabilizer(structure.quartic_mode_pair())
    assert sol.dimension == 4
    assert sol.residual < 1e-10


def test_two_form_alone_gives_symplectic_plus_scale():
    _, W = structure.quartic_mode_pair()
    sol = structure.solve_infinitesimal_stabilizer([W])
    assert sol.dimension == 11  # sp(4) plus the conformal direction


def test_stabilizer_commutation_table():
    worst = structure.verify_commutation_table(
        structure.STABILIZER_BASIS, structure.STABILIZER_TABLE)
    assert worst < 1e-10


def test_stabilizer_scales_annihilate_central_elements():
    Y4, Y5 = structure.STABILIZER_BASIS[3], structure.STABILIZER_BASIS[4]
    G, W = structure.attacking_pair_e()
    for Y in (Y4, Y5):
        # Leibniz action of Y on each tensor is a pure scale.
        LG = Y.T @ G + G @ Y
        LW = Y.T @ W + W @ Y
        for L, S in ((LG, G), (LW, W)):
            mask = np.abs(S) > 0
            ratios = L[mask] / S[mask]
            assert np.ptp(ratios) < 1e-12
            assert np.max(np.abs(L[~mask])) < 1e-12


def test_stabilizer_rejects_empty_input():
    with pytest.raises(ValueError):
        structure.solve_infinitesimal_stabilizer([])

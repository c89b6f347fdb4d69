"""Paracomplex/complex structure operators and infinitesimal stabilizers."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer import structure
from saucer.maneuvers import attacking_metric, invariant_two_form_dist, landing_metric
from saucer.sampling import sample_vectors

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


def _generic_pair():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4))
    g = M + M.T + 8 * np.eye(4)
    A = rng.normal(size=(4, 4))
    return g, A - A.T


def test_generic_pair_is_rejected():
    g, w = _generic_pair()
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


# -- stacked inputs ----------------------------------------------------------

def _stack_points():
    return sample_vectors(50, 5, 3, "test.structure-stack")


def test_stacked_landing_frame_equals_pointwise():
    pts = _stack_points()
    Z1, Z2 = structure.landing_frame_z(pts)
    for p, z1, z2 in zip(pts, Z1, Z2):
        one1, one2 = structure.landing_frame_z(p)
        np.testing.assert_array_equal(z1, one1)
        np.testing.assert_array_equal(z2, one2)


def test_stacked_landing_k_operator_equals_pointwise():
    pts = _stack_points()
    K = structure.landing_k_operator(pts)
    assert K.matrix.shape == (50, 4, 4)
    for p, matrix, scalar, sign in zip(pts, K.matrix, K.square_scalar, K.sign):
        one = structure.landing_k_operator(p)
        assert isinstance(one.square_scalar, float) and isinstance(one.sign, int)
        np.testing.assert_array_equal(matrix, one.matrix)
        assert scalar == one.square_scalar
        assert sign == one.sign


def test_stacked_levi_form_equals_pointwise():
    pts = _stack_points()
    L = structure.levi_form(pts)
    assert L.signature.shape == (50, 2)
    for p, matrix, c, signature in zip(pts, L.matrix, L.c_value, L.signature):
        one = structure.levi_form(p)
        assert isinstance(one.c_value, complex) and isinstance(one.signature, tuple)
        np.testing.assert_array_equal(matrix, one.matrix)
        assert c == one.c_value
        assert tuple(signature) == one.signature


def test_stack_with_a_generic_pair_is_rejected():
    pts = _stack_points()[:5]
    g = landing_metric(pts)
    w = invariant_two_form_dist(pts)
    assert structure.k_operator(g, w).matrix.shape == (5, 4, 4)
    g[2], w[2] = _generic_pair()
    with pytest.raises(structure.NotScalarSquare):
        structure.k_operator(g, w)


# -- the Leibniz-built stabilizer system against the hand-indexed one ----------

def _rank2_rows_reference(S, t_index, n_tensors):
    n = S.shape[0]
    A = np.zeros((n * n, n * n + n_tensors))
    for k in range(n):
        for l in range(n):
            row = k * n + l
            for m in range(n):
                A[row, m * n + k] += S[m, l]
                A[row, m * n + l] += S[k, m]
            A[row, n * n + t_index] = -S[k, l]
    return A


def _rank4_rows_reference(S, t_index, n_tensors):
    n = S.shape[0]
    A = np.zeros((n ** 4, n * n + n_tensors))
    for idx in itertools.product(range(n), repeat=4):
        row = ((idx[0] * n + idx[1]) * n + idx[2]) * n + idx[3]
        for slot in range(4):
            for m in range(n):
                jdx = list(idx)
                jdx[slot] = m
                A[row, m * n + idx[slot]] += S[tuple(jdx)]
        A[row, n * n + t_index] = -S[idx]
    return A


@pytest.mark.parametrize("tensors", [
    structure.attacking_pair_e(), structure.quartic_mode_pair(),
    structure.quartic_mode_pair()[1:]], ids=["attacking", "quartic", "omega"])
def test_stabilizer_blocks_equal_the_hand_indexed_ones(tensors):
    for t, S in enumerate(tensors):
        reference = _rank2_rows_reference if S.ndim == 2 else _rank4_rows_reference
        np.testing.assert_array_equal(structure._stabilizer_rows(S, t, len(tensors)),
                                      reference(S, t, len(tensors)))

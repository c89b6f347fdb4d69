"""Chart <-> ambient conversions and the contact nondegeneracy constant."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saucer.chart import (E_FRAME, Z_FRAME, AmbientConfig, OutsideChart,
                          ambient_from_chart, ambient_nondegeneracy_pair,
                          chart_from_ambient, contact_covector,
                          contact_nondegeneracy, normal_scale, point)
from saucer.sampling import sample_vectors

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def test_point_builds_float_array():
    p = point(0.1, 0.2, 0.3, 0.4, 0.5)
    assert p.shape == (5,) and p.dtype == float


def test_contact_covector_components():
    p = point(1.0, 2.0, 3.0, 0.5, -0.25)
    np.testing.assert_allclose(contact_covector(p), [-0.5, 0.25, 1.0, 0.0, 0.0])


@given(coord, coord, coord, coord, coord)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_chart_ambient_roundtrip(x, y, z, a, b):
    p = point(x, y, z, a, b)
    back = chart_from_ambient(ambient_from_chart(p))
    np.testing.assert_allclose(back, p, atol=1e-12)


def test_ambient_normal_is_unit():
    for p in sample_vectors(20, 5, label="test.unit"):
        cfg = ambient_from_chart(p)
        assert abs(np.linalg.norm(cfg.n) - 1.0) < 1e-12
        assert cfg.n[2] > 0.0


def test_vertical_normal_is_chart_origin_in_ab():
    cfg = AmbientConfig(r=np.array([1.0, -2.0, 0.5]), n=np.array([0.0, 0.0, 1.0]))
    p = chart_from_ambient(cfg)
    np.testing.assert_allclose(p, [1.0, -2.0, 0.5, 0.0, 0.0], atol=1e-15)


def test_equatorial_and_lower_normals_rejected():
    for n in ([1.0, 0.0, 0.0], [0.0, 0.6, -0.8]):
        with pytest.raises(OutsideChart):
            chart_from_ambient(AmbientConfig(r=np.zeros(3), n=np.array(n)))


def test_normal_scale():
    p = point(0.0, 0.0, 0.0, 3.0, 4.0)
    assert abs(normal_scale(p) - np.sqrt(26.0)) < 1e-14


def test_contact_constant_is_two():
    pts = sample_vectors(100, 5, label="test.contact")
    worst = max(abs(contact_nondegeneracy(p) - 2.0) for p in pts)
    assert worst < 1e-9


def test_ambient_triple_product_matches_chart_route():
    for p in sample_vectors(25, 5, label="test.ambient3"):
        lhs, rhs = ambient_nondegeneracy_pair(p)
        assert abs(lhs - rhs) < 1e-7


def test_frames_annihilated_by_contact_form():
    for p in sample_vectors(30, 5, label="test.frames"):
        for X in (*E_FRAME, *Z_FRAME):
            assert abs(contact_covector(p) @ X.value(p)) < 1e-14


def test_frame_vectors_span_distribution():
    p = point(0.4, -0.3, 0.9, 1.1, -0.7)
    A = np.stack([X.value(p) for X in E_FRAME], axis=1)
    assert np.linalg.matrix_rank(A) == 4


def test_stacked_contact_certificates_equal_pointwise_calls():
    pts = sample_vectors(40, 5, label="test.stacked-contact")
    values = contact_nondegeneracy(pts)
    np.testing.assert_array_equal(values, [contact_nondegeneracy(p) for p in pts])
    assert np.max(np.abs(values - 2.0)) <= 1e-14
    lhs, rhs = ambient_nondegeneracy_pair(pts)
    pairs = np.array([ambient_nondegeneracy_pair(p) for p in pts])
    np.testing.assert_allclose(lhs, pairs[:, 0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(rhs, pairs[:, 1], rtol=1e-13, atol=1e-15)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_stacked_ambient_roundtrip():
    pts = sample_vectors(40, 5, label="test.stacked-ambient")
    cfg = ambient_from_chart(pts)
    assert cfg.n.shape == (40, 3)
    np.testing.assert_allclose(np.linalg.norm(cfg.n, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(chart_from_ambient(cfg), pts, atol=1e-12)
    with pytest.raises(OutsideChart):
        chart_from_ambient(AmbientConfig(r=np.zeros((2, 3)),
                                         n=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])))


def _frame_field_jacobian(x_comp, y_comp, p):
    """The closed-form Jacobian of a distribution field: only dz/da and dz/db vary."""
    J = np.zeros(p.shape + (5,))
    J[..., 2, 3] = x_comp
    J[..., 2, 4] = y_comp
    return J


def test_frame_jacobians_match_the_closed_form():
    pts = sample_vectors(30, 5, label="test.frame-jacobians")
    for X in (*E_FRAME, *Z_FRAME):
        x_comp, y_comp = X.value(np.zeros(5))[:2]
        np.testing.assert_allclose(X.jacobian(pts), _frame_field_jacobian(x_comp, y_comp, pts),
                                   rtol=0.0, atol=1e-14, err_msg=X.id)
        np.testing.assert_array_equal(X.jacobian(pts), [X.jacobian(p) for p in pts])

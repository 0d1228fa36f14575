import numpy as np
import pytest

from hbdsim.errors import ValidityBreach
from hbdsim.foliation import (
    AffineRelabeled,
    ConstantNormal,
    FlatTime,
    GraphLeaf,
    RippleProfile,
    TanhProfile,
    frobenius_residual,
    twisted_field,
)
from hbdsim.geometry import minkowski_dot


def tanh_leaf(a=0.5, b=1.2, box=((-8.0, 8.0),), sd=1):
    return GraphLeaf(TanhProfile(a, b), validity_box=box, spatial_dims=sd)


def test_flat_labels():
    fol = FlatTime(spatial_dims=3)
    assert fol.label(np.array([3.5, 1.0, 0, 0])) == 3.5


def test_constant_normal_reduces_to_flat_bitwise(rng):
    # FlatTime is ConstantNormal at e0; pin it to the equal-time formulas
    for sd in (1, 3):
        fol = FlatTime(sd)
        x = rng.normal(size=(20, 4))
        v = rng.normal(size=(20, 4))
        e0 = np.tile([1.0, 0.0, 0.0, 0.0], (20, 1))
        assert np.array_equal(fol.label(x), x[:, 0])
        assert np.array_equal(fol.gradient(x), e0)
        assert np.array_equal(fol.normal(x), e0)
        assert np.array_equal(fol.chart_coords(x), x[:, 1:1 + sd])
        assert np.array_equal(fol.chart_velocity(x, v), v[:, 1:1 + sd])
        xi = rng.normal(size=(20, sd))
        for s in (rng.normal(), rng.normal(size=20)):
            expected = np.zeros((20, 4))
            expected[:, 0] = s
            expected[:, 1:1 + sd] = xi
            assert np.array_equal(fol.leaf_point(s, xi), expected)
            assert np.array_equal(fol.area_element(s, xi), np.ones(20))


def test_graph_label_example():
    a, b = 0.37, 1.9
    fol = tanh_leaf(a, b)
    x = np.array([a * np.tanh(b * 1.0) + 2.0, 1.0, 0, 0])
    assert abs(fol.label(x) - 2.0) < 1e-14


def test_flat_normal_everywhere():
    fol = FlatTime(spatial_dims=1)
    x = np.zeros((5, 4))
    assert np.array_equal(fol.normal(x), np.tile([1.0, 0, 0, 0], (5, 1)))


def test_graph_normal_value():
    # h'(0) = a b = 0.6 -> n = (1, 0.6)/sqrt(1 - 0.36) = (1.25, 0.75)
    fol = tanh_leaf(0.6, 1.0)
    n = fol.normal(fol.leaf_point(0.0, np.array([0.0]))[None])[0]
    assert np.allclose(n, [1.25, 0.75, 0, 0], atol=1e-14)


def test_graph_constant_profile_normal():
    fol = GraphLeaf(TanhProfile(0.4, 1.0), validity_box=[[-5, 5]],
                    spatial_dims=1)
    # far in the tail the gradient is ~0 and the normal ~ (1, 0)
    n = fol.normal(fol.leaf_point(0.0, np.array([200.0]))[None])[0]
    assert np.allclose(n, [1, 0, 0, 0], atol=1e-12)


def test_normal_unit_and_future(rng):
    for fol in (tanh_leaf(0.9, 0.7), FlatTime(1),
                ConstantNormal([np.cosh(0.5), np.sinh(0.5), 0, 0], 1),
                GraphLeaf(RippleProfile(0.5, 1.3, 4.0),
                          validity_box=[[-10, 10]], spatial_dims=1)):
        xi = rng.uniform(-5, 5, size=(50, 1))
        s = rng.uniform(-2, 2, size=50)
        x = fol.leaf_point(s, xi)
        n = fol.normal(x)
        assert np.max(np.abs(minkowski_dot(n, n) - 1.0)) < 1e-12
        assert np.all(n[:, 0] > 0)


def test_label_of_leaf_point(rng):
    for fol in (tanh_leaf(), FlatTime(1),
                ConstantNormal([np.cosh(0.8), np.sinh(0.8), 0, 0], 1)):
        s = rng.uniform(-3, 3, size=40)
        xi = rng.uniform(-4, 4, size=(40, 1))
        labels = fol.label(fol.leaf_point(s, xi))
        assert np.max(np.abs(labels - s)) < 1e-12


def test_chart_roundtrip(rng):
    for fol in (tanh_leaf(), ConstantNormal([np.cosh(0.6), 0, np.sinh(0.6), 0],
                                            spatial_dims=3)):
        sd = fol.spatial_dims
        s = rng.uniform(-2, 2, size=15)
        xi = rng.uniform(-3, 3, size=(15, sd))
        back = fol.chart_coords(fol.leaf_point(s, xi))
        assert np.max(np.abs(back - xi)) < 1e-12


def test_leaf_point_broadcasts_over_configurations(rng):
    # leaf_point on (M, N, sd) chart tuples equals the per-particle stack
    # bitwise, for a scalar label and for one label per configuration
    ripple = GraphLeaf(RippleProfile(0.5, 1.3, 4.0), validity_box=[[-10, 10]],
                       spatial_dims=1)
    for fol in (FlatTime(1), FlatTime(3),
                ConstantNormal([np.cosh(0.5), np.sinh(0.5), 0, 0], 1),
                ConstantNormal([np.cosh(0.6), 0.3, np.sinh(0.6), 0.2], 3),
                tanh_leaf(), tanh_leaf(box=((-8.0, 8.0),) * 3, sd=3), ripple,
                AffineRelabeled(ripple, 1.7, -0.3)):
        xi = rng.uniform(-3, 3, size=(7, 3, fol.spatial_dims))
        s = rng.uniform(-2, 2, size=7)
        for s_all, s_row in ((s[0], s[0]), (s[:, None], s)):
            stacked = np.stack([fol.leaf_point(s_row, xi[:, k])
                                for k in range(3)], axis=1)
            assert np.array_equal(fol.leaf_point(s_all, xi), stacked)


def test_constant_normal_leaf_orthogonality():
    eta = 0.85
    n = [np.cosh(eta), np.sinh(eta), 0, 0]
    fol = ConstantNormal(n, spatial_dims=3)
    xi = np.array([[1.3, -0.4, 2.0]])
    x = fol.leaf_point(0.0, xi)[0]
    assert abs(minkowski_dot(np.array(n), x)) < 1e-12


def test_constant_normal_validation():
    with pytest.raises(ValueError):
        ConstantNormal([0.5, 1.0, 0, 0], 1)       # spacelike
    with pytest.raises(ValueError):
        ConstantNormal([-1.0, 0, 0, 0], 1)        # past-oriented


def test_area_element_values():
    flat = FlatTime(spatial_dims=1)
    assert flat.area_element(0.0, np.zeros((3, 1))).tolist() == [1, 1, 1]
    fol = tanh_leaf(0.6, 1.0)
    # h' = 0.6 at xi = 0 -> sqrt(1 - 0.36) = 0.8
    assert abs(fol.area_element(0.0, np.array([0.0])) - 0.8) < 1e-14
    # far out h' ~ 0 -> 1
    assert abs(fol.area_element(0.0, np.array([50.0])) - 1.0) < 1e-12


def test_area_element_breach():
    fol = GraphLeaf(TanhProfile(2.0, 1.0), validity_box=[[-5, 5]],
                    spatial_dims=1)
    with pytest.raises(ValidityBreach):
        fol.area_element(0.0, np.array([0.0]))


def test_validity_scan_margins():
    assert FlatTime(1).validity_scan(11).margin == 1.0
    rep = tanh_leaf(0.5, 1.0).validity_scan(501)
    assert abs(rep.margin - 0.75) < 1e-3          # 1 - (ab)^2 at xi = 0
    assert rep.passed
    bad = GraphLeaf(TanhProfile(1.2, 1.0), validity_box=[[-5, 5]],
                    spatial_dims=1).validity_scan(501)
    assert not bad.passed


def test_relabeled_foliation():
    fol = tanh_leaf(0.5, 0.8)
    re = fol.relabeled(2.0, 0.5)
    assert isinstance(re, AffineRelabeled)
    x = fol.leaf_point(1.0, np.array([0.3]))
    assert abs(re.label(x) - 2.5) < 1e-14
    assert np.array_equal(re.leaf_point(2.5, np.array([0.3])), x)
    n1 = fol.normal(x[None])
    n2 = re.normal(x[None])
    assert np.max(np.abs(n1 - n2)) < 1e-14
    with pytest.raises(ValueError):
        fol.relabeled(-1.0, 0.0)


def test_contains_spatial():
    fol = tanh_leaf(box=((-2.0, 2.0),))
    inside = fol.leaf_point(0.0, np.array([[0.5], [-1.9]]))
    outside = fol.leaf_point(0.0, np.array([[2.5]]))
    assert np.all(fol.contains_spatial(inside))
    assert not fol.contains_spatial(outside)[0]
    assert np.all(FlatTime(1).contains_spatial(outside))


def test_frobenius_gradient_fields_vanish():
    for fol in (FlatTime(1), tanh_leaf(0.9, 0.7),
                GraphLeaf(RippleProfile(0.5, 1.3, 4.0),
                          validity_box=[[-10, 10]], spatial_dims=1),
                ConstantNormal([np.cosh(0.4), np.sinh(0.4), 0, 0], 1)):
        x = np.array([0.3, 0.8, 0.0, 0.0])
        r1 = frobenius_residual(fol.gradient, x, 2e-3)
        r2 = frobenius_residual(fol.gradient, x, 1e-3)
        assert r1 < 1e-4
        # exact forms: residual is pure O(h^2) differencing error
        assert r2 < max(0.35 * r1, 1e-12)


def scaled_two_ridge_gradient(x):
    # g(x) * grad f for f = x0 - 0.4 tanh(0.7 x1 + 0.3 x2)
    #                        - 0.2 sin(0.4 x2 + 0.3 x3):
    # hypersurface-orthogonal by construction; the mixed second derivatives
    # keep the discretized wedge genuinely nonzero, unlike the built-in
    # single-coordinate graph profiles whose wedge vanishes identically
    x = np.asarray(x, dtype=float)
    u = 0.7 * x[..., 1] + 0.3 * x[..., 2]
    v = 0.4 * x[..., 2] + 0.3 * x[..., 3]
    grad = np.zeros(x.shape)
    grad[..., 0] = 1.0
    grad[..., 1] = 0.4 * 0.7 / np.cosh(u) ** 2
    grad[..., 2] = 0.4 * 0.3 / np.cosh(u) ** 2 + 0.2 * 0.4 * np.cos(v)
    grad[..., 3] = 0.2 * 0.3 * np.cos(v)
    g = 1.0 + 0.3 * np.sin(x[..., 0] + 0.5 * x[..., 1] - 0.2 * x[..., 3])
    return g[..., None] * grad


def test_frobenius_scaled_gradient_second_order():
    x = np.array([0.4, 0.7, -0.3, 0.9])
    r1 = frobenius_residual(scaled_two_ridge_gradient, x, 2e-3)
    r2 = frobenius_residual(scaled_two_ridge_gradient, x, 1e-3)
    assert r1 > 1e-9
    assert 3.2 < r1 / r2 < 4.8


def test_frobenius_constant_field_zero():
    field = lambda x: np.broadcast_to([1.0, 0.2, 0.0, 0.1],
                                      np.asarray(x).shape).copy()
    assert frobenius_residual(field, np.zeros(4), 1e-3) < 1e-13


def test_frobenius_twisted_field_detected():
    field = twisted_field(0.5)
    x = np.array([0.2, 0.1, -0.4, 1.3])
    r1 = frobenius_residual(field, x, 1e-3)
    r2 = frobenius_residual(field, x, 5e-4)
    assert abs(r1 - 0.5) < 1e-8                   # linear field: exact FD
    assert abs(r2 - 0.5) < 1e-8                   # bounded away from zero

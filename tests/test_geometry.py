import numpy as np
import pytest

from hbdsim.geometry import (
    SpinDimensionMode,
    alpha,
    gamma,
    lift_to_particle,
    minkowski_dot,
    slash,
)

from conftest import kron_chain

D31 = SpinDimensionMode.D31
D11 = SpinDimensionMode.D11
MODES = [D31, D11]


def test_minkowski_dot_axis_values():
    t, x = np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0])
    assert minkowski_dot(t, t) == 1.0
    assert minkowski_dot(t, x) == 0.0
    assert minkowski_dot(2 * t + x, 3 * t + x) == 5.0


def test_minkowski_dot_broadcasts():
    a = np.arange(24, dtype=float).reshape(2, 3, 4)
    b = np.ones((3, 4))
    out = minkowski_dot(a, b)
    assert out.shape == (2, 3)
    expected = a[..., 0] - a[..., 1] - a[..., 2] - a[..., 3]
    assert np.array_equal(out, expected)


def _four_term(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


def test_minkowski_dot_bitwise_four_term_formula(rng):
    # the bits of the explicit four-term formula, signed zeros included,
    # for a vector against (M, N, 4) in both orders, D11 data padded with
    # +0.0 or -0.0, and D31 data
    vec = rng.normal(size=4)
    vec11 = np.array([vec[0], vec[1], 0.0, -0.0])
    d31 = rng.normal(size=(5, 3, 4))
    d11 = np.zeros((5, 3, 4))
    d11[..., :2] = rng.normal(size=(5, 3, 2))
    d11[0, 0, :2] = 0.0
    d11_neg = d11.copy()
    d11_neg[..., 2:] = -0.0
    pairs = [(vec, d31), (d31, vec), (vec11, d11), (d11, vec11),
             (vec11, d11_neg), (d11_neg, vec11), (d11, d11_neg),
             (d11_neg, d11[:, :1]), (d31, rng.normal(size=(5, 3, 4))),
             (d31[:, :1], d31), (vec, vec), (vec11, vec11)]
    for a, b in pairs:
        out, expected = minkowski_dot(a, b), _four_term(a, b)
        assert np.shape(out) == np.shape(expected)
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_clifford_relations(mode):
    eye = np.eye(mode.spinor_dim)
    for mu in mode.vector_indices:
        for nu in mode.vector_indices:
            anti = gamma(mu, mode) @ gamma(nu, mode) + gamma(nu, mode) @ gamma(mu, mode)
            eta = (2.0 if mu == 0 else -2.0) if mu == nu else 0.0
            assert np.max(np.abs(anti - eta * eye)) < 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_hermiticity_pattern_exact(mode):
    g0 = gamma(0, mode)
    assert np.array_equal(g0, g0.conj().T)
    for mu in mode.vector_indices:
        if mu == 0:
            continue
        g = gamma(mu, mode)
        assert np.array_equal(g, -g.conj().T)


def test_gamma_invalid_index():
    with pytest.raises(ValueError):
        gamma(4, D31)
    with pytest.raises(ValueError):
        gamma(2, D11)
    with pytest.raises(ValueError):
        gamma(-1, D11)


def test_gamma_squares():
    for mode in MODES:
        eye = np.eye(mode.spinor_dim)
        assert np.allclose(gamma(0, mode) @ gamma(0, mode), eye)
    assert np.allclose(gamma(1, D11) @ gamma(1, D11), -np.eye(2))


def test_lift_identity_case():
    g = gamma(0, D31)
    assert np.array_equal(lift_to_particle(g, 1, 1), g)


def test_lift_out_of_range():
    with pytest.raises(ValueError):
        lift_to_particle(gamma(0, D31), 0, 2)
    with pytest.raises(ValueError):
        lift_to_particle(gamma(0, D31), 3, 2)


def test_lifted_disjoint_slots_commute(rng):
    for mode in MODES:
        for n in (2, 3):
            for _ in range(5):
                mu = int(rng.choice(list(mode.vector_indices)))
                nu = int(rng.choice(list(mode.vector_indices)))
                k, l = rng.choice(np.arange(1, n + 1), 2, replace=False)
                a = lift_to_particle(gamma(mu, mode), int(k), n)
                b = lift_to_particle(gamma(nu, mode), int(l), n)
                assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_lift_matches_hand_kron_d11():
    # lift(g0, 2, 2) acting on e1 x e2 equals e1 x (g0 e2), expanded by hand
    g0 = gamma(0, D11)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    lifted = lift_to_particle(g0, 2, 2)
    got = lifted @ np.kron(e1, e2)
    expected = np.kron(e1, g0 @ e2)
    assert np.array_equal(got, expected)
    # and entrywise against the expanded 4x4 matrix
    hand = np.array([
        [1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, -1],
    ], dtype=complex)
    assert np.array_equal(lifted, hand)


def test_slash_time_axis():
    assert np.array_equal(slash(np.array([1.0, 0, 0, 0]), mode=D31),
                          gamma(0, D31))


def test_slash_lowers_index():
    # slash((0,1,0,0)) = -gamma^1: metric flips the spatial sign
    x = np.array([0.0, 1, 0, 0])
    assert np.array_equal(slash(x, mode=D31), -gamma(1, D31))
    assert np.array_equal(slash(x, mode=D11), -gamma(1, D11))


def test_slash_clifford_contraction(rng):
    for mode in MODES:
        for _ in range(10):
            v = rng.normal(size=4)
            if mode is D11:
                v[2:] = 0.0
            sq = slash(v, mode=mode) @ slash(v, mode=mode)
            assert np.allclose(sq, minkowski_dot(v, v) * np.eye(mode.spinor_dim),
                               atol=1e-12)


def test_contraction_operator_positive(rng):
    # (g_1^0 g_1.n_1)...(g_N^0 g_N.n_N) is positive semidefinite for
    # future-oriented unit timelike normals
    for mode in MODES:
        for n_particles in (1, 2):
            for _ in range(10):
                mats = []
                for _ in range(n_particles):
                    eta = rng.uniform(-1.5, 1.5)
                    d = rng.normal(size=mode.spatial_dims)
                    d /= np.linalg.norm(d)
                    n = np.zeros(4)
                    n[0] = np.cosh(eta)
                    n[1:1 + mode.spatial_dims] = np.sinh(eta) * d
                    mats.append(gamma(0, mode) @ slash(n, mode=mode))
                op = kron_chain(mats)
                assert np.min(np.linalg.eigvalsh(op)) >= -1e-10


def test_alpha_matrices():
    for mode in MODES:
        for i in range(1, mode.spatial_dims + 1):
            assert np.array_equal(alpha(i, mode), gamma(0, mode) @ gamma(i, mode))
    with pytest.raises(ValueError):
        alpha(2, D11)

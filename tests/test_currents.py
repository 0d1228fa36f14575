import tracemalloc

import numpy as np
import pytest

from hbdsim import currents as cmod
from hbdsim.checks import (
    random_curved_foliation,
    random_leaf_tuples,
    random_state,
)
from hbdsim.currents import (
    BLOCK_TERMS,
    currents_all_batch,
    current_jk,
    density_batch,
    density_rho,
    divergence_residual,
)
from hbdsim.errors import ConsistencyError
from hbdsim.foliation import GraphLeaf, TanhProfile
from hbdsim.geometry import SpinDimensionMode, alpha, gamma, lift_to_particle, minkowski_dot, slash
from hbdsim.wavefunction import NParticleWavefunction, make_mode

from conftest import kron_chain

D31 = SpinDimensionMode.D31
D11 = SpinDimensionMode.D11

FLAT_N = np.array([1.0, 0, 0, 0])


def entangled_pair(mode=D11, seed=5):
    rng = np.random.default_rng(seed)
    def rand_mode():
        p = rng.normal(0, 1, size=mode.spatial_dims)
        sign = 1 if rng.random() < 0.7 else -1
        label = int(rng.integers(1, 3)) if mode is D31 else 1
        return make_mode(p, 1.0, sign, label, mode)
    return NParticleWavefunction([
        (1.0, (rand_mode(), rand_mode())),
        (complex(rng.normal(), rng.normal()), (rand_mode(), rand_mode())),
        (complex(rng.normal(), rng.normal()), (rand_mode(), rand_mode())),
    ])


def leaf_tuple(psi, seed=7, a=0.8, b=0.6):
    rng = np.random.default_rng(seed)
    sd = psi.mode.spatial_dims
    fol = GraphLeaf(TanhProfile(a, b), validity_box=[[-20, 20]] * sd,
                    spatial_dims=sd)
    xi = rng.uniform(-2, 2, size=(psi.n_particles, psi.mode.spatial_dims))
    pts = np.stack([fol.leaf_point(0.7, xi[k]) for k in range(psi.n_particles)])
    return pts, fol.normal(pts)


def test_rest_mode_current():
    for mode in (D31, D11):
        md = make_mode([0] * mode.spatial_dims, 1.0, 1, 1, mode)
        psi = NParticleWavefunction([(1.0, (md,))])
        j = current_jk(psi, 1, np.zeros((1, 4)), FLAT_N[None])
        assert np.allclose(j, [1, 0, 0, 0], atol=1e-14)


def test_product_state_current_factorizes(rng):
    # N=2 product state with flat normals: j_1 = (psibar_1 g^mu psi_1) * |psi_2|^2,
    # oracle computed by explicit Kronecker factorization here
    m1 = make_mode([0.8], 1.0, 1, 1, D11)
    m2 = make_mode([-0.3], 1.0, -1, 1, D11)
    psi = NParticleWavefunction([(1.0, (m1, m2))])
    x = rng.normal(size=(2, 4))
    x[:, 2:] = 0.0
    normals = np.tile(FLAT_N, (2, 1))
    j1 = current_jk(psi, 1, x, normals)

    p1 = NParticleWavefunction([(1.0, (m1,))]).evaluate(x[0][None])
    p2 = NParticleWavefunction([(1.0, (m2,))]).evaluate(x[1][None])
    norm2 = float(np.real(np.vdot(p2, p2)))
    for mu in (0, 1):
        single = np.conj(p1) @ gamma(0, D11) @ gamma(mu, D11) @ p1
        assert abs(j1[mu] - np.real(single) * norm2) < 1e-13


def test_flat_time_component_is_norm(rng):
    psi = entangled_pair()
    x = rng.normal(size=(2, 4))
    x[:, 2:] = 0.0
    normals = np.tile(FLAT_N, (2, 1))
    v = psi.evaluate(x)
    for k in (1, 2):
        j = current_jk(psi, k, x, normals)
        assert abs(j[0] - np.real(np.vdot(v, v))) < 1e-12 * abs(j[0])


def test_density_rho_flat_is_norm(rng):
    psi = entangled_pair(seed=11)
    x = rng.normal(size=(2, 4))
    x[:, 2:] = 0.0
    normals = np.tile(FLAT_N, (2, 1))
    v = psi.evaluate(x)
    assert abs(density_rho(psi, x, normals) - np.real(np.vdot(v, v))) < 1e-12


def test_density_zero_state():
    md = make_mode([0.4], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])
    assert density_rho(psi, np.zeros((1, 4)), FLAT_N[None]) == 0.0


def test_k_independence_on_curved_leaf():
    psi = entangled_pair(seed=3)
    pts, normals = leaf_tuple(psi)
    vals = [minkowski_dot(current_jk(psi, k, pts, normals), normals[k - 1])
            for k in (1, 2)]
    rho = density_rho(psi, pts, normals)
    assert abs(vals[0] - vals[1]) < 1e-10 * abs(rho)
    assert abs(rho - vals[0]) < 1e-10 * abs(rho)


def test_dense_vs_batch_paths_agree(rng):
    cases = [(D11, 2), (D11, 3), (D31, 2), (D11, 1), (D31, 1), (D31, 3)]
    for mode, n in cases:
        psi = entangled_pair(mode) if n == 2 else NParticleWavefunction([
            (1.0, tuple(make_mode(rng.normal(0, 1, mode.spatial_dims),
                                  1.0, 1, 1, mode) for _ in range(n))),
            (0.5j, tuple(make_mode(rng.normal(0, 1, mode.spatial_dims),
                                   1.0, -1, 1, mode) for _ in range(n))),
        ])
        pts, normals = leaf_tuple(psi, seed=n)
        vals = psi.evaluate_batch(pts[None])
        j_batch = currents_all_batch(vals, normals[None], psi.n_particles,
                                     mode)[0]
        for k in range(1, psi.n_particles + 1):
            j_dense = current_jk(psi, k, pts, normals)
            scale = max(np.max(np.abs(j_dense)), 1e-300)
            assert np.max(np.abs(j_batch[k - 1] - j_dense)) < 1e-12 * scale
        rho_b = density_batch(vals, normals[None], psi.n_particles, mode)[0]
        assert abs(rho_b - density_rho(psi, pts, normals)) < 1e-12 * abs(rho_b)


def test_kernel_bits_independent_of_batch_shape():
    # one call on 5000 rows forms its bilinears in passes of at most
    # BLOCK_TERMS terms. One-row, two-row and seven-row calls on windows
    # that straddle the first pass boundary (where it lies below 5000
    # rows: 16 rows for D31 N=3, 4096 for D11 N=2) and the end, a zero-row
    # call, a 3-d batch and the whole batch must give the same bits, and
    # the caller's arrays must come back untouched
    rng = np.random.default_rng(59)
    for mode in (D11, D31):
        for n in (1, 2, 3):
            dim = mode.spin_space_dim(n)
            step = BLOCK_TERMS // cmod._bilinear_table(n, mode).perm.size
            windows = [range(4950, 5000)]
            if step < 5000:
                windows.append(range(max(0, step - 25), step + 24))
            vals = rng.normal(size=(5000, dim)) + 1j * rng.normal(
                size=(5000, dim))
            fol = random_curved_foliation(rng, mode.spatial_dims)
            _, normals = random_leaf_tuples(rng, fol, n, 5000)
            vals_before, normals_before = vals.copy(), normals.copy()
            for kernel in (currents_all_batch, density_batch):
                whole = kernel(vals, normals, n, mode)
                for window in windows:
                    for batch in (1, 2, 7):
                        pieces = [kernel(vals[lo:lo + batch],
                                         normals[lo:lo + batch], n, mode)
                                  for lo in range(window.start, window.stop,
                                                  batch)]
                        got = np.concatenate(pieces)
                        assert np.array_equal(
                            got, whole[window.start:window.start + len(got)])
                empty = kernel(vals[:0], normals[:0], n, mode)
                assert empty.shape == (0,) + whole.shape[1:]
                shaped = kernel(vals.reshape(50, 100, dim),
                                normals.reshape(50, 100, n, 4), n, mode)
                assert np.array_equal(shaped.reshape(whole.shape), whole)
            assert np.array_equal(vals, vals_before)
            assert np.array_equal(normals, normals_before)


def test_kernel_memory_bound_d31_three_particles():
    # D31 N=3: D = 64 components and C = 64 bilinears, so one pass over
    # every term of 1024 rows would hold 64 MB; passes of BLOCK_TERMS keep
    # the kernels' peak small, and both still match the dense Kronecker
    # path row by row
    rng = np.random.default_rng(67)
    psi = random_state(rng, 3, D31)
    fol = random_curved_foliation(rng, 3)
    pts, normals = random_leaf_tuples(rng, fol, 3, 1024)
    vals = psi.evaluate_batch(pts)
    assert cmod._bilinear_table(3, D31).perm.size * 1024 == 1 << 22
    tracemalloc.start()
    try:
        j = currents_all_batch(vals, normals, 3, D31)
        rho = density_batch(vals, normals, 3, D31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20              # 5.3 MB measured; naive: 64 MB
    for row in range(1024):
        for k in range(1, 4):
            j_dense = current_jk(psi, k, pts[row], normals[row])
            scale = max(np.max(np.abs(j_dense)), 1e-300)
            assert np.max(np.abs(j[row, k - 1] - j_dense)) < 1e-12 * scale
        rho_dense = density_rho(psi, pts[row], normals[row])
        assert abs(rho[row] - rho_dense) < 1e-12 * abs(rho_dense)


def test_current_oracle_dense_kron(rng):
    # fully independent oracle: build psibar (B_1 x ... x B_N with slot k
    # replaced) from scratch with numpy only
    psi = entangled_pair(seed=17)
    pts, normals = leaf_tuple(psi, seed=23)
    v = psi.evaluate(pts)
    g0 = gamma(0, D11)
    psibar = np.conj(v) @ kron_chain([g0, g0])
    for k in (1, 2):
        j = current_jk(psi, k, pts, normals)
        for mu in (0, 1):
            mats = []
            for l in (1, 2):
                if l == k:
                    mats.append(gamma(mu, D11))
                else:
                    mats.append(slash(normals[l - 1], mode=D11))
            expected = psibar @ kron_chain(mats) @ v
            assert abs(expected.imag) < 1e-12 * max(abs(expected), 1e-300)
            assert abs(j[mu] - expected.real) < 1e-12 * max(abs(expected), 1e-12)


def test_flat_reduction_spatial_parts(rng):
    # with all normals (1,0,0,0): spatial part of j_k = psi^dag alpha_k psi
    psi = entangled_pair(seed=29)
    x = rng.normal(size=(2, 4))
    x[:, 2:] = 0.0
    normals = np.tile(FLAT_N, (2, 1))
    v = psi.evaluate(x)
    for k in (1, 2):
        j = current_jk(psi, k, x, normals)
        op = lift_to_particle(alpha(1, D11), k, 2)
        expected = np.real(np.vdot(v, op @ v))
        assert abs(j[1] - expected) < 1e-12 * max(abs(expected), 1e-12)


def test_normals_validated():
    psi = entangled_pair(seed=31)
    x = np.zeros((2, 4))
    bad = np.tile([0.5, 1.0, 0, 0], (2, 1))      # spacelike
    with pytest.raises(ValueError):
        current_jk(psi, 1, x, bad)
    past = np.tile([-1.0, 0, 0, 0], (2, 1))
    with pytest.raises(ValueError):
        density_rho(psi, x, past)


def test_divergence_residual_second_order():
    psi = entangled_pair(seed=37)
    pts, normals = leaf_tuple(psi, seed=41)
    r1 = divergence_residual(psi, 1, pts, normals, 2e-2)
    r2 = divergence_residual(psi, 1, pts, normals, 1e-2)
    assert r1 > 1e-9
    assert 3.2 < r1 / r2 < 4.8


def test_divergence_single_plane_wave():
    md1 = make_mode([0.8], 1.0, 1, 1, D11)
    md2 = make_mode([-0.4], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md1, md2))])
    pts = np.array([[0.1, 0.4, 0, 0], [0.2, -0.3, 0, 0]])
    normals = np.tile(FLAT_N, (2, 1))
    # plane-wave currents are constant fields: residual is pure roundoff
    assert divergence_residual(psi, 1, pts, normals, 1e-3) < 1e-8


def test_divergence_zero_state():
    md = make_mode([0.4], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])
    assert divergence_residual(psi, 1, np.zeros((1, 4)), FLAT_N[None],
                               1e-3) == 0.0


def test_positivity_random_draws(rng):
    psi = entangled_pair(seed=43)
    fol = GraphLeaf(TanhProfile(0.7, 0.8), validity_box=[[-20, 20]],
                    spatial_dims=1)
    xi = rng.uniform(-3, 3, size=(200, 2, 1))
    pts = np.stack([fol.leaf_point(0.0, xi[:, k]) for k in range(2)], axis=1)
    normals = fol.normal(pts)
    vals = psi.evaluate_batch(pts)
    scale = np.real(np.sum(np.conj(vals) * vals, axis=-1))
    rho = density_batch(vals, normals, 2, D11)
    assert np.all(rho >= -1e-12 * scale)
    j = currents_all_batch(vals, normals, 2, D11)
    flowing = rho > 1e-8 * scale
    jj = minkowski_dot(j[flowing], j[flowing])
    assert np.all(jj >= -1e-10 * np.sum(j[flowing] ** 2, axis=-1))
    assert np.all(j[flowing][..., 0] > 0)


def test_imaginary_residue_policy(monkeypatch):
    # a non-Hermitian operator table gives every bilinear an imaginary
    # part: the reality guard of both kernels must trip rather than
    # silently truncate
    psi = entangled_pair(seed=47)
    pts, normals = leaf_tuple(psi, seed=53)
    vals = psi.evaluate_batch(pts[None])
    table = cmod._bilinear_table(2, D11)
    skewed = cmod._BilinearTable(table.perm, table.phase * np.exp(0.05j))
    monkeypatch.setattr(cmod, "_bilinear_table", lambda n, mode: skewed)
    with pytest.raises(ConsistencyError):
        currents_all_batch(vals, normals[None], 2, D11)
    with pytest.raises(ConsistencyError):
        density_batch(vals, normals[None], 2, D11)


def test_bilinear_table_requires_one_entry_per_row(monkeypatch):
    table = cmod._bilinear_table(2, D31)
    # row-major: (D, C) and (D, C, 1)
    assert table.perm.shape == (16, 16)
    assert table.phase.shape == (16, 16, 1)
    # the identity multi-index comes first, in C order
    assert np.array_equal(table.perm[:, 0], np.arange(16))
    assert np.all(table.phase[:, 0] == 1)
    monkeypatch.setattr(cmod, "alpha", lambda i, mode: np.ones((2, 2)))
    with pytest.raises(ConsistencyError):
        cmod._bilinear_table.__wrapped__(1, D11)


def _loop_contract(t, a, skip=None):
    # the contraction as a loop over components, left to right: the order
    # oracle for the kernel's one product and reduce per particle axis
    for l in reversed(range(len(a))):
        if l == skip:
            continue
        pick = (slice(None),) * l
        acc = t[pick + (0,)] * a[l, 0]
        for i in range(1, a.shape[1]):
            acc += t[pick + (i,)] * a[l, i]
        t = acc
    return t


@pytest.mark.parametrize("mode", [D11, D31])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_sums_in_index_order(mode, n):
    # each contraction is the left-to-right sum over its axis, bit for bit
    # and in the sign of every zero, on 1, 3 and 1024 rows, with rows and
    # components that are exactly zero; both kernels' outputs are those
    # sums' real parts
    rng = np.random.default_rng(71 + n)
    dim = mode.spin_space_dim(n)
    for rows in (1, 3, 1024):
        vals = rng.normal(size=(rows, dim)) + 1j * rng.normal(
            size=(rows, dim))
        vals[rng.random((rows, dim)) < 0.2] = 0.0
        vals[1:2] = 0.0
        # unit normals with every spatial component nonzero, so that no
        # product drops out of a D31 sum
        spatial = rng.normal(0.0, 0.5, size=(rows, n, 3))
        normals = np.concatenate(
            [np.sqrt(1.0 + np.sum(spatial ** 2, axis=-1, keepdims=True)),
             spatial], axis=-1)
        t, a, _ = cmod._bilinears(vals, normals, n, mode)
        m = a.shape[1]
        j = np.zeros((rows, n, 4))
        for k in range(n):
            want = _loop_contract(t, a, skip=k)
            got = cmod._contract(t, a, skip=k)
            assert got.tobytes() == want.tobytes()
            j[:, k, :m] = want.real.T
        rho = _loop_contract(t, a)
        assert cmod._contract(t, a).tobytes() == rho.tobytes()
        assert currents_all_batch(vals, normals, n, mode).tobytes() == (
            j.tobytes())
        assert density_batch(vals, normals, n, mode).tobytes() == (
            np.ascontiguousarray(rho.real).tobytes())


@pytest.mark.parametrize("mode", [D11, D31])
def test_contraction_of_negative_zeros_stays_negative(mode):
    # bilinears that are all -0.0 against coefficients of either sign:
    # every product's imaginary part is -0.0 where the coefficient is
    # positive, so a sum from +0.0 would flip it
    rng = np.random.default_rng(89)
    m = 1 + mode.spatial_dims
    for n in (1, 2, 3):
        t = np.full((m,) * n + (4,), complex(-0.0, -0.0))
        a = (rng.normal(size=(n, m, 4)) + 0j)
        a[:, :, 0] = np.abs(a[:, :, 0])
        for skip in (None, *range(n)):
            assert cmod._contract(t, a, skip).tobytes() == (
                _loop_contract(t, a, skip).tobytes())

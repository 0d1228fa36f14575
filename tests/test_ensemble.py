import numpy as np
import pytest

from hbdsim import ensemble
from hbdsim.currents import currents_all_batch, density_batch
from hbdsim.dynamics import SYNC_TOLERANCE, integrate_ensemble
from hbdsim.ensemble import (
    CDF_RESOLUTION,
    MAX_RESTARTS,
    CrossingSet,
    LeafDensity,
    _auto_resolution,
    crossings,
    equivariance_test,
    flat_continuity_residual,
    sample_leaf,
    trajectory_rng,
)
from hbdsim.errors import (
    BoundaryLeak,
    EmptyMarginal,
    EnvelopeBreach,
    LabelOutOfRange,
    NoSamples,
    SamplerStall,
    SimulationError,
)
from hbdsim.foliation import FlatTime, GraphLeaf, TanhProfile
from hbdsim.geometry import SpinDimensionMode, minkowski_dot, minkowski_norm_sq
from hbdsim.wavefunction import NParticleWavefunction, make_mode

D11 = SpinDimensionMode.D11
D31 = SpinDimensionMode.D31


def gauss_legendre_grid(boxes, order):
    """Quadrature oracle: tensor-product Gauss-Legendre nodes (order**dims,
    dims) over a list of intervals, with the product weights."""
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in np.asarray(boxes, dtype=float):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (base_x + 1.0))
        weights.append(half * base_w)
    mesh = np.meshgrid(*nodes, indexing="ij")
    wmesh = np.meshgrid(*weights, indexing="ij")
    w = np.ones(mesh[0].size)
    for m in wmesh:
        w = w * m.ravel()
    return np.stack([m.ravel() for m in mesh], axis=-1), w


def rest_psi():
    return NParticleWavefunction([(1.0, (make_mode([0], 1.0, 1, 1, D11),))])


def packet_psi(fol, p0=1.0, sigma_p=0.4, dp=0.25, half=10, center=0.0, s0=0.0):
    xbar = fol.leaf_point(s0, np.array([center]))
    factor = []
    for a in range(-half, half + 1):
        md = make_mode([p0 + a * dp], 1.0, 1, 1, D11)
        w = (np.exp(-(a * dp) ** 2 / (4 * sigma_p ** 2))
             * np.exp(1j * minkowski_dot(md.four_momentum, xbar)))
        factor.append((w, md))
    return NParticleWavefunction.from_product_branches([(1.0, [factor])])


def test_trajectory_rng_streams_are_stable_and_disjoint():
    a = trajectory_rng(42, 0).random(8)
    b = trajectory_rng(42, 0).random(8)
    c = trajectory_rng(42, 1).random(8)
    d = trajectory_rng(7, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gauss_legendre_polynomial_exactness():
    nodes, w = gauss_legendre_grid([[-1.0, 2.0]], 8)
    # exact for polynomials up to degree 15
    for deg in range(12):
        got = float(np.sum(w * nodes[:, 0] ** deg))
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(got - exact) < 1e-12 * max(1, abs(exact))
    nodes, w = gauss_legendre_grid([[0, 1], [0, 2]], 6)
    got = float(np.sum(w * nodes[:, 0] ** 2 * nodes[:, 1] ** 3))
    assert abs(got - (1 / 3) * 4.0) < 1e-12


def test_leaf_density_uniform_normalization():
    dens = LeafDensity(FlatTime(1), 0.0, rest_psi(), [[[-2.0, 2.0]]], 32)
    assert abs(dens.normalization() - 4.0) < 1e-12
    assert abs(dens.max_weight() - 1.0) < 1e-12
    assert abs(dens.quadrature_mean(0)) < 1e-12


def test_scan_evaluates_psi_once_per_grid_point(monkeypatch):
    # the scan evaluates each particle's factors on that particle's own
    # axis points only (N * res points, not res ** N rows) and derives both
    # maxima from that one evaluation
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]],
                    spatial_dims=1)
    ma = make_mode([0.7], 1.0, 1, 1, D11)
    mb = make_mode([-0.5], 1.0, 1, 1, D11)
    psi = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, ma), (0.4, mb)], [(0.5j, mb)]]),
         (0.3, [[(1.0, mb)], [(1.0, ma)]])])
    res = 41
    dens = LeafDensity(fol, 0.0, psi, [[[-6.0, 5.0]], [[-5.0, 6.0]]], 16,
                       scan_resolution=res)
    points = []
    slot_factors = psi._slot_factors

    def counting(k, x):
        points.append((k, x.shape[0]))
        return slot_factors(k, x)

    monkeypatch.setattr(psi, "_slot_factors", counting)
    scan = dens.scan()
    monkeypatch.undo()
    assert sorted(points) == [(0, res), (1, res)]

    mesh = np.meshgrid(np.linspace(-6.0, 5.0, res), np.linspace(-5.0, 6.0, res),
                       indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=-1)
    assert scan["max_weight"] == np.max(dens.weight_flat(u))
    pts = fol.leaf_point(dens.s, dens.chart_tuples(u))
    rho = density_batch(psi.evaluate_batch(pts), fol.normal(pts), 2, D11)
    assert scan["max_rho"] == np.max(rho)


def _row_flux(dens):
    # the boundary flux's row formula: every face point as one row through
    # evaluate_batch, with the foliation's true normals
    sd = dens.foliation.spatial_dims
    n = dens.psi.n_particles
    res = _auto_resolution(max(dens.dims - 1, 1))
    worst = 0.0
    for a in range(dens.dims):
        k, comp = divmod(a, sd)
        other = [b for b in range(dens.dims) if b != a]
        if other:
            mesh = np.meshgrid(*[np.linspace(lo, hi, res) for lo, hi in
                                 dens.axis_boxes[other]], indexing="ij")
            base = np.stack([m.ravel() for m in mesh], axis=-1)
        else:
            base = np.zeros((1, 0))
        for side, edge in enumerate(dens.axis_boxes[a]):
            u = np.empty((base.shape[0], dens.dims))
            u[:, other] = base
            u[:, a] = edge
            xi = dens.chart_tuples(u)
            pts = dens.foliation.leaf_point(dens.s, xi)
            j = currents_all_batch(dens.psi.evaluate_batch(pts),
                                   dens.foliation.normal(pts), n,
                                   dens.psi.mode)
            grad_norm = np.sqrt(minkowski_norm_sq(
                dens.foliation.gradient(pts[:, k, :])))
            chart_v = dens.foliation.chart_velocity(pts[:, k, :],
                                                    j[:, k, :])[:, comp]
            area = np.ones(u.shape[0])
            for kk in range(n):
                area = area * dens.foliation.area_element(dens.s, xi[:, kk, :])
            outward = chart_v if side == 1 else -chart_v
            flux = area * np.maximum(outward, 0.0) / grad_norm
            worst = max(worst, float(np.max(flux)))
    return worst / dens.max_weight()


def _row_path_quantities(dens, bins):
    # the grid consumers' formulas applied to explicit meshgrid rows
    # through weight_flat, one psi evaluation per joint grid point
    def rows(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    u = rows(dens._scan_axes(dens.scan_resolution))
    pts = dens.foliation.leaf_point(dens.s, dens.chart_tuples(u))
    normals = dens._normals(pts)
    rho = density_batch(dens.psi.evaluate_batch(pts), normals,
                        dens.psi.n_particles, dens.psi.mode)
    w = dens.weight_flat(u)
    out = {"max_weight": np.max(w), "max_rho": np.max(rho),
           "argmax": u[np.argmax(w)]}

    nodes, wq = gauss_legendre_grid(dens.axis_boxes, dens.quad_order)
    wz = dens.weight_flat(nodes) * wq
    out["z"] = float(np.sum(wz))
    out["means"] = [float(np.sum(wz * nodes[:, a]) / np.sum(wz))
                    for a in range(dens.dims)]

    edges = [np.linspace(lo, hi, bins + 1) for lo, hi in dens.axis_boxes]
    base_x, base_w = np.polynomial.legendre.leggauss(8)
    axes_nodes, axes_weights = [], []
    for e in edges:
        half = 0.5 * np.diff(e)
        mid = 0.5 * (e[:-1] + e[1:])
        axes_nodes.append((mid[:, None] + half[:, None] * base_x).ravel())
        axes_weights.append(half[:, None] * base_w)
    wb = dens.weight_flat(rows(axes_nodes)).reshape((bins, 8) * dens.dims)
    for a in range(dens.dims):
        shape = [1] * wb.ndim
        shape[2 * a], shape[2 * a + 1] = bins, 8
        wb = wb * axes_weights[a].reshape(shape)
    masses = wb.sum(axis=tuple(range(1, 2 * dens.dims, 2)))
    out["masses"] = masses / masses.sum()

    out["cdfs"] = []
    for a in range(dens.dims):
        lo, hi = dens.axis_boxes[a]
        grid = np.linspace(lo, hi, CDF_RESOLUTION)
        other = [b for b in range(dens.dims) if b != a]
        if other:
            cross, wc = gauss_legendre_grid(dens.axis_boxes[other],
                                            dens.quad_order)
            uc = np.empty((CDF_RESOLUTION, cross.shape[0], dens.dims))
            uc[..., a] = grid[:, None]
            for j, b in enumerate(other):
                uc[..., b] = cross[:, j]
            pdf = np.sum(dens.weight_flat(uc) * wc, axis=-1)
        else:
            pdf = dens.weight_flat(grid[:, None])
        dx = grid[1] - grid[0]
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
        out["cdfs"].append(cdf / cdf[-1])
    out["flux"] = _row_flux(dens)
    return out


def _graph_n2(flat_normals):
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]],
                    spatial_dims=1)
    ma = make_mode([0.7], 1.0, 1, 1, D11)
    mb = make_mode([-0.5], 1.0, 1, 1, D11)
    mc = make_mode([0.1], 1.0, -1, 1, D11)
    psi = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, ma), (0.4, mb), (0.2j, mc)], [(0.5j, mb), (0.3, ma)]]),
         (0.3, [[(1.0, mb)], [(1.0, ma), (-0.6, mc)]])])
    return LeafDensity(fol, 0.4, psi, [[[-6.0, 5.0]], [[-5.0, 6.0]]], 12,
                       scan_resolution=33, flat_normals=flat_normals)


def _graph_d31_n1():
    # one D31 particle on a curved leaf: three chart axes, two spin labels
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]] * 3,
                    spatial_dims=3)
    modes = [make_mode([0.7, 0.2, -0.3], 1.0, 1, 1, D31),
             make_mode([-0.4, 0.5, 0.1], 1.0, 1, 2, D31),
             make_mode([0.1, -0.6, 0.4], 1.0, -1, 1, D31)]
    psi = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, modes[0]), (0.5j, modes[1]), (0.3, modes[2])]])])
    return LeafDensity(fol, 0.3, psi, [[[-3.0, 2.5], [-2.0, 2.5],
                                        [-2.5, 2.0]]], 6, scan_resolution=9)


@pytest.mark.parametrize("build", [
    lambda: _graph_n2(False),
    lambda: _graph_n2(True),
    lambda: LeafDensity(GraphLeaf(TanhProfile(0.9, 0.7),
                                  validity_box=[[-40, 40]], spatial_dims=1),
                        0.3, packet_psi(FlatTime(1), center=-0.5),
                        [[[-7.0, 6.0]]], 24, scan_resolution=301),
    _graph_d31_n1,
], ids=["graph_n2", "graph_n2_flat_normals", "graph_n1", "graph_d31_n1"])
def test_grid_consumers_equal_row_path_bitwise(build):
    # the tensor-grid path (factors per particle axis, outer product over
    # particles) gives the same bits as evaluating every joint grid point
    dens = build()
    bins = 4
    ref = _row_path_quantities(dens, bins)
    scan = dens.scan()
    assert scan["max_weight"] == ref["max_weight"]
    assert scan["max_rho"] == ref["max_rho"]
    assert np.array_equal(scan["argmax"], ref["argmax"])
    assert dens.normalization() == ref["z"]
    assert [dens.quadrature_mean(a) for a in range(dens.dims)] == ref["means"]
    _, masses = dens.bin_masses(bins)
    assert np.array_equal(masses, ref["masses"])
    for a in range(dens.dims):
        _, cdf = dens.marginal_cdf(a)
        assert np.array_equal(cdf, ref["cdfs"][a])
    assert ref["flux"] > 0.0
    assert dens.boundary_relative_flux() == ref["flux"]


def test_sampling_uniform_ks():
    dens = LeafDensity(FlatTime(1), 0.0, rest_psi(), [[[-2.0, 2.0]]], 32)
    ss = sample_leaf(dens, 2000, seed=3)
    xs = np.sort(ss.chart[:, 0, 0])
    n = len(xs)
    f = (xs + 2.0) / 4.0
    steps = np.arange(1, n + 1) / n
    d = max(np.max(steps - f), np.max(f - (steps - 1 / n)))
    assert d < 1.36 / np.sqrt(n)


def test_sampling_mean_matches_quadrature():
    fol = FlatTime(1)
    psi = packet_psi(fol, p0=0.8, center=0.5)
    dens = LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 64)
    ss = sample_leaf(dens, 4000, seed=11)
    xs = ss.chart[:, 0, 0]
    mean_q = dens.quadrature_mean(0)
    tol = 4.0 * np.std(xs) / np.sqrt(len(xs))
    assert abs(np.mean(xs) - mean_q) < tol


def test_sampling_deterministic_bitwise():
    fol = FlatTime(1)
    psi = packet_psi(fol)
    a = sample_leaf(LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 32), 500, 99)
    b = sample_leaf(LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 32), 500, 99)
    assert np.array_equal(a.chart, b.chart)


def test_sampling_configurations_on_leaf():
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]],
                    spatial_dims=1)
    psi = packet_psi(fol)
    dens = LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 32)
    ss = sample_leaf(dens, 50, seed=5)
    pts = ss.points()
    assert pts.shape == (50, 1, 4)
    assert np.max(np.abs(fol.label(pts) - dens.s)) <= SYNC_TOLERANCE


def test_boundary_leak_detected():
    # a drifting packet with a box cut through its bulk must be rejected
    fol = FlatTime(1)
    psi = packet_psi(fol, p0=1.0, center=0.0)
    dens = LeafDensity(fol, 0.0, psi, [[[-2.0, 1.0]]], 32)
    with pytest.raises(BoundaryLeak):
        sample_leaf(dens, 10, seed=1)


def test_rest_state_passes_boundary_check():
    # uniform density but zero flux: the rest state samples fine however
    # large its weight at the box edge
    dens = LeafDensity(FlatTime(1), 0.0, rest_psi(), [[[-2.0, 2.0]]], 32)
    ss = sample_leaf(dens, 20, seed=2)
    assert ss.n_samples == 20


def test_envelope_breach_triggers_rescan():
    fol = FlatTime(1)
    psi = packet_psi(fol, sigma_p=0.5)
    dens = LeafDensity(fol, 0.0, psi, [[[-7.0, 8.0]]], 32)
    dens.scan()
    dens._scan["max_weight"] /= 10.0              # sabotage the envelope
    coarse_resolution = dens.scan_resolution
    ss = sample_leaf(dens, 100, seed=13)          # must rescan and recover
    assert dens.scan_resolution > coarse_resolution
    assert ss.n_samples == 100


def _sabotaged_density(monkeypatch, weight):
    # a packet density whose proposals all weigh ``weight``; rescans are
    # counted and skipped
    dens = LeafDensity(FlatTime(1), 0.0, packet_psi(FlatTime(1), sigma_p=0.5),
                       [[[-7.0, 8.0]]], 32)
    rescans = []
    monkeypatch.setattr(dens, "weight_flat",
                        lambda u: np.full(u.shape[:-1], weight))
    monkeypatch.setattr(dens, "rescan", lambda: rescans.append(1))
    return dens, rescans


def test_sampler_stall_is_not_retried(monkeypatch):
    dens, rescans = _sabotaged_density(monkeypatch, 0.0)
    with pytest.raises(SamplerStall):
        sample_leaf(dens, 1, seed=3)
    assert rescans == []


def test_rescan_only_before_a_retry(monkeypatch):
    dens, rescans = _sabotaged_density(monkeypatch, np.inf)
    with pytest.raises(EnvelopeBreach):
        sample_leaf(dens, 5, seed=3)
    assert len(rescans) == MAX_RESTARTS - 1


def test_rescan_respects_the_grid_cap(monkeypatch):
    dens = LeafDensity(FlatTime(1), 0.0, packet_psi(FlatTime(1), sigma_p=0.5),
                       [[[-7.0, 8.0]]], 32)
    dens.scan()
    dens._scan["max_weight"] /= 10.0              # sabotage the envelope
    resolution = dens.scan_resolution
    monkeypatch.setattr(ensemble, "MAX_QUADRATURE_NODES", 2 * resolution)
    with pytest.raises(EnvelopeBreach):
        sample_leaf(dens, 100, seed=13)
    assert dens.scan_resolution == resolution


def test_crossings_interpolation():
    fol = FlatTime(1)
    psi = packet_psi(fol, p0=0.6, sigma_p=0.4, half=10)
    dens = LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 32)
    ss = sample_leaf(dens, 30, seed=7)
    ens = integrate_ensemble(psi, fol, ss.points(), 0.0, 1.0, 0.1)
    # at a grid label the crossing is the grid configuration itself
    cs = crossings(ens, 0.5)
    i = int(np.argmin(np.abs(ens.s_grid - 0.5)))
    assert np.array_equal(cs.chart[:, 0, 0], ens.points[:, i, 0, 1])
    # between grid labels: linear interpolation between the brackets
    cs2 = crossings(ens, 0.525)
    expected = 0.75 * ens.points[:, 5, 0, 1] + 0.25 * ens.points[:, 6, 0, 1]
    assert np.max(np.abs(cs2.chart[:, 0, 0] - expected)) < 1e-12
    with pytest.raises(ValueError):
        crossings(ens, 2.0)


def test_run_path_errors_are_simulation_errors():
    # found mid-run, so they exit 3 with a named kind; they stay ValueErrors
    fol = FlatTime(1)
    dens = LeafDensity(fol, 0.0, rest_psi(), [[[-2.0, 2.0]]], 16)
    with pytest.raises(NoSamples):
        equivariance_test(np.zeros((0, 1, 1)), dens, bins_per_axis=4)
    md = make_mode([0.4], 1.0, 1, 1, D11)
    empty = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])
    with pytest.raises(EmptyMarginal):
        LeafDensity(fol, 0.0, empty, [[[-2.0, 2.0]]], 16).marginal_cdf(0)
    ens = integrate_ensemble(rest_psi(), fol, np.zeros((2, 1, 4)), 0.0, 1.0,
                             0.5)
    with pytest.raises(LabelOutOfRange):
        crossings(ens, 2.0)
    for error in (NoSamples, EmptyMarginal, LabelOutOfRange):
        assert issubclass(error, SimulationError)
        assert issubclass(error, ValueError)


def test_crossing_single_mode_advances_linearly():
    md = make_mode([0.6], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,))])
    flat = FlatTime(1)
    pts0 = np.zeros((1, 1, 4))
    ens = integrate_ensemble(psi, flat, pts0, 0.0, 2.0, 0.1)
    v = 0.6 / np.sqrt(1.36)
    for s in (0.35, 1.0, 1.77):
        cs = crossings(ens, s)
        assert abs(cs.chart[0, 0, 0] - v * s) < 1e-10


def test_crossings_exclude_halted():
    psi = packet_psi(FlatTime(1), p0=0.9)
    fol = GraphLeaf(TanhProfile(0.5, 0.5), validity_box=[[-3.0, 3.0]],
                    spatial_dims=1)
    pts0 = np.stack([fol.leaf_point(0.0, np.array([x]))
                     for x in (-2.0, 0.0, 2.5)])[:, None, :]
    ens = integrate_ensemble(psi, fol, pts0, 0.0, 5.0, 0.05)
    cs = crossings(ens, 5.0)
    assert cs.n_excluded == len(ens.points) - cs.n_included
    assert cs.n_excluded >= 1
    events_traj = {t for t, _, _ in ens.events}
    assert set(cs.excluded_ids) == events_traj


def test_equivariance_self_consistency():
    # samples drawn directly from the density must match it
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]],
                    spatial_dims=1)
    psi = packet_psi(fol, p0=0.9)
    dens = LeafDensity(fol, 0.0, psi, [[[-8.0, 9.0]]], 64)
    ss = sample_leaf(dens, 4000, seed=21)
    rep = equivariance_test(ss.chart, dens, bins_per_axis=20,
                            tv_threshold=0.05)
    assert rep.passed
    assert rep.tv_distance < 0.05
    assert all(k < rep.ks_threshold for k in rep.ks_stats)


def test_equivariance_negative_control_fails():
    fol = GraphLeaf(TanhProfile(0.9, 0.7), validity_box=[[-40, 40]],
                    spatial_dims=1)
    psi = packet_psi(fol, p0=1.6, sigma_p=0.5, center=-1.0)
    dens = LeafDensity(fol, 0.0, psi, [[[-8.0, 8.5]]], 64)
    ss = sample_leaf(dens, 3000, seed=23)
    wrong = LeafDensity(fol, 0.0, psi, [[[-8.0, 8.5]]], 64, flat_normals=True)
    rep = equivariance_test(ss.chart, wrong, bins_per_axis=20,
                            tv_threshold=0.05)
    assert not rep.passed
    assert rep.tv_distance > 0.05


def test_report_bookkeeping():
    dens = LeafDensity(FlatTime(1), 0.0, rest_psi(), [[[-2.0, 2.0]]], 32)
    ss = sample_leaf(dens, 500, seed=31)
    cs = CrossingSet(s=0.0, chart=ss.chart,
                     trajectory_ids=np.arange(500),
                     excluded_ids=np.array([], dtype=int))
    rep = equivariance_test(cs, dens, bins_per_axis=8)
    assert rep.ensemble_size == 500 and rep.excluded == 0
    assert 0.0 <= rep.tv_distance <= 1.0
    assert all(0.0 <= k <= 1.0 for k in rep.ks_stats)
    d = rep.to_dict()
    assert set(d) >= {"tv_distance", "ks_stats", "passed", "leak_mass"}


def test_excluded_trajectories_count_against_tv():
    # halted trajectories are mass that never reached the leaf: TV rises by
    # at most their share, and never stays below it
    dens = LeafDensity(FlatTime(1), 0.0, rest_psi(), [[[-2.0, 2.0]]], 32)
    chart = sample_leaf(dens, 500, seed=31).chart
    rep0 = equivariance_test(chart, dens, bins_per_axis=8)
    assert rep0.leak_mass == 0.0
    for excluded in (10, 100):
        share = excluded / (500 + excluded)
        rep = equivariance_test(chart, dens, bins_per_axis=8,
                                excluded=excluded)
        assert rep.ensemble_size == 500 + excluded
        assert abs(rep.leak_mass - share) < 1e-15
        assert max(rep0.tv_distance, share) <= rep.tv_distance + 1e-15
        assert rep.tv_distance <= rep0.tv_distance + share + 1e-15
    # every bin now holds less than its predicted mass, so TV is the share
    assert np.all(rep.counts / 600 < rep.predicted_masses)
    assert abs(rep.tv_distance - 100 / 600) < 1e-15


def test_total_flux_leaf_independent():
    # breathing symmetric packet: a fixed wide box captures all mass on
    # every leaf, so the quadrature normalization is label-independent
    fol = GraphLeaf(TanhProfile(0.9, 0.7), validity_box=[[-40, 40]],
                    spatial_dims=1)
    factor = []
    xbar = fol.leaf_point(0.0, np.array([0.0]))
    for a in range(-10, 11):
        p = 0.25 * a
        md = make_mode([p], 1.0, 1, 1, D11)
        w = (np.exp(-(p) ** 2 / (4 * 0.4 ** 2))
             * np.exp(1j * minkowski_dot(md.four_momentum, xbar)))
        factor.append((w, md))
    psi = NParticleWavefunction.from_product_branches([(1.0, [factor])])
    zs = [LeafDensity(fol, s, psi, [[[-14.0, 14.0]]], 96).normalization()
          for s in (0.0, 1.5, 3.0)]
    for z in zs[1:]:
        assert abs(z - zs[0]) < 1e-6 * zs[0]


def test_flat_continuity_residual_product():
    psi = NParticleWavefunction([(1.0, (make_mode([0.8], 1.0, 1, 1, D11),
                                        make_mode([-0.3], 1.0, 1, 1, D11)))])
    grid = np.random.default_rng(3).uniform(-1, 1, size=(15, 2, 1))
    res = flat_continuity_residual(psi, 0.2, grid, 1e-3, 1e-3)
    assert np.max(np.abs(res)) < 1e-8


def test_flat_continuity_richardson():
    rng = np.random.default_rng(9)
    def rand_mode():
        return make_mode(rng.normal(0, 1, 1), 1.0, 1, 1, D11)
    psi = NParticleWavefunction([
        (1.0, (rand_mode(), rand_mode())),
        (0.7j, (rand_mode(), rand_mode())),
    ])
    grid = rng.uniform(-1.5, 1.5, size=(25, 2, 1))
    r1 = flat_continuity_residual(psi, 0.2, grid, 2e-2, 2e-2)
    r2 = flat_continuity_residual(psi, 0.2, grid, 1e-2, 1e-2)
    keep = np.abs(r1) > 1e-7
    assert np.any(keep)
    ratios = np.abs(r1[keep]) / np.abs(r2[keep])
    assert np.all((ratios > 3.2) & (ratios < 4.8))


def test_flat_continuity_zero_state():
    md = make_mode([0.4], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md, md)), (-1.0, (md, md))])
    grid = np.zeros((3, 2, 1))
    assert np.max(np.abs(flat_continuity_residual(psi, 0.0, grid,
                                                  1e-3, 1e-3))) == 0.0

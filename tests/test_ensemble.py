import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hbdsim import currents as cmod
from hbdsim import dynamics, ensemble
from hbdsim.checks import random_curved_foliation, random_state
from hbdsim.currents import currents_all_batch, density_batch, density_rho
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
)
from hbdsim.errors import (
    BoundaryLeak,
    ConsistencyError,
    EmptyMarginal,
    EnvelopeBreach,
    LabelOutOfRange,
    NoSamples,
    SamplerStall,
    SimulationError,
)
from hbdsim.foliation import FlatTime, GraphLeaf, TanhProfile
from hbdsim.geometry import SpinDimensionMode, minkowski_dot, minkowski_norm_sq
from hbdsim.scenario import bundled_scenario_path, load_scenario
from hbdsim.wavefunction import NParticleWavefunction, make_mode

from conftest import trajectory_rng

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


def normalization(dens):
    """Quadrature oracle: Z, the integral of the weight over the box, by
    the density's own Gauss-Legendre rule."""
    nodes, weights = ensemble._gauss_legendre_axes(dens.axis_boxes,
                                                   dens.quad_order)
    return float(np.sum(dens._integral(nodes, weights)))


def quadrature_mean(dens, axis):
    """Quadrature oracle: the mean of one joint-chart coordinate under the
    normalized density, by the density's own Gauss-Legendre rule with the
    coordinate folded into that axis's weights."""
    nodes, weights = ensemble._gauss_legendre_axes(dens.axis_boxes,
                                                   dens.quad_order)
    weights[axis] = weights[axis] * nodes[axis]
    return float(np.sum(dens._integral(nodes, weights))) / normalization(dens)


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


@pytest.mark.parametrize("seed", [0, 20260808, 2 ** 64 - 1, -20260808])
@pytest.mark.parametrize("dims", [1, 4])
def test_bulk_proposal_draws_equal_the_streams(seed, dims):
    # block j of sample i, computed in bulk, is the j-th block that
    # trajectory_rng(seed, i) draws, block after block; a negative seed is
    # masked to 64 bits by both. Every row of one call reads its own
    # (sample, block), so a round may mix blocks
    samples, wanted = [0, 1, 127, 10 ** 6], [0, 1, 2, 9999]
    ref = {}
    for i in samples:
        gen = trajectory_rng(seed, i)
        for j in range(wanted[-1] + 1):
            block = gen.random((ensemble.PROPOSAL_BLOCK, dims + 1))
            if j in wanted:
                ref[i, j] = block
    pairs = list(itertools.product(samples, wanted))
    got = ensemble._proposal_draws(seed, [i for i, _ in pairs],
                                   [j for _, j in pairs], dims)
    assert got.shape == (len(pairs), ensemble.PROPOSAL_BLOCK, dims + 1)
    for row, pair in zip(got, pairs):
        assert row.tobytes() == ref[pair].tobytes(), pair


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
    assert abs(normalization(dens) - 4.0) < 1e-12
    assert abs(dens.max_weight() - 1.0) < 1e-12
    assert abs(quadrature_mean(dens, 0)) < 1e-12


def test_scan_evaluates_psi_once_per_grid_point(monkeypatch):
    # the scan evaluates each particle's factors on that particle's own
    # axis points only (N * res points, not res ** N rows) and derives both
    # maxima from that one evaluation; the pair sums run in another order
    # than the row path's kernel, so the maxima agree to rounding
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

    def counting(x, slots=None):
        # x holds the points (n, P, 4) of the slots ``slots`` (all if None)
        points.extend((k, len(x_k)) for k, x_k in
                      zip(range(len(x)) if slots is None else slots, x))
        return slot_factors(x, slots)

    monkeypatch.setattr(psi, "_slot_factors", counting)
    scan = dens.scan()
    monkeypatch.undo()
    assert sorted(points) == [(0, res), (1, res)]

    mesh = np.meshgrid(np.linspace(-6.0, 5.0, res), np.linspace(-5.0, 6.0, res),
                       indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=-1)
    w = np.max(dens.weight_flat(u))
    assert abs(scan["max_weight"] - w) <= 1e-13 * w
    pts = fol.leaf_point(dens.s, dens.chart_tuples(u))
    rho = np.max(density_batch(psi.evaluate_batch(pts), fol.normal(pts), 2,
                               D11))
    assert abs(scan["max_rho"] - rho) <= 1e-13 * rho


def _tanh_pair_density(res):
    # a two-particle D11 state on a tanh leaf: two branches, one of them
    # with a two-mode factor
    fol = GraphLeaf(TanhProfile(0.8, 0.6), validity_box=[[-40, 40]],
                    spatial_dims=1)
    ma = make_mode([0.7], 1.0, 1, 1, D11)
    mb = make_mode([-0.5], 1.0, 1, 1, D11)
    psi = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, ma), (0.4, mb)], [(0.5j, mb)]]),
         (0.3, [[(1.0, mb)], [(1.0, ma)]])])
    return LeafDensity(fol, 0.0, psi, [[[-6.0, 5.0]], [[-5.0, 6.0]]], 16,
                       scan_resolution=res)


def test_scan_of_several_slabs_evaluates_factors_once(monkeypatch):
    # cut into slabs, the scan still evaluates each particle's factors once
    # on its own axis points, and gives the one-slab scan's bits
    res = 41
    whole = _tanh_pair_density(res).scan()
    dens = _tanh_pair_density(res)
    psi = dens.psi
    points, slabs = [], []
    slot_factors = psi._slot_factors
    cut = ensemble._slabs

    def counting(x, slots=None):
        points.extend((k, len(x_k)) for k, x_k in
                      zip(range(len(x)) if slots is None else slots, x))
        return slot_factors(x, slots)

    def recording(sizes):
        for rows, slab in cut(sizes):
            slabs.append(slab)
            yield rows, slab

    monkeypatch.setattr(ensemble, "GRID_POINTS", 301)
    monkeypatch.setattr(psi, "_slot_factors", counting)
    monkeypatch.setattr(ensemble, "_slabs", recording)
    scan = dens.scan()
    monkeypatch.undo()
    assert sorted(points) == [(0, res), (1, res)]
    assert len(slabs) == 6                 # runs of 7, 7, 7, 7, 7, 6 rows
    assert scan["max_weight"] == whole["max_weight"]
    assert scan["max_rho"] == whole["max_rho"]
    assert np.array_equal(scan["argmax"], whole["argmax"])


def _headline_density():
    sc = load_scenario(bundled_scenario_path("curved_n2_entangled"))
    eb = sc.ensemble
    return LeafDensity(sc.foliation, sc.integration.s0, sc.psi, eb.boxes,
                       eb.quadrature_order, eb.scan_resolution)


def _d31_one_particle_density():
    rng = np.random.default_rng(31)
    return LeafDensity(random_curved_foliation(rng, 3), 0.3,
                       random_state(rng, 1, D31),
                       [[[-3.0, 3.0], [-2.5, 3.0], [-3.0, 2.0]]], 8,
                       scan_resolution=21)


def _d11_three_particle_density():
    rng = np.random.default_rng(113)
    return LeafDensity(random_curved_foliation(rng, 1), -0.2,
                       random_state(rng, 3, D11),
                       [[[-3.0, 3.0]], [[-2.5, 3.0]], [[-3.0, 2.5]]], 10)


def _grid_quantities(dens):
    scan = dens.scan()
    edges, masses = dens.bin_masses(3)
    u = np.random.default_rng(5).uniform(size=(7, 64, dens.dims))
    u = dens.axis_boxes[:, 0] + u * (dens.axis_boxes[:, 1]
                                     - dens.axis_boxes[:, 0])
    return {
        "scan": [scan["max_weight"], scan["max_rho"], scan["argmax"]],
        "normalization": normalization(dens),
        "quadrature_mean": [quadrature_mean(dens, a)
                            for a in range(dens.dims)],
        "bin_masses": [masses] + edges,
        "marginal_cdf": [c for a in range(dens.dims)
                         for c in dens.marginal_cdf(a)],
        "boundary_relative_flux": dens.boundary_relative_flux(),
        "weight": dens.weight_flat(u),
    }


@pytest.mark.parametrize("make", [_headline_density,
                                  _d31_one_particle_density,
                                  _d11_three_particle_density],
                         ids=["headline", "d31_n1", "d11_n3"])
def test_grid_quantities_do_not_depend_on_the_slab_size(monkeypatch, make):
    # slabs of a small odd number of points (runs that end short, slabs
    # cut in the first or in a later particle's points, weight blocks of
    # the sampler's proposal rows) give a one-slab run's bits
    monkeypatch.setattr(ensemble, "GRID_POINTS", 1 << 40)
    whole = _grid_quantities(make())
    monkeypatch.setattr(ensemble, "GRID_POINTS", 301)
    slabbed = _grid_quantities(make())
    for name, ref in whole.items():
        got = slabbed[name]
        if isinstance(ref, list):
            assert len(got) == len(ref), name
            for a, b in zip(got, ref):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        else:
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), name


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_headline_grid_memory_is_bounded():
    # the headline's 401 x 401 scan and its 2049 x 64 marginal CDF grid
    # hold their full-grid arrays (1.3 MB and 1.0 MB each) and one slab's
    # temporaries; evaluated whole, psi and the broadcast normals alone
    # took 29.8 MB and 24.7 MB
    dens = _headline_density()
    assert dens.scan_resolution ** 2 > 8 * ensemble.GRID_POINTS
    assert _traced_peak(dens.scan) < 8 * 2 ** 20
    assert _traced_peak(lambda: dens.marginal_cdf(0)) < 8 * 2 ** 20


def test_weight_memory_is_bounded():
    # 2048 samples' blocks at once: 131072 proposal rows, weighed in blocks
    # of dynamics.BATCH_SIZE rows
    dens = _headline_density()
    u = np.random.default_rng(3).uniform(size=(2048, 64, dens.dims))
    u = dens.axis_boxes[:, 0] + u * (dens.axis_boxes[:, 1]
                                     - dens.axis_boxes[:, 0])
    w = []
    peak = _traced_peak(lambda: w.append(dens.weight_flat(u)))
    assert w[0].shape == (2048, 64)
    assert peak < 8 * 2 ** 20


def _at_order(dens, order):
    return LeafDensity(dens.foliation, dens.s, dens.psi, dens.boxes, order,
                       flat_normals=dens.flat_normals)


def test_three_particle_marginal_cdf_memory_is_bounded():
    # an order-64 D11 N=3 marginal CDF integrates 2049 x 64 x 64 joint
    # points from per-particle pieces on 2049 + 64 + 64 own points; formed
    # on the joint grid, its weight array alone took 67 MB
    dens = _at_order(_d11_three_particle_density(), 64)
    for a in range(dens.dims):
        assert _traced_peak(lambda: dens.marginal_cdf(a)) < 8 * 2 ** 20


def test_grid_path_keeps_the_imaginary_residue_guard(monkeypatch):
    # a non-Hermitian one-particle operator table gives the diagonal
    # branch bilinears an imaginary part: every grid quantity must raise
    # rather than silently drop it
    dens = _tanh_pair_density(21)
    table = cmod._bilinear_table(1, D11)
    skewed = cmod._BilinearTable(table.perm, table.phase * np.exp(0.05j))
    monkeypatch.setattr(cmod, "_bilinear_table", lambda n, mode: skewed)
    for quantity in (dens.scan, lambda: normalization(dens),
                     lambda: dens.bin_masses(2), lambda: dens.marginal_cdf(1),
                     dens.boundary_relative_flux):
        with pytest.raises(ConsistencyError):
            quantity()


def _dense_weight(dens, u):
    # the weight at one joint chart point u (dims,): rho from the dense
    # Kronecker operator times each particle's area element
    xi = dens.chart_tuples(u)
    pts = dens.foliation.leaf_point(dens.s, xi)
    normals = dens.foliation.normal(pts)
    if dens.flat_normals:
        normals = np.tile([1.0, 0.0, 0.0, 0.0], (len(pts), 1))
    area = np.prod([dens.foliation.area_element(dens.s, x) for x in xi])
    return density_rho(dens.psi, pts, normals) * area


def _dense_sum(dens, boxes, order, fixed=None):
    # the weight times the Gauss-Legendre weights summed over the tensor
    # grid of ``boxes``, one joint node at a time; ``fixed`` = (axis,
    # value) inserts a coordinate that is not integrated
    nodes, w = gauss_legendre_grid(boxes, order)
    total = 0.0
    for x, wx in zip(nodes, w):
        if fixed is not None:
            x = np.insert(x, fixed[0], fixed[1])
        total += _dense_weight(dens, x) * wx
    return total


@pytest.mark.parametrize("build, bins, axis", [
    (lambda: _at_order(_d31_one_particle_density(), 2), 2, 1),
    (lambda: _at_order(_d11_three_particle_density(), 2), 2, 2),
    (lambda: _at_order(_graph_n2(True), 2), 3, 0),
], ids=["d31_n1", "d11_n3", "graph_n2_flat_normals"])
def test_grid_integrals_match_a_dense_oracle(build, bins, axis):
    # Z, the bin masses and a marginal CDF against sums over the joint
    # nodes of the dense Kronecker rho, which shares no code with the
    # branch-pair pieces or the bilinear kernel
    dens = build()
    boxes = dens.axis_boxes
    z = _dense_sum(dens, boxes, dens.quad_order)
    assert abs(normalization(dens) - z) <= 1e-12 * abs(z)

    edges, masses = dens.bin_masses(bins)
    ref = np.empty(masses.shape)
    for cell in itertools.product(range(bins), repeat=dens.dims):
        ref[cell] = _dense_sum(dens, [e[i:i + 2] for e, i in zip(edges, cell)],
                               ensemble.BIN_ORDER)
    ref /= ref.sum()
    assert np.max(np.abs(masses - ref)) <= 1e-12 * np.max(ref)

    grid, cdf = dens.marginal_cdf(axis)
    other = np.delete(boxes, axis, axis=0)
    pdf = np.array([_dense_sum(dens, other, dens.quad_order, (axis, x))
                    for x in grid])
    ref = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1])
                                           * (grid[1] - grid[0]))])
    assert np.max(np.abs(cdf - ref / ref[-1])) <= 1e-12


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
def test_grid_consumers_match_row_path(build):
    # the tensor-grid path (per-particle branch bilinears, summed over the
    # branch pairs) agrees with evaluating psi and the bilinear kernel at
    # every joint grid point: the sums run in another order, so the values
    # agree to rounding, and the scan finds the same grid point
    dens = build()
    bins = 4
    ref = _row_path_quantities(dens, bins)

    def close(got, want, scale=None):
        got, want = np.asarray(got), np.asarray(want)
        bound = 1e-13 * (np.max(np.abs(want)) if scale is None else scale)
        return got.shape == want.shape and np.max(np.abs(got - want)) <= bound

    scan = dens.scan()
    assert close(scan["max_weight"], ref["max_weight"])
    assert close(scan["max_rho"], ref["max_rho"])
    assert np.array_equal(scan["argmax"], ref["argmax"])
    assert close(normalization(dens), ref["z"])
    widths = dens.axis_boxes[:, 1] - dens.axis_boxes[:, 0]
    for a in range(dens.dims):
        assert close(quadrature_mean(dens, a), ref["means"][a], widths[a])
    _, masses = dens.bin_masses(bins)
    assert close(masses, ref["masses"])
    for a in range(dens.dims):
        _, cdf = dens.marginal_cdf(a)
        assert close(cdf, ref["cdfs"][a])
    assert ref["flux"] > 0.0
    assert close(dens.boundary_relative_flux(), ref["flux"])


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
    mean_q = quadrature_mean(dens, 0)
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


def _one_sample_at_a_time(dens, m_samples, seed, envelope):
    # each sample alone, block after block of its own stream, until a
    # proposal is accepted
    lo = dens.axis_boxes[:, 0]
    span = dens.axis_boxes[:, 1] - lo
    out = []
    for i in range(m_samples):
        gen = trajectory_rng(seed, i)
        while True:
            draws = gen.random((ensemble.PROPOSAL_BLOCK, dens.dims + 1))
            proposals = lo + draws[:, :dens.dims] * span
            accept = draws[:, dens.dims] * envelope < dens.weight_flat(
                proposals)
            if accept.any():
                out.append(proposals[accept.argmax()])
                break
    return np.array(out)


@pytest.mark.parametrize("width", [1, 3, 40])
def test_window_sampler_reads_each_stream_in_block_order(monkeypatch, width):
    # however many samples share a round (a window of 1, 3 or all 40), each
    # sample is its own stream's first accepted proposal, block by block;
    # the headline accepts about half its blocks, so many samples draw
    # several
    dens = _headline_density()
    dens.scan()
    monkeypatch.setattr(ensemble, "GRID_POINTS",
                        width * ensemble.PROPOSAL_BLOCK)
    ss = sample_leaf(dens, 40, seed=21)
    ref = _one_sample_at_a_time(dens, 40, 21, ss.envelope)
    assert ss.chart.reshape(40, -1).tobytes() == ref.tobytes()


@pytest.mark.parametrize("width", [1, None])
def test_breach_after_a_stall_still_rescans(monkeypatch, width):
    # sample 0 never accepts (it stalls) and sample 2 breaches the envelope
    # in its third block: the breach wins, as when every sample draws each
    # round, whether sample 0 has left the window before sample 2 enters
    # (a window of one) or not
    dens, rescans = _sabotaged_density(monkeypatch, 0.0)
    lo, hi = dens.axis_boxes[0]
    gen = trajectory_rng(3, 2)
    for _ in range(3):
        breach = lo + gen.random((ensemble.PROPOSAL_BLOCK, 2))[:, 0] * (hi - lo)
    monkeypatch.setattr(dens, "weight_flat", lambda u: np.where(
        np.isin(u[..., 0], breach), np.inf, 0.0))
    if width:
        monkeypatch.setattr(ensemble, "GRID_POINTS",
                            width * ensemble.PROPOSAL_BLOCK)
    with pytest.raises(EnvelopeBreach):
        sample_leaf(dens, 3, seed=3)
    assert len(rescans) == MAX_RESTARTS - 1


def test_headline_sampler_weighs_up_to_each_first_acceptance(monkeypatch):
    # the 2048 headline at the shipped seed: each round is one Philox pass
    # and one weight call over the same rows, and each sample weighs a
    # prefix of its own stream, whole blocks, up to the end of the round
    # of its first acceptance, which is its sample. Stopping at that
    # acceptance's 16 proposals weighed 127088 rows
    dens = _headline_density()
    dens.scan()
    passes, weighed = [], []
    draws, weight_flat = ensemble._proposal_draws, dens.weight_flat

    def recording_draws(seed, samples, blocks, dims):
        passes.append(np.asarray(samples))
        return draws(seed, samples, blocks, dims)

    def recording_weight(u):
        weighed.append(np.array(u))
        return weight_flat(u)

    monkeypatch.setattr(ensemble, "_proposal_draws", recording_draws)
    monkeypatch.setattr(dens, "weight_flat", recording_weight)
    ss = sample_leaf(dens, 2048, 20260808)
    monkeypatch.setattr(dens, "weight_flat", weight_flat)
    block = ensemble.PROPOSAL_BLOCK
    assert len(passes) == len(weighed)
    drawn = sum(len(p) for p in passes) * block
    assert drawn == sum(u.size // dens.dims for u in weighed)
    assert drawn == ss.proposals == 127920 and ss.attempts == 1
    # each round's samples: pass r draws their blocks in window order,
    # ``len(p) // len(u)`` blocks each
    window = [p[::len(p) // len(u)] for p, u in zip(passes, weighed)]
    owner = np.concatenate([np.repeat(w, u.shape[1])
                            for w, u in zip(window, weighed)])
    last = np.zeros(2048, dtype=int)     # the rows of each one's last round
    for w, u in zip(window, weighed):
        last[w] = u.shape[1]
    rows = np.concatenate([u.reshape(-1, dens.dims) for u in weighed])
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=2048)
    lo = dens.axis_boxes[:, 0]
    span = dens.axis_boxes[:, 1] - lo
    streams, bars = [], []
    for i, n in enumerate(counts):
        assert n and n % block == 0
        stream = trajectory_rng(20260808, i).random((n, dens.dims + 1))
        streams.append(lo + stream[:, :dens.dims] * span)
        bars.append(stream[:, dens.dims] * ss.envelope)
    assert rows[order].tobytes() == np.concatenate(streams).tobytes()
    accept = np.split(np.concatenate(bars) < weight_flat(
        np.concatenate(streams)), np.cumsum(counts)[:-1])
    first = np.array([int(a.argmax()) for a in accept])
    assert all(a.any() for a in accept)
    assert np.all(first >= counts - last)
    assert ss.chart.reshape(2048, -1).tobytes() == np.array(
        [st[f] for st, f in zip(streams, first)]).tobytes()


def test_a_lone_sample_draws_blocks_ahead(monkeypatch):
    # a lone sample that never accepts draws one weight block of
    # dynamics.BATCH_SIZE rows per pass and weighs it in one call, in
    # stream order, and stalls after exactly 640000 proposals: 625 passes
    # of 64 blocks
    dens, rescans = _sabotaged_density(monkeypatch, 0.0)
    passes, weighed = [], []
    draws = ensemble._proposal_draws

    def recording_draws(seed, samples, blocks, dims):
        passes.append(list(blocks))
        return draws(seed, samples, blocks, dims)

    def recording_weight(u):
        weighed.append(np.array(u))
        return np.zeros(u.shape[:-1])

    monkeypatch.setattr(ensemble, "_proposal_draws", recording_draws)
    monkeypatch.setattr(dens, "weight_flat", recording_weight)
    with pytest.raises(SamplerStall):
        sample_leaf(dens, 1, seed=3)
    assert rescans == []
    ahead = dynamics.BATCH_SIZE // ensemble.PROPOSAL_BLOCK
    assert ahead == 64 and len(passes) == 625
    assert passes == [list(range(b, b + ahead)) for b in range(0, 40000, ahead)]
    assert {u.shape for u in weighed} == {(1, 1024, 1)}
    lo, hi = dens.axis_boxes[0]
    stream = lo + trajectory_rng(3, 0).random((640000, 2))[:, 0] * (hi - lo)
    assert np.concatenate(weighed).ravel().tobytes() == stream.tobytes()


def test_sample_set_counts_every_attempt(monkeypatch):
    # a sabotaged envelope breaches, the rescan recovers: the set counts
    # both attempts and every proposal weighed in them
    fol = FlatTime(1)
    dens = LeafDensity(fol, 0.0, packet_psi(fol, sigma_p=0.5),
                       [[[-7.0, 8.0]]], 32)
    dens.scan()
    dens._scan["max_weight"] /= 10.0
    rows = []
    weight_flat = dens.weight_flat
    monkeypatch.setattr(dens, "weight_flat", lambda u: rows.append(
        u.shape[0] * u.shape[1]) or weight_flat(u))
    ss = sample_leaf(dens, 100, seed=13)
    assert ss.attempts == 2
    assert ss.proposals == sum(rows) > 0
    assert ss.proposals % ensemble.PROPOSAL_BLOCK == 0


def test_sampling_at_a_negative_seed_equals_the_oracle():
    # a negative seed (as ``seed_override`` allows) keys every stream with
    # its 64-bit mask, as trajectory_rng does
    dens = _headline_density()
    dens.scan()
    ss = sample_leaf(dens, 40, seed=-20260808)
    ref = _one_sample_at_a_time(dens, 40, -20260808, ss.envelope)
    assert ss.chart.reshape(40, -1).tobytes() == ref.tobytes()


def test_sampler_memory_does_not_grow_with_the_sample_count():
    # a window of GRID_POINTS // PROPOSAL_BLOCK samples draws one round of
    # proposals in one pass, weighed in blocks of dynamics.BATCH_SIZE
    # rows. The peak, 2.57 MB, is the boundary flux's; the rounds
    # themselves peak at 1.87 MB. The bound leaves 0.43 MB of margin. With
    # one Philox generator per sample and 8192-row weight blocks the
    # rounds peaked at 3.2-3.8 MB, and with all 2048 samples pending at
    # once the proposals alone took 10 MB
    dens = _headline_density()
    dens.scan()
    assert _traced_peak(lambda: sample_leaf(dens, 2048, 20260808)) < 3 * 2 ** 20


def test_equilibrium_never_imports_numpy_random(tmp_path):
    # the sampler computes its Philox streams itself, so a whole
    # ``equilibrium`` run in a fresh interpreter leaves numpy.random
    # unimported
    raw = json.loads(bundled_scenario_path("curved_n1_packet").read_text())
    raw["ensemble"]["size"] = 50
    path = tmp_path / "small.json"
    path.write_text(json.dumps(raw))
    code = ("import sys\n"
            "from hbdsim.cli import run_equilibrium\n"
            "from hbdsim.scenario import load_scenario\n"
            f"run_equilibrium(load_scenario({str(path)!r}), "
            f"{str(tmp_path / 'out')!r})\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(ensemble.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
    assert (tmp_path / "out" / "report.json").is_file()


def _halting_packet(labels=None, workers=1):
    # a spreading packet under a node threshold between its starts'
    # densities: the tails halt at a node at once, two trajectories halt
    # mid-run (at steps 16 and 11 of 20) and the core runs through
    fol = FlatTime(1)
    pts0 = fol.leaf_point(0.0, np.linspace(-4.0, 4.0, 23)[:, None, None])
    return integrate_ensemble(packet_psi(fol, p0=0.9, sigma_p=0.6), fol,
                              pts0, 0.0, 1.0, 0.05, node_threshold=8.0,
                              workers=workers, keep_labels=labels)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_crossings_of_kept_labels_equal_the_whole_paths(monkeypatch,
                                                         workers):
    # at a grid label, between two and at s_end
    labels = [0.5, 0.525, 1.0]
    monkeypatch.setattr(dynamics, "BATCH_SIZE", 7)
    full = _halting_packet()
    kept = _halting_packet(labels, workers)
    assert kept.columns.tolist() == [10, 11, 19, 20]
    assert kept.points.shape == (23, 4, 1, 4)
    assert np.array_equal(kept.valid_steps, full.valid_steps)
    assert kept.events == full.events
    assert sorted(full.valid_steps[(full.valid_steps > 0)
                                   & (full.valid_steps < 20)]) == [11, 16]
    for s in labels:
        a, b = crossings(full, s), crossings(kept, s)
        assert b.chart.tobytes() == a.chart.tobytes()
        assert np.array_equal(b.trajectory_ids, a.trajectory_ids)
        assert np.array_equal(b.excluded_ids, a.excluded_ids)
        assert b.n_excluded >= 12
    # the trajectory halted at step 11 crosses 0.525, not s_end
    assert 16 in crossings(kept, 0.525).trajectory_ids
    assert 16 in crossings(kept, 1.0).excluded_ids


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_events_do_not_depend_on_the_batch_size(monkeypatch, workers):
    # rows halt in several batches of 7 at the same labels; in one batch
    # or in many, the events come sorted by (s, trajectory)
    whole = _halting_packet(workers=workers).events
    monkeypatch.setattr(dynamics, "BATCH_SIZE", 7)
    batched = _halting_packet(workers=workers).events
    assert len(whole) >= 12
    assert batched == whole
    assert whole == sorted(whole, key=lambda e: (e[1], e[0]))


def test_crossings_of_an_unkept_label_raise():
    kept = _halting_packet([0.5])
    assert kept.columns.tolist() == [10, 11]
    crossings(kept, 0.5)
    for s in (0.3, 0.575, 1.0):
        with pytest.raises(LabelOutOfRange):
            crossings(kept, s)
    with pytest.raises(LabelOutOfRange):
        _halting_packet([1.5])


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
    assert cs.n_excluded == len(ens.points) - len(cs.chart)
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
    zs = [normalization(LeafDensity(fol, s, psi, [[[-14.0, 14.0]]], 96))
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

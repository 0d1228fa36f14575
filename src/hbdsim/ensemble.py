"""Quantum-equilibrium machinery.

This module owns everything statistical: the crossing density rho times the
chart area element restricted to a leaf and a sampling box, reproducible
rejection sampling of initial configurations, extraction of leaf crossings
from trajectory ensembles, and the binned total-variation /
Kolmogorov-Smirnov comparison of empirical crossings against the predicted
leaf density. A finite-difference check of the flat-frame continuity
equation lives here too.

Every leaf-density grid (scan, quadrature, bin masses, marginal CDFs and
the boundary-flux faces) is a tensor grid evaluated factor by factor. The
grid sizes and the sampler's settings are the module constants below, not
per-call parameters, so every grid stays within the caps that scenario
parsing checks.

Randomness comes from counter-based Philox streams keyed by
(master seed, trajectory index); every trajectory consumes only its own
stream, so serial and parallel runs of any worker count produce identical
samples bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .currents import currents_all_batch, density_batch
from .errors import (BoundaryLeak, EmptyMarginal, EnvelopeBreach,
                     LabelOutOfRange, NoSamples, SamplerStall)
from .geometry import alpha, lift_to_particle, minkowski_norm_sq
from .dynamics import TrajectoryEnsemble

__all__ = [
    "trajectory_rng",
    "LeafDensity",
    "SampleSet",
    "sample_leaf",
    "CrossingSet",
    "crossings",
    "EquivarianceReport",
    "equivariance_test",
    "flat_continuity_residual",
]

BOUNDARY_FLUX_TOLERANCE = 1e-6         # largest relative flux sampling takes
MAX_QUADRATURE_NODES = 50_000_000      # cap on the points of one grid
BIN_ORDER = 8            # Gauss-Legendre nodes per axis in each bin
CDF_RESOLUTION = 2049    # points of the marginal CDF grid
PROPOSAL_BLOCK = 64      # proposals drawn per pending sample and round
ENVELOPE_FACTOR = 1.1    # rejection envelope over the scanned max weight
MAX_RESTARTS = 3         # sampling attempts, each after a finer rescan
RESCAN_FACTOR = 2        # scan resolution growth per rescan


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one trajectory's private stream."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gauss_legendre_axes(boxes, order):
    # per-axis Gauss-Legendre nodes and weights over a list of intervals
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    axes_nodes = []
    axes_weights = []
    for lo, hi in np.asarray(boxes, dtype=float):
        half = 0.5 * (hi - lo)
        axes_nodes.append(lo + half * (base_x + 1.0))
        axes_weights.append(half * base_w)
    return axes_nodes, axes_weights


def _outer_product(factors):
    # 1 * f_0 * f_1 * ... on the tensor grid of the 1-D factors, in order
    out = np.ones(tuple(len(f) for f in factors))
    for a, f in enumerate(factors):
        out = out * f.reshape((-1,) + (1,) * (len(factors) - 1 - a))
    return out


def _auto_resolution(dims):
    return {1: 4097, 2: 401, 3: 61, 4: 23}.get(dims, 11)


class LeafDensity:
    """rho times the chart area element on one leaf, over a sampling box.

    The unnormalized weight at a chart tuple (xi_1, ..., xi_N) is
    rho(points, normals) * prod_k area_element(s, xi_k); the normalization
    constant Z is computed by tensor Gauss-Legendre quadrature over the box.
    With ``flat_normals=True`` the leaf normals are replaced by (1,0,0,0),
    which detunes the density: that variant exists purely as the negative
    control of the equivariance test.

    Every grid quantity (the scan, the normalization and quadrature means,
    the bin masses, the marginal CDFs and the boundary flux) runs on a
    tensor grid of per-axis nodes: each particle's leaf points, normals and
    area elements are computed on its own axes, and psi takes the
    particles' points as an outer product, so each factor is evaluated once
    per own point rather than once per joint grid point. Only ``weight``
    evaluates one row per configuration, for the sampler's random
    proposals (``chart_tuples`` serves those rows).
    """

    def __init__(self, foliation, s, psi, boxes, quad_order=64,
                 scan_resolution=None, flat_normals=False):
        self.foliation = foliation
        self.s = float(s)
        self.psi = psi
        boxes = np.asarray(boxes, dtype=float)
        sd = foliation.spatial_dims
        if boxes.shape != (psi.n_particles, sd, 2):
            raise ValueError(
                f"boxes must have shape ({psi.n_particles}, {sd}, 2)")
        self.boxes = boxes
        self.dims = psi.n_particles * sd
        self.axis_boxes = boxes.reshape(self.dims, 2)
        self.quad_order = int(quad_order)
        self.scan_resolution = (int(scan_resolution) if scan_resolution
                                else _auto_resolution(self.dims))
        self.flat_normals = bool(flat_normals)
        if self.quad_order ** self.dims > MAX_QUADRATURE_NODES:
            raise ValueError("joint quadrature grid too large; lower the order")
        self._scan = None
        self._z = None

    # -- geometry plumbing --------------------------------------------------
    def chart_tuples(self, flat):
        """(..., dims) chart vectors -> (..., N, sd) per-particle coordinates."""
        flat = np.asarray(flat, dtype=float)
        sd = self.foliation.spatial_dims
        return flat.reshape(flat.shape[:-1] + (self.psi.n_particles, sd))

    def _normals(self, pts):
        if self.flat_normals:
            n = np.zeros(pts.shape)
            n[..., 0] = 1.0
            return n
        return self.foliation.normal(pts)

    def weight(self, xi):
        """Unnormalized sampling weight at chart tuples (..., N, sd)."""
        xi = np.asarray(xi, dtype=float)
        pts = self.foliation.leaf_point(self.s, xi)
        vals = self.psi.evaluate_batch(pts)
        rho = density_batch(vals, self._normals(pts), self.psi.n_particles,
                            self.psi.mode)
        area = np.ones(xi.shape[:-2])
        for k in range(self.psi.n_particles):
            area = area * self.foliation.area_element(self.s, xi[..., k, :])
        return rho * area

    def weight_flat(self, u):
        return self.weight(self.chart_tuples(u))

    def _slot(self, k, a):
        # particle k's per-point array (P_k, ...) shaped for the tensor grid
        n = self.psi.n_particles
        return a.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k) + a.shape[1:])

    def _grid_psi(self, axes):
        # on the tensor grid of the per-axis 1-D nodes ``axes``: each
        # particle's leaf points (P_k, 4) on its own axes, psi (P_0, ...,
        # P_{N-1}, D) from those points as an outer product over the
        # particles, and the product of the area elements, shape
        # (len(axes[0]), ...)
        sd = self.foliation.spatial_dims
        points, areas = [], []
        for k in range(self.psi.n_particles):
            mesh = np.meshgrid(*axes[k * sd:(k + 1) * sd], indexing="ij")
            xi = np.stack([m.ravel() for m in mesh], axis=-1)
            points.append(self.foliation.leaf_point(self.s, xi))
            areas.append(self.foliation.area_element(self.s, xi))
        vals = self.psi.evaluate_slots(
            [self._slot(k, p) for k, p in enumerate(points)])
        shape = tuple(len(a) for a in axes)
        return points, vals, _outer_product(areas).reshape(shape)

    def _grid_normals(self, normals, vals):
        # each particle's normals (P_k, 4) broadcast to psi's grid
        n = self.psi.n_particles
        out = np.empty(vals.shape[:-1] + (n, 4))
        for k in range(n):
            out[..., k, :] = self._slot(k, normals[k])
        return out

    def _grid_rho_area(self, axes):
        # rho and the area product on the tensor grid of ``axes``; each
        # particle's factors and normals are computed on its own points
        points, vals, area = self._grid_psi(axes)
        normals = self._grid_normals([self._normals(p) for p in points], vals)
        rho = density_batch(vals, normals, self.psi.n_particles,
                            self.psi.mode)
        return rho.reshape(area.shape), area

    # -- scans and integrals -------------------------------------------------
    def _scan_axes(self, resolution):
        return [np.linspace(lo, hi, resolution) for lo, hi in self.axis_boxes]

    def scan(self):
        """Grid maxima of the weight and of rho over the box (cached)."""
        if self._scan is None:
            axes = self._scan_axes(self.scan_resolution)
            rho, area = self._grid_rho_area(axes)
            w = rho * area
            imax = np.unravel_index(np.argmax(w), w.shape)
            self._scan = {
                "max_weight": float(w[imax]),
                "max_rho": float(np.max(rho)),
                "argmax": np.array([a[i] for a, i in zip(axes, imax)]),
            }
        return self._scan

    def rescan(self):
        """Redo the scan ``RESCAN_FACTOR`` times finer; ``EnvelopeBreach``
        if that grid would exceed ``MAX_QUADRATURE_NODES`` points."""
        resolution = int(self.scan_resolution * RESCAN_FACTOR) + 1
        if resolution ** self.dims > MAX_QUADRATURE_NODES:
            raise EnvelopeBreach(
                f"a rescan at resolution {resolution} would exceed "
                f"{MAX_QUADRATURE_NODES} grid points")
        self.scan_resolution = resolution
        self._scan = None
        return self.scan()

    def max_weight(self):
        return self.scan()["max_weight"]

    def max_rho(self):
        return self.scan()["max_rho"]

    def _quadrature(self):
        # Gauss-Legendre nodes per axis and weight * quadrature weight on
        # their tensor grid, flattened in C order
        axes, weights = _gauss_legendre_axes(self.axis_boxes, self.quad_order)
        rho, area = self._grid_rho_area(axes)
        return axes, (rho * area * _outer_product(weights)).ravel()

    def normalization(self):
        """Z = integral of the weight over the box (Gauss-Legendre, cached)."""
        if self._z is None:
            self._z = float(np.sum(self._quadrature()[1]))
        return self._z

    def quadrature_mean(self, axis):
        """Mean of one joint-chart coordinate under the normalized density."""
        axes, w = self._quadrature()
        shape = (1,) * axis + (-1,) + (1,) * (self.dims - 1 - axis)
        coord = np.broadcast_to(axes[axis].reshape(shape),
                                tuple(len(a) for a in axes)).ravel()
        return float(np.sum(w * coord) / np.sum(w))

    def bin_masses(self, bins_per_axis):
        """Normalized predicted masses on a regular joint binning.

        Each bin is integrated with ``BIN_ORDER`` Gauss-Legendre nodes per
        axis. Returns (edges per axis, masses array of shape
        (bins,)*dims); the masses are normalized to sum to one over the box.
        """
        bins = int(bins_per_axis)
        edges = [np.linspace(lo, hi, bins + 1) for lo, hi in self.axis_boxes]
        base_x, base_w = np.polynomial.legendre.leggauss(BIN_ORDER)
        axes_nodes = []
        axes_weights = []
        for e in edges:
            half = 0.5 * np.diff(e)
            mid = 0.5 * (e[:-1] + e[1:])
            nodes = mid[:, None] + half[:, None] * base_x[None, :]
            axes_nodes.append(nodes.ravel())
            axes_weights.append(half[:, None] * base_w[None, :])
        rho, area = self._grid_rho_area(axes_nodes)
        w = (rho * area).reshape(
            tuple(s for _ in range(self.dims) for s in (bins, BIN_ORDER)))
        for a in range(self.dims):
            shape = [1] * w.ndim
            shape[2 * a] = bins
            shape[2 * a + 1] = BIN_ORDER
            w = w * axes_weights[a].reshape(shape)
        masses = w.sum(axis=tuple(range(1, 2 * self.dims, 2))
                       if self.dims > 0 else ())
        total = masses.sum()
        return edges, masses / total

    def marginal_cdf(self, axis):
        """CDF of one joint coordinate on a fine grid (trapezoid-integrated).

        The grid has ``CDF_RESOLUTION`` points; the other coordinates are
        integrated out with the density's quadrature order.
        """
        lo, hi = self.axis_boxes[axis]
        grid = np.linspace(lo, hi, CDF_RESOLUTION)
        axes, weights = _gauss_legendre_axes(self.axis_boxes, self.quad_order)
        axes[axis] = grid
        del weights[axis]
        rho, area = self._grid_rho_area(axes)
        # the marginal axis first and the others in order, C-contiguous, so
        # that each row sums over the cross nodes in quadrature order
        w = np.ascontiguousarray(np.moveaxis(rho * area, axis, 0))
        pdf = np.sum(w.reshape(CDF_RESOLUTION, -1)
                     * _outer_product(weights).ravel(), axis=-1)
        dx = grid[1] - grid[0]
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
        if cdf[-1] <= 0:
            raise EmptyMarginal("marginal has no mass on the box")
        return grid, cdf / cdf[-1]

    def boundary_relative_flux(self):
        """Largest outward probability flux through the box boundary,
        relative to the peak weight.

        The pointwise leakage rate through the face where coordinate a of
        particle k sits at its box edge is weight * (outward chart velocity)
        = prod(area) * (chart component of j_k) / |df(X_k)|, which is
        division-free and well defined even near nodes. A rest-like state
        (no flux anywhere) passes trivially however its weight looks at the
        boundary; a traveling packet passes only if its tails are negligible
        there. Each face is a tensor grid of the scan's kind with its own
        axis pinned to the edge, and the currents use the foliation's true
        normals even for a ``flat_normals`` density.
        """
        sd = self.foliation.spatial_dims
        n = self.psi.n_particles
        res = _auto_resolution(max(self.dims - 1, 1))
        worst = 0.0
        for a in range(self.dims):
            k, comp = divmod(a, sd)
            for side, edge in enumerate(self.axis_boxes[a]):
                axes = self._scan_axes(res)
                axes[a] = np.array([edge])
                points, vals, area = self._grid_psi(axes)
                normals = self._grid_normals(
                    [self.foliation.normal(p) for p in points], vals)
                j = currents_all_batch(vals, normals, n, self.psi.mode)
                grad_norm = np.sqrt(minkowski_norm_sq(
                    self.foliation.gradient(points[k])))
                chart_v = self.foliation.chart_velocity(
                    self._slot(k, points[k]), j[..., k, :])[..., comp]
                outward = chart_v if side == 1 else -chart_v
                flux = (area.reshape(chart_v.shape) * np.maximum(outward, 0.0)
                        / self._slot(k, grad_norm))
                worst = max(worst, float(np.max(flux)))
        return worst / self.max_weight()


@dataclass
class SampleSet:
    """Initial-leaf samples in chart coordinates plus their provenance."""

    chart: np.ndarray            # (M, N, sd)
    density: LeafDensity
    seed: int
    envelope: float

    @property
    def n_samples(self):
        return self.chart.shape[0]

    def points(self):
        """The samples as spacetime points (M, N, 4) on the density's leaf."""
        return self.density.foliation.leaf_point(self.density.s, self.chart)


def sample_leaf(density: LeafDensity, m_samples: int, seed: int) -> SampleSet:
    """Draw M independent configurations from the leaf density.

    Sampling refuses to start when the box boundary's relative flux is not
    below ``BOUNDARY_FLUX_TOLERANCE``. Rejection sampling then uses a
    uniform proposal over the box and an envelope of (scanned max weight) *
    ``ENVELOPE_FACTOR``. Each sample i consumes only the Philox stream keyed
    by (seed, i), in blocks of ``PROPOSAL_BLOCK`` proposals, so the result
    is reproducible bit for bit for any execution order. A weight above the
    envelope triggers a finer rescan and a full deterministic restart, at
    most ``MAX_RESTARTS`` attempts in all. A sample that accepts no
    proposal within 10000 rounds raises ``SamplerStall`` at once.
    """
    if m_samples < 1:
        raise ValueError("need at least one sample")
    leak = density.boundary_relative_flux()
    if not leak < BOUNDARY_FLUX_TOLERANCE:
        raise BoundaryLeak(
            f"boundary flux {leak:.3e} of peak weight exceeds "
            f"{BOUNDARY_FLUX_TOLERANCE:.1e}; enlarge the sampling box")

    dims = density.dims
    lo = density.axis_boxes[:, 0]
    span = density.axis_boxes[:, 1] - density.axis_boxes[:, 0]

    last_exc = None
    for attempt in range(MAX_RESTARTS):
        if attempt:
            density.rescan()
        envelope = ENVELOPE_FACTOR * density.max_weight()
        try:
            flat = _rejection_fill(density, m_samples, seed, envelope,
                                   lo, span, dims)
            return SampleSet(chart=density.chart_tuples(flat), density=density,
                             seed=int(seed), envelope=float(envelope))
        except EnvelopeBreach as exc:
            last_exc = exc
    raise EnvelopeBreach(
        f"envelope still violated after {MAX_RESTARTS} attempts: {last_exc}")


def _rejection_fill(density, m_samples, seed, envelope, lo, span, dims):
    gens = [trajectory_rng(seed, i) for i in range(m_samples)]
    out = np.empty((m_samples, dims))
    pending = np.arange(m_samples)
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > 10000:
            raise SamplerStall("rejection sampling failed to converge; "
                               "acceptance rate is pathologically low")
        draws = np.stack([gens[i].random((PROPOSAL_BLOCK, dims + 1))
                          for i in pending])
        proposals = lo + draws[..., :dims] * span
        w = density.weight_flat(proposals)
        if np.any(w > envelope):
            raise EnvelopeBreach(
                f"weight {np.max(w):.6e} above envelope {envelope:.6e}")
        accept = draws[..., dims] * envelope < w
        has = accept.any(axis=1)
        first = accept.argmax(axis=1)
        rows = np.nonzero(has)[0]
        out[pending[has]] = proposals[rows, first[has]]
        pending = pending[~has]
    return out


@dataclass
class CrossingSet:
    """Leaf crossings of an ensemble, with exclusion bookkeeping."""

    s: float
    chart: np.ndarray            # (M_included, N, sd)
    trajectory_ids: np.ndarray   # (M_included,)
    excluded_ids: np.ndarray

    @property
    def n_included(self):
        return self.chart.shape[0]

    @property
    def n_excluded(self):
        return len(self.excluded_ids)


def crossings(ensemble: TrajectoryEnsemble, s_target: float) -> CrossingSet:
    """Interpolate every trajectory's crossing of the leaf Sigma_{s_target}.

    Linear interpolation between the bracketing grid configurations (exact
    when s_target is a grid value). Trajectories halted before the target
    leaf are excluded and counted.
    """
    s_grid = ensemble.s_grid
    if not (s_grid[0] - 1e-12 <= s_target <= s_grid[-1] + 1e-12):
        raise LabelOutOfRange("target label outside the integrated range")
    i = int(np.searchsorted(s_grid, s_target, side="right")) - 1
    i = min(max(i, 0), len(s_grid) - 2)
    theta = (s_target - s_grid[i]) / (s_grid[i + 1] - s_grid[i])
    need = i + 1 if theta > 0 else i

    included = ensemble.valid_steps >= need
    x = (1.0 - theta) * ensemble.points[:, i] + theta * ensemble.points[:, i + 1]
    chart = ensemble.foliation.chart_coords(x)
    ids = np.nonzero(included)[0]
    return CrossingSet(s=float(s_target), chart=chart[included],
                       trajectory_ids=ids,
                       excluded_ids=np.nonzero(~included)[0])


@dataclass
class EquivarianceReport:
    """Binned TV and marginal KS comparison against a leaf density."""

    ensemble_size: int
    included: int
    excluded: int
    bins_per_axis: int
    tv_distance: float
    tv_threshold: float
    ks_stats: list
    ks_threshold: float | None
    leak_mass: float
    passed: bool
    bin_edges: list = field(repr=False, default=None)
    counts: np.ndarray = field(repr=False, default=None)
    predicted_masses: np.ndarray = field(repr=False, default=None)

    def to_dict(self):
        return {
            "ensemble_size": self.ensemble_size,
            "included": self.included,
            "excluded": self.excluded,
            "bins_per_axis": self.bins_per_axis,
            "tv_distance": self.tv_distance,
            "tv_threshold": self.tv_threshold,
            "ks_stats": list(self.ks_stats),
            "ks_threshold": self.ks_threshold,
            "leak_mass": self.leak_mass,
            "passed": self.passed,
        }


def equivariance_test(samples, density: LeafDensity, bins_per_axis: int,
                      tv_threshold: float = 0.05,
                      ks_coefficient: float = 1.63,
                      excluded: int = 0) -> EquivarianceReport:
    """Compare crossing samples against the predicted leaf density.

    ``samples`` is a CrossingSet or a chart array (M, N, sd). The test bins
    the joint chart coordinates (TV distance between empirical frequencies
    and quadrature bin masses, empirical mass falling outside the box
    counted against the match) and runs a one-sample KS test on every
    1-d marginal against the quadrature CDF. Frequencies are shares of the
    whole ensemble, so the ``excluded`` trajectories, which halted before
    the leaf, count as leaked mass. If every trajectory halted, the leak is
    1, each KS statistic is 1 (an empty sample's CDF is 0 everywhere), no
    KS threshold exists and the test fails.
    """
    if isinstance(samples, CrossingSet):
        excluded = samples.n_excluded
        chart = samples.chart
    else:
        chart = np.asarray(samples, dtype=float)
    m_inc = chart.shape[0]
    if m_inc + excluded < 1:
        raise NoSamples("no samples to test")
    u = chart.reshape(m_inc, density.dims)

    edges, predicted = density.bin_masses(bins_per_axis)
    counts, _ = np.histogramdd(u, bins=edges)
    # halted trajectories count as mass that never reached the leaf
    m_all = m_inc + excluded
    emp = counts / m_all
    leak = 1.0 - counts.sum() / m_all
    tv = 0.5 * (np.sum(np.abs(emp - predicted)) + leak)

    if m_inc == 0:
        ks_stats = [1.0] * density.dims
        ks_threshold = None
        passed = False
    else:
        ks_stats = []
        for a in range(density.dims):
            xs = np.sort(u[:, a])
            grid, cdf = density.marginal_cdf(a)
            f = np.interp(xs, grid, cdf, left=0.0, right=1.0)
            steps = np.arange(1, m_inc + 1) / m_inc
            d_plus = np.max(steps - f)
            d_minus = np.max(f - (steps - 1.0 / m_inc))
            ks_stats.append(float(max(d_plus, d_minus)))
        ks_threshold = float(ks_coefficient / np.sqrt(m_inc))
        passed = bool(tv < tv_threshold
                      and all(k < ks_threshold for k in ks_stats))
    return EquivarianceReport(
        ensemble_size=m_all, included=m_inc, excluded=excluded,
        bins_per_axis=int(bins_per_axis), tv_distance=float(tv),
        tv_threshold=float(tv_threshold), ks_stats=ks_stats,
        ks_threshold=ks_threshold, leak_mass=float(leak),
        passed=passed, bin_edges=edges, counts=counts,
        predicted_masses=predicted)


def flat_continuity_residual(psi, t, grid, h_t, h_x):
    """Residual of d rho / dt + sum_k div_k J_k in the flat frame.

    ``grid`` is an array (G, N, sd) of spatial configurations; rho = |psi|^2
    and J_k = psi^dag alpha_k psi are differenced centrally with steps h_t
    and h_x. Returns the (G,) residual field; second-order accurate, exact
    zero in the limit.
    """
    if h_t <= 0 or h_x <= 0:
        raise ValueError("steps must be positive")
    grid = np.asarray(grid, dtype=float)
    g_count, n, sd = grid.shape
    if sd != psi.mode.spatial_dims or n != psi.n_particles:
        raise ValueError("grid shape does not match the wave function")

    def values_at(dt, k=None, i=None, dx=0.0):
        pts = np.zeros((g_count, n, 4))
        pts[..., 0] = t + dt
        pts[..., 1:1 + sd] = grid
        if k is not None:
            pts[:, k - 1, 1 + i] += dx
        return psi.evaluate_batch(pts)

    def norm_sq(v):
        return np.real(np.sum(np.conj(v) * v, axis=-1))

    res = (norm_sq(values_at(h_t)) - norm_sq(values_at(-h_t))) / (2.0 * h_t)
    for k in range(1, n + 1):
        for i in range(sd):
            vp = values_at(0.0, k, i, +h_x)
            vm = values_at(0.0, k, i, -h_x)
            op = lift_to_particle(alpha(i + 1, psi.mode), k, n)
            jp = np.real(np.sum(np.conj(vp) * (vp @ op.T), axis=-1))
            jm = np.real(np.sum(np.conj(vm) * (vm @ op.T), axis=-1))
            res = res + (jp - jm) / (2.0 * h_x)
    return res

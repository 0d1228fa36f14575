"""Quantum-equilibrium machinery.

This module owns everything statistical: the crossing density rho times the
chart area element restricted to a leaf and a sampling box, reproducible
rejection sampling of initial configurations, extraction of leaf crossings
from trajectory ensembles, and the binned total-variation /
Kolmogorov-Smirnov comparison of empirical crossings against the predicted
leaf density. A finite-difference check of the flat-frame continuity
equation lives here too.

Every leaf-density grid (scan, quadrature, bin masses, marginal CDFs and
the boundary-flux faces) is a tensor grid of per-particle point sets. As
psi = sum_b c_b (x)_k f_kb and rho's operator is (x)_k B_k, rho = sum over
branch pairs b <= b' of Re(w_bb' prod_k g_k^{bb'}), with the pieces
g_k^{bb'} = f_kb^dag B_k f_kb' on particle k's own points and w_bb' =
conj(c_b) c_b', doubled for b < b'. An integral over a grid is then, pair
by pair, a product of each particle's own weighted sums of its pieces. The
scan's and the flux's maxima run over the joint grid, slab by slab (at
most ``GRID_POINTS`` points), keeping only each slab's maxima and first
argmax, which are exact, so no result depends on the slab size. Only the
sampler's weights form psi, in blocks of ``dynamics.BATCH_SIZE`` rows
as an integration job does, and the sampler draws for a window of at
most ``GRID_POINTS // PROPOSAL_BLOCK`` samples at a time, weighing exactly
the proposals it draws. An equilibrium run then holds, per trajectory,
only its sample and its configurations at the grid labels that bracket
the leaves it reads, the columns ``crossings`` needs
(``integrate_ensemble``'s ``keep_labels``); no array grows with the path
length. The grid sizes
and the sampler's settings are module constants, not per-call
parameters, so every grid stays within the caps that scenario parsing
checks.

Randomness comes from counter-based Philox4x64-10 streams keyed by
(master seed, sample index), as ``_proposal_draws`` defines them. Block j
of sample i's proposals is a fixed range of that stream's counters, so it
is a pure function of (seed, i, j): the sampler computes and weighs a
whole round's blocks in one vectorised pass, without numpy's generators
(an ``equilibrium`` run never imports ``numpy.random``), and any split of
the samples gives the same samples bit for bit. Which proposals are
weighed is fixed too: each sample's, in stream order, whole blocks of
``PROPOSAL_BLOCK`` up to the end of the round that holds its first
acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .currents import _branch_pieces, density_batch
from .errors import (BoundaryLeak, EmptyMarginal, EnvelopeBreach,
                     LabelOutOfRange, NoSamples, SamplerStall)
from .geometry import alpha, lift_to_particle, minkowski_norm_sq
from .dynamics import BATCH_SIZE, TrajectoryEnsemble, _bracket

__all__ = [
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
PROPOSAL_BLOCK = 16      # proposals a sample draws and weighs per block
ENVELOPE_FACTOR = 1.1    # rejection envelope over the scanned max weight
MAX_RESTARTS = 3         # sampling attempts, each after a finer rescan
RESCAN_FACTOR = 2        # scan resolution growth per rescan
GRID_POINTS = 1 << 13    # most joint grid points per slab; bounds the
                         # scan's and the flux faces' pair sums and the
                         # proposal rows of a sampler round


def _proposal_draws(seed, samples, blocks, dims):
    """Block ``blocks[r]`` of sample ``samples[r]``'s stream, for every r:
    (len(samples), PROPOSAL_BLOCK, dims + 1) uniforms in [0, 1).

    This defines the streams. Sample i's stream is Philox4x64-10 (Salmon
    et al., SC 2011) keyed by (seed mod 2**64, i), read as doubles: the
    counter is incremented before each 4-word output (so the first output
    is counter 1's), and a double is (word >> 11) * 2**-53, word by word.
    Proposal r of the stream takes the next dims + 1 doubles, so these are
    the draws of numpy's ``Generator(Philox(key=(seed mod 2**64,
    i))).random((PROPOSAL_BLOCK, dims + 1))``, block after block. A block
    takes q = PROPOSAL_BLOCK * (dims + 1) / 4 = 4 (dims + 1) counters, so
    block j is counters j*q + 1 ... j*q + q, and all of them are computed
    in one pass. Every uint64 operation is on arrays, which wrap without
    the warning numpy gives for scalars.
    """
    u64 = np.uint64
    q = PROPOSAL_BLOCK * (dims + 1) // 4
    # words 0 and 2 of every counter are multiplied, 1 and 3 are not: x
    # and y hold those pairs, (2, samples, q). A round maps (x0, y0, x1,
    # y1) to (hi(m1 x1) ^ y0 ^ k0, lo(m1 x1), hi(m0 x0) ^ y1 ^ k1,
    # lo(m0 x0)), the high words of the products built from 32-bit halves
    mul = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                   dtype=u64)[:, None, None]
    half, low = u64(32), u64(0xFFFFFFFF)
    m_lo, m_hi = mul & low, mul >> half
    x = np.zeros((2, len(samples), q), dtype=u64)
    x[0] = (np.asarray(blocks, dtype=u64)[:, None] * u64(q)
            + np.arange(1, q + 1, dtype=u64))
    y = np.zeros_like(x)
    key = np.empty((2, len(samples), 1), dtype=u64)
    key[0] = int(seed) & 0xFFFFFFFFFFFFFFFF
    key[1] = np.asarray(samples, dtype=u64)[:, None]
    # the key of each of the 10 rounds, bumped by the Weyl constants
    round_keys = key + np.arange(10, dtype=u64)[:, None, None, None] * (
        np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                 dtype=u64)[:, None, None])
    for round_key in round_keys:
        x_lo, x_hi = x & low, x >> half
        t = m_lo * x_hi
        t += (m_lo * x_lo) >> half
        mid = t & low
        mid += m_hi * x_lo
        hi = m_hi * x_hi
        hi += t >> half
        hi += mid >> half
        y, x = (mul * x)[::-1], hi[::-1] ^ y
        x ^= round_key
    words = np.stack([x[0], y[0], x[1], y[1]], axis=-1) >> u64(11)
    return (words.astype(float) * 2.0 ** -53).reshape(
        len(samples), PROPOSAL_BLOCK, dims + 1)


def _gauss_legendre_axes(boxes, order):
    # per-axis Gauss-Legendre nodes and weights over a list of intervals,
    # each (1, order): one cell of all the nodes
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in np.asarray(boxes, dtype=float):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (base_x[None] + 1.0))
        weights.append(half * base_w[None])
    return nodes, weights


def _outer_product(factors):
    # 1 * f_0 * f_1 * ... on the tensor grid of the 1-D factors, in order
    out = np.ones(tuple(len(f) for f in factors))
    for a, f in enumerate(factors):
        out = out * f.reshape((-1,) + (1,) * (len(factors) - 1 - a))
    return out


def _pair_sum(pair_weights, parts):
    # sum over the branch pairs q of Re(w_q prod_k parts[k][q]) on the outer
    # product of the parts' point axes (Q, P_k), in pair order
    n = len(parts)
    t = pair_weights.reshape((-1,) + (1,) * n)
    for k, p in enumerate(parts):
        t = t * p.reshape((len(p),) + (1,) * k + (-1,) + (1,) * (n - 1 - k))
    return np.add.reduce(t.real, axis=0)


def _slabs(sizes):
    # (rows, slab) for each slab of at most GRID_POINTS points of the
    # tensor grid of point sets of the given sizes, in C order: the sets
    # after the cut one whole, the cut set in runs and the sets before it
    # pinned to one point each, so that ``rows`` is the slab's slice of
    # the flattened grid; ``slab`` holds one slice per set
    cut, inner = len(sizes) - 1, 1
    while cut > 0 and inner * sizes[cut] <= GRID_POINTS:
        inner *= sizes[cut]
        cut -= 1
    step = max(1, GRID_POINTS // inner)
    whole = (slice(None),) * (len(sizes) - 1 - cut)
    lo = 0
    for pinned in np.ndindex(*sizes[:cut]):
        head = tuple(slice(i, i + 1) for i in pinned)
        for start in range(0, sizes[cut], step):
            n = min(step, sizes[cut] - start) * inner
            yield (slice(lo, lo + n),
                   head + (slice(start, start + step),) + whole)
            lo += n


def _auto_resolution(dims):
    return {1: 4097, 2: 401, 3: 61, 4: 23}.get(dims, 11)


class LeafDensity:
    """rho times the chart area element on one leaf, over a sampling box.

    The unnormalized weight at a chart tuple (xi_1, ..., xi_N) is
    rho(points, normals) * prod_k area_element(s, xi_k); the bin masses
    and marginal CDFs integrate it by tensor Gauss-Legendre quadrature and
    normalize by their own sum and last value. With ``flat_normals=True`` the leaf normals are
    replaced by (1,0,0,0), which detunes the density: that variant exists
    purely as the negative control of the equivariance test.

    Every grid quantity (the scan, the bin masses, the marginal CDFs and
    the boundary flux) is built from each particle's points, normals, area
    elements and branch-pair pieces on its own axes (see the module
    docstring). Only ``weight_flat`` evaluates psi, one row per
    configuration, for the sampler's proposals.
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
        # rho = sum over branch pairs b <= b' (``np.triu_indices`` order)
        # of Re(w prod_k g_k), with w = conj(c_b) c_b' counted twice for
        # b < b' (the pair b' b is its conjugate)
        c = np.array([c for c, _ in psi.branches])
        left, right = np.triu_indices(len(c))
        self._pair_weights = (np.where(left == right, 1.0, 2.0)
                              * (c[left].conj() * c[right]))
        self._scan = None

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

    def weight_flat(self, u):
        """Unnormalized sampling weight at joint chart vectors (..., dims).

        Rows are evaluated in blocks of ``dynamics.BATCH_SIZE``, which
        bound psi's and the kernel's temporaries; every operation is
        row-wise, so the values do not depend on the batch shape.
        """
        xi = self.chart_tuples(u)
        rows = xi.reshape((-1,) + xi.shape[-2:])
        out = np.empty(len(rows))
        for lo in range(0, len(rows), BATCH_SIZE):
            block = rows[lo:lo + BATCH_SIZE]
            pts = self.foliation.leaf_point(self.s, block)
            rho = density_batch(self.psi.evaluate_batch(pts),
                                self._normals(pts), self.psi.n_particles,
                                self.psi.mode)
            area = np.ones(len(block))
            for k in range(self.psi.n_particles):
                area = area * self.foliation.area_element(self.s,
                                                          block[:, k, :])
            out[lo:lo + BATCH_SIZE] = rho * area
        return out.reshape(xi.shape[:-2])

    def _grid_points(self, axes):
        # each particle's leaf points (P_k, 4) and area elements (P_k,) on
        # its own axes of the per-axis 1-D nodes ``axes``
        sd = self.foliation.spatial_dims
        points, areas = [], []
        for k in range(self.psi.n_particles):
            mesh = np.meshgrid(*axes[k * sd:(k + 1) * sd], indexing="ij")
            xi = np.stack([m.ravel() for m in mesh], axis=-1)
            points.append(self.foliation.leaf_point(self.s, xi))
            areas.append(self.foliation.area_element(self.s, xi))
        return points, areas

    def _pieces(self, points, vectors=None):
        # each particle's pair pieces (Q, P_k) on its own points, against
        # the vectors[k] (P_k, 4) (by default the density's normals), from
        # one factor pass over all particles' point sets
        if vectors is None:
            vectors = [self._normals(x) for x in points]
        return [_branch_pieces(f, v, self.psi.mode) for f, v in
                zip(self.psi.evaluate_factors(points), vectors)]

    def _joint(self, parts, areas):
        # (rows, pair sum of ``parts``, area product) for each slab of the
        # tensor grid of the particles' point sets; ``rows`` is the slab's
        # slice of the flattened grid
        for rows, slab in _slabs([len(a) for a in areas]):
            yield (rows,
                   _pair_sum(self._pair_weights,
                             [p[:, sl] for p, sl in zip(parts, slab)]),
                   _outer_product([a[sl] for a, sl in zip(areas, slab)]))

    def _integral(self, nodes, weights):
        # the weight integrated cell by cell: ``nodes[a]`` and
        # ``weights[a]`` are (cells, nodes per cell) per axis a; returns
        # (cells_0, ...). Each particle sums its pieces against its area
        # elements and quadrature weights, and the pairs combine the sums
        sd = self.foliation.spatial_dims
        points, areas = self._grid_points([x.ravel() for x in nodes])
        sums = []
        for k, (g, area) in enumerate(zip(self._pieces(points), areas)):
            own = range(k * sd, (k + 1) * sd)
            w = area * _outer_product([weights[a].ravel() for a in own]).ravel()
            cells = (g * w).reshape(
                (len(g),) + tuple(n for a in own for n in nodes[a].shape))
            sums.append(cells.sum(axis=tuple(range(2, 2 * sd + 1, 2)))
                        .reshape(len(g), -1))
        return _pair_sum(self._pair_weights, sums).reshape(
            tuple(len(x) for x in nodes))

    # -- scans and integrals -------------------------------------------------
    def _scan_axes(self, resolution):
        return [np.linspace(lo, hi, resolution) for lo, hi in self.axis_boxes]

    def scan(self):
        """Grid maxima of the weight and of rho over the box (cached)."""
        if self._scan is None:
            axes = self._scan_axes(self.scan_resolution)
            points, areas = self._grid_points(axes)
            # the slab maxima and the first argmax (max and argmax are
            # exact, so these are the whole grid's)
            max_rho, max_weight, imax = -np.inf, -np.inf, 0
            for rows, rho, area in self._joint(self._pieces(points), areas):
                w = rho * area
                i = int(np.argmax(w))
                if w.flat[i] > max_weight:
                    max_weight, imax = w.flat[i], rows.start + i
                max_rho = max(max_rho, np.max(rho))
            imax = np.unravel_index(imax, tuple(len(a) for a in axes))
            self._scan = {
                "max_weight": float(max_weight),
                "max_rho": float(max_rho),
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

    def bin_masses(self, bins_per_axis):
        """Normalized predicted masses on a regular joint binning.

        Each bin is integrated with ``BIN_ORDER`` Gauss-Legendre nodes per
        axis. Returns (edges per axis, masses array of shape
        (bins,)*dims); the masses are normalized to sum to one over the box.
        """
        bins = int(bins_per_axis)
        edges = [np.linspace(lo, hi, bins + 1) for lo, hi in self.axis_boxes]
        base_x, base_w = np.polynomial.legendre.leggauss(BIN_ORDER)
        nodes, weights = [], []
        for e in edges:
            half = 0.5 * np.diff(e)[:, None]
            nodes.append(0.5 * (e[:-1] + e[1:])[:, None] + half * base_x)
            weights.append(half * base_w)
        masses = self._integral(nodes, weights)
        return edges, masses / masses.sum()

    def marginal_cdf(self, axis):
        """CDF of one joint coordinate on a fine grid (trapezoid-integrated).

        The grid has ``CDF_RESOLUTION`` points; the other coordinates are
        integrated out with the density's quadrature order.
        """
        lo, hi = self.axis_boxes[axis]
        grid = np.linspace(lo, hi, CDF_RESOLUTION)
        nodes, weights = _gauss_legendre_axes(self.axis_boxes, self.quad_order)
        nodes[axis] = grid[:, None]
        weights[axis] = np.ones((CDF_RESOLUTION, 1))
        pdf = self._integral(nodes, weights).ravel()
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
        res = _auto_resolution(max(self.dims - 1, 1))
        worst = 0.0
        for a in range(self.dims):
            k, comp = divmod(a, sd)
            for side, edge in enumerate(self.axis_boxes[a]):
                axes = self._scan_axes(res)
                axes[a] = np.array([edge])
                points, areas = self._grid_points(axes)
                vectors = [self.foliation.normal(x) for x in points]
                # particle k's outward chart velocity over |df| is linear in
                # j_k, so its piece takes that map's coefficients a(mu):
                # the chart velocity of each basis vector
                x = points[k]
                a_mu = self.foliation.chart_velocity(
                    x[:, None], np.broadcast_to(np.eye(4), (len(x), 4, 4))
                )[..., comp] / np.sqrt(minkowski_norm_sq(
                    self.foliation.gradient(x)))[:, None]
                vectors[k] = (a_mu if side == 1 else -a_mu) * [1, -1, -1, -1]
                # the face's largest flux from its slab maxima (exact)
                for _, outward, area in self._joint(
                        self._pieces(points, vectors), areas):
                    worst = max(worst, float(np.max(
                        np.maximum(outward, 0.0) * area)))
        return worst / self.max_weight()


@dataclass
class SampleSet:
    """Initial-leaf samples in chart coordinates plus their provenance."""

    chart: np.ndarray            # (M, N, sd)
    density: LeafDensity
    seed: int
    envelope: float
    proposals: int               # weighed, over every attempt
    attempts: int                # the first, then one per rescan

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
    by (seed, i) (``_proposal_draws``), in blocks of ``PROPOSAL_BLOCK``
    proposals; block j is a pure function of (seed, i, j), so the result
    is reproducible bit for bit for any execution order. Samples draw in a
    window of at most ``GRID_POINTS // PROPOSAL_BLOCK`` at a time, refilled
    in index order. Each round, every sample of a window of w takes its
    next max(1, (``dynamics.BATCH_SIZE`` // ``PROPOSAL_BLOCK``) // w)
    blocks, so one round holds at most ``GRID_POINTS`` proposals whatever
    M is, and at most one weight block once w <= 64; they are drawn in
    one pass and weighed in one call, and each sample is its stream's
    first accepted proposal. A weighed proposal above the envelope triggers a
    finer rescan and a full deterministic restart, at most
    ``MAX_RESTARTS`` attempts in all. A sample that accepts none of its
    first 640000 proposals makes the attempt raise ``SamplerStall`` once
    every other sample is drawn, unless one of them breaches the envelope
    first. The returned set counts the proposals weighed over every
    attempt and the attempts made.
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
    tally = {"proposals": 0}
    for attempt in range(MAX_RESTARTS):
        if attempt:
            density.rescan()
        envelope = ENVELOPE_FACTOR * density.max_weight()
        try:
            flat = _rejection_fill(density, m_samples, seed, envelope,
                                   lo, span, dims, tally)
            return SampleSet(chart=density.chart_tuples(flat), density=density,
                             seed=int(seed), envelope=float(envelope),
                             proposals=tally["proposals"],
                             attempts=attempt + 1)
        except EnvelopeBreach as exc:
            last_exc = exc
    raise EnvelopeBreach(
        f"envelope still violated after {MAX_RESTARTS} attempts: {last_exc}")


def _rejection_fill(density, m_samples, seed, envelope, lo, span, dims,
                    tally):
    # a refill window of at most GRID_POINTS // PROPOSAL_BLOCK samples,
    # entered in index order. Each round, every sample of a window of w
    # takes its next max(1, (BATCH_SIZE // PROPOSAL_BLOCK) // w) blocks:
    # at most GRID_POINTS rows in all, and at most one weight block of
    # BATCH_SIZE rows once w <= 64. A sample's block j is a function of
    # (seed, sample, j) alone, so the round draws its blocks in one pass,
    # weighs them in one call, and each sample keeps its first accepted
    # proposal.
    # A sample leaves once it accepts or has drawn its stall budget; a
    # stall is raised only once the window drains, so a breach in any
    # sample's weighed proposals wins over it. ``tally["proposals"]``
    # counts the proposals weighed
    out = np.empty((m_samples, dims))
    width = max(1, GRID_POINTS // PROPOSAL_BLOCK)
    budget = 640000 // PROPOSAL_BLOCK    # blocks drawn before a stall
    window = np.empty(0, dtype=int)      # the samples in it, in index order
    blocks = np.empty(0, dtype=int)      # the blocks each has drawn
    entered, stalled = 0, False
    while window.size or entered < m_samples:
        if entered < m_samples and window.size < width:
            fresh = np.arange(entered,
                              min(m_samples, entered + width - window.size))
            entered += fresh.size
            window = np.concatenate([window, fresh])
            blocks = np.concatenate([blocks, np.zeros(fresh.size, dtype=int)])

        ahead = min(max(1, BATCH_SIZE // PROPOSAL_BLOCK // window.size),
                    budget - int(blocks.max()))
        draws = _proposal_draws(
            seed, np.repeat(window, ahead),
            (blocks[:, None] + np.arange(ahead)).ravel(), dims,
        ).reshape(window.size, ahead * PROPOSAL_BLOCK, dims + 1)
        proposals = lo + draws[..., :dims] * span
        w = density.weight_flat(proposals)
        tally["proposals"] += w.size
        if np.any(w > envelope):
            raise EnvelopeBreach(
                f"weight {np.max(w):.6e} above envelope {envelope:.6e}")
        accept = draws[..., dims] * envelope < w
        has = accept.any(axis=1)
        out[window[has]] = proposals[has, accept[has].argmax(axis=1)]
        blocks += ahead
        stays = ~has & (blocks < budget)
        stalled |= bool(np.any(~has & ~stays))
        window, blocks = window[stays], blocks[stays]
    if stalled:
        raise SamplerStall("rejection sampling failed to converge; "
                           "acceptance rate is pathologically low")
    return out


@dataclass
class CrossingSet:
    """Leaf crossings of an ensemble, with exclusion bookkeeping."""

    s: float
    chart: np.ndarray            # (M_included, N, sd)
    trajectory_ids: np.ndarray   # (M_included,)
    excluded_ids: np.ndarray

    @property
    def n_excluded(self):
        return len(self.excluded_ids)


def crossings(ensemble: TrajectoryEnsemble, s_target: float) -> CrossingSet:
    """Interpolate every trajectory's crossing of the leaf Sigma_{s_target}.

    Linear interpolation between the bracketing grid configurations (exact
    when s_target is a grid value), which the ensemble must hold: a run
    that kept only some labels (``integrate_ensemble``'s ``keep_labels``)
    holds them for each kept label. Trajectories halted before the target
    leaf are excluded and counted. ``LabelOutOfRange`` if the label lies
    outside the integrated range or its bracket was not kept.
    """
    i, theta = _bracket(ensemble.s_grid, s_target)
    need = i + 1 if theta > 0 else i
    # the columns are sorted grid label indices
    at = int(np.searchsorted(ensemble.columns, i))
    if ensemble.columns[at:at + 2].tolist() != [i, i + 1]:
        raise LabelOutOfRange(
            f"the ensemble does not hold the grid labels around {s_target}")

    included = ensemble.valid_steps >= need
    x = ((1.0 - theta) * ensemble.points[:, at]
         + theta * ensemble.points[:, at + 1])
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

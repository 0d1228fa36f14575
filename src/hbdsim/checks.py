"""Invariant suites behind the ``checks`` subcommand.

Each suite measures a residual that the model says must vanish (or a ratio
that must sit near a known value) and reports one pass/fail entry. The
random draws are deterministic in the master seed. The suites are also the
computational kernels of the acceptance tests, which run them at the gate
sizes and tolerances. The two foliation-independence suites take a batch of
starts, so the acceptance gate calls each once per group of starts, and
each group gets its own step-halving tolerance.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .currents import currents_all_batch, density_batch, divergence_residual
from .dynamics import (
    NConfiguration,
    integrate,
    integrate_ensemble,
    integrate_flat_bd,
    sample_path_at_times,
)
from .ensemble import flat_continuity_residual
from .errors import ConsistencyError
from .foliation import FlatTime, GraphLeaf, RippleProfile, TanhProfile, frobenius_residual, twisted_field
from .geometry import SpinDimensionMode, minkowski_dot, minkowski_norm_sq
from .wavefunction import NParticleWavefunction, dirac_residual, make_mode

__all__ = ["run_all", "CHECK_NAMES"]

D11 = SpinDimensionMode.D11
D31 = SpinDimensionMode.D31

HALVING_STARTS = 4   # starts whose foliation-independence runs are redone
                     # at half the step for the tolerance


# ---------------------------------------------------------------------------
# random draw helpers
# ---------------------------------------------------------------------------

def random_state(rng, n_particles, mode) -> NParticleWavefunction:
    """A generic entangled state: three terms of unit-mass modes with
    standard-normal momenta, and random complex coefficients."""
    terms = []
    for _ in range(3):
        modes = []
        for _ in range(n_particles):
            p = rng.normal(0.0, 1.0, size=mode.spatial_dims)
            sign = 1 if rng.random() < 0.8 else -1
            label = int(rng.integers(1, 3)) if mode is D31 else 1
            modes.append(make_mode(p, 1.0, sign, label, mode))
        coeff = complex(rng.normal(), rng.normal())
        terms.append((coeff, tuple(modes)))
    return NParticleWavefunction(terms)


def random_curved_foliation(rng, spatial_dims):
    """A tanh graph foliation with the profile's slope a * b below 0.6."""
    a = rng.uniform(0.3, 1.2)
    b = rng.uniform(0.2, 0.6 / a)
    box = np.repeat([[-50.0, 50.0]], spatial_dims, axis=0)
    return GraphLeaf(TanhProfile(a, b), validity_box=box,
                     spatial_dims=spatial_dims)


def random_leaf_tuples(rng, foliation, n_particles, batch):
    """Point tuples on random leaves plus the unit normals there."""
    sd = foliation.spatial_dims
    s = rng.uniform(-2.0, 2.0, size=batch)
    xi = rng.uniform(-3.0, 3.0, size=(batch, n_particles, sd))
    pts = np.stack([foliation.leaf_point(s, xi[:, k, :])
                    for k in range(n_particles)], axis=1)
    return pts, foliation.normal(pts)


# ---------------------------------------------------------------------------
# algebra suites
# ---------------------------------------------------------------------------

def clifford_deviation(gamma_fn=geometry.gamma) -> float:
    worst = 0.0
    for mode in (D31, D11):
        eye = np.eye(mode.spinor_dim)
        for mu in mode.vector_indices:
            for nu in mode.vector_indices:
                anti = (gamma_fn(mu, mode) @ gamma_fn(nu, mode)
                        + gamma_fn(nu, mode) @ gamma_fn(mu, mode))
                eta = (2.0 if mu == 0 else -2.0) if mu == nu else 0.0
                worst = max(worst, float(np.max(np.abs(anti - eta * eye))))
    return worst


def hermiticity_deviation(gamma_fn=geometry.gamma) -> float:
    worst = 0.0
    for mode in (D31, D11):
        for mu in mode.vector_indices:
            g = gamma_fn(mu, mode)
            target = g.conj().T if mu == 0 else -g.conj().T
            worst = max(worst, float(np.max(np.abs(g - target))))
    return worst


def lifted_commutator_deviation(rng, draws=50) -> float:
    worst = 0.0
    for _ in range(draws):
        mode = D31 if rng.random() < 0.5 else D11
        n = int(rng.integers(2, 4))
        k, l = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        mu = int(rng.choice(list(mode.vector_indices)))
        nu = int(rng.choice(list(mode.vector_indices)))
        a = geometry.lift_to_particle(geometry.gamma(mu, mode), int(k), n)
        b = geometry.lift_to_particle(geometry.gamma(nu, mode), int(l), n)
        worst = max(worst, float(np.max(np.abs(a @ b - b @ a))))
    return worst


def random_unit_normal(rng, mode):
    """A random future-oriented unit timelike vector (boosted time axis)."""
    eta = rng.uniform(-1.2, 1.2)
    direction = rng.normal(size=mode.spatial_dims)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        direction = np.zeros(mode.spatial_dims)
        direction[0] = 1.0
        norm = 1.0
    n = np.zeros(4)
    n[0] = np.cosh(eta)
    n[1:1 + mode.spatial_dims] = np.sinh(eta) * direction / norm
    return n


def contraction_positivity_min_eig(rng, draws=100) -> float:
    """Smallest eigenvalue of (gamma_1^0 gamma_1.n_1)...(gamma_N^0 gamma_N.n_N)."""
    worst = np.inf
    for _ in range(draws):
        mode = D31 if rng.random() < 0.5 else D11
        n_particles = int(rng.integers(1, 3))
        op = None
        for _ in range(n_particles):
            n = random_unit_normal(rng, mode)
            f = geometry.gamma(0, mode) @ geometry.slash(n, mode=mode)
            op = f if op is None else np.kron(op, f)
        worst = min(worst, float(np.min(np.linalg.eigvalsh(op))))
    return worst


def mode_spinor_residual(rng, draws=100) -> float:
    worst = 0.0
    for _ in range(draws):
        mode = D31 if rng.random() < 0.5 else D11
        mass = float(rng.uniform(0.0, 2.0))
        p = rng.normal(0, 1.5, size=mode.spatial_dims)
        if mass == 0.0 and not np.any(p):
            continue
        sign = 1 if rng.random() < 0.5 else -1
        label = int(rng.integers(1, 3)) if mode is D31 else 1
        md = make_mode(p, mass, sign, label, mode)
        sl = geometry.slash(md.four_momentum, mode=mode)
        worst = max(worst, float(np.linalg.norm(sl @ md.w - mass * md.w)))
        worst = max(worst, abs(float(np.real(np.vdot(md.w, md.w))) - 1.0))
    return worst


# ---------------------------------------------------------------------------
# current suites
# ---------------------------------------------------------------------------

def k_independence_spread(rng, draws=1000, modes=(D11, D31)) -> float:
    """Max relative spread of {j_k.n_k} over random entangled draws."""
    worst = 0.0
    batch = 50
    done = 0
    while done < draws:
        mode = modes[int(rng.integers(len(modes)))]
        n = int(rng.integers(2, 4))
        psi = random_state(rng, n, mode)
        fol = random_curved_foliation(rng, mode.spatial_dims)
        take = min(batch, draws - done)
        pts, normals = random_leaf_tuples(rng, fol, n, take)
        vals = psi.evaluate_batch(pts)
        j = currents_all_batch(vals, normals, n, mode)
        rho_k = np.stack([minkowski_dot(j[:, k, :], normals[:, k, :])
                          for k in range(n)], axis=1)
        spread = rho_k.max(axis=1) - rho_k.min(axis=1)
        rel = spread / np.abs(rho_k.mean(axis=1))
        worst = max(worst, float(np.max(rel)))
        done += take
    return worst


def positivity_stats(rng, draws=10000):
    """(min rho/scale, worst causality margin) over random draws.

    The causality margin is min over draws with rho > 1e-8*scale of
    j_k.j_k / scale_j (must be >= -1e-10) together with j_k^0 > 0.
    """
    min_rho = np.inf
    min_causal = np.inf
    min_j0 = np.inf
    batch = 200
    done = 0
    while done < draws:
        mode = D11 if rng.random() < 0.7 else D31
        n = int(rng.integers(1, 4)) if mode is D11 else int(rng.integers(1, 3))
        psi = random_state(rng, n, mode)
        fol = random_curved_foliation(rng, mode.spatial_dims)
        take = min(batch, draws - done)
        pts, normals = random_leaf_tuples(rng, fol, n, take)
        vals = psi.evaluate_batch(pts)
        scale = np.real(np.sum(np.conj(vals) * vals, axis=-1))
        rho = density_batch(vals, normals, n, mode)
        min_rho = min(min_rho, float(np.min(rho / scale)))
        j = currents_all_batch(vals, normals, n, mode)
        flowing = rho > 1e-8 * scale
        if np.any(flowing):
            jj = minkowski_norm_sq(j[flowing])
            scale_j = np.sum(j[flowing] ** 2, axis=-1)
            min_causal = min(min_causal, float(np.min(jj / scale_j)))
            min_j0 = min(min_j0, float(np.min(j[flowing][..., 0])))
        done += take
    return min_rho, min_causal, min_j0


def divergence_richardson_ratios(rng, configs=100, h=2e-2):
    ratios = []
    for _ in range(configs):
        mode = D11 if rng.random() < 0.7 else D31
        n = int(rng.integers(1, 3))
        psi = random_state(rng, n, mode)
        fol = random_curved_foliation(rng, mode.spatial_dims)
        pts, normals = random_leaf_tuples(rng, fol, n, 1)
        k = int(rng.integers(1, n + 1))
        r1 = divergence_residual(psi, k, pts[0], normals[0], h)
        r2 = divergence_residual(psi, k, pts[0], normals[0], h / 2)
        if r1 > 1e-9:                      # skip accidentally flat draws
            ratios.append(r1 / r2)
    return np.array(ratios)


def dirac_richardson_ratios(rng, draws=25, h=2e-2):
    ratios = []
    for _ in range(draws):
        mode = D11 if rng.random() < 0.7 else D31
        n = int(rng.integers(1, 3))
        psi = random_state(rng, n, mode)
        x = rng.uniform(-2, 2, size=(n, 4))
        x[:, 1 + mode.spatial_dims:] = 0.0
        k = int(rng.integers(1, n + 1))
        r1 = dirac_residual(psi, k, x, h)
        r2 = dirac_residual(psi, k, x, h / 2)
        if r1 > 1e-9:
            ratios.append(r1 / r2)
    return np.array(ratios)


# ---------------------------------------------------------------------------
# dynamics suites
# ---------------------------------------------------------------------------

def _reference_entangled_pair(mode=D11):
    m1 = make_mode([0.9], 1.0, 1, 1, mode)
    m2 = make_mode([-0.5], 1.0, 1, 1, mode)
    m3 = make_mode([0.3], 1.0, 1, 1, mode)
    m4 = make_mode([-1.1], 1.0, -1, 1, mode)
    return NParticleWavefunction([
        (1.0, (m1, m2)), (0.6 + 0.2j, (m3, m4)), (0.35j, (m2, m3)),
    ])


def flat_reduction_deviation(psi, q0, s0, s1, step):
    """(deviation, tolerance): covariant integrator on FlatTime vs the
    flat-frame oracle integrator from the spatial positions ``q0`` (N, sd)
    over the labels s0 -> s1, tolerance 10x the step-halving error."""
    sd = psi.mode.spatial_dims
    flat = FlatTime(spatial_dims=sd)
    q0 = np.asarray(q0, dtype=float)
    start = NConfiguration(s0, flat.leaf_point(s0, q0))

    def paths(h):
        b = integrate(psi, flat, start, s1, h)
        t, q = integrate_flat_bd(psi, s0, s1, h, q0)
        if not np.array_equal(t, b.s_grid):
            raise ConsistencyError("covariant and flat-frame grids differ")
        return b.points[..., 1:1 + sd], q

    qa, qb = paths(step)
    qa2, qb2 = paths(step / 2)
    dev = float(np.max(np.abs(qa - qb)))
    est = (np.max(np.abs(qa - qa2[::2])) + np.max(np.abs(qb - qb2[::2])))
    return dev, 10.0 * (est + 1e-12)


def default_curved_foliation(spatial_dims):
    return GraphLeaf(TanhProfile(0.8, 0.6),
                     validity_box=np.repeat([[-60.0, 60.0]], spatial_dims,
                                            axis=0),
                     spatial_dims=spatial_dims)


def _independence(psi, singles, curved, s0, pts0, step, t_span):
    # (deviation, tolerance) of the curved runs of psi from the starts pts0
    # (M, N, 4) on the leaf s0: particle k of each run against the flat run
    # of singles[k] through the same point, at 41 common coordinate times
    flat = FlatTime(spatial_dims=psi.mode.spatial_dims)
    s_end = s0 + 2.0 * t_span
    runs = integrate_ensemble(psi, curved, pts0, s0, s_end, step)
    halved = integrate_ensemble(psi, curved, pts0[:HALVING_STARTS], s0, s_end,
                                step / 2)

    def run_flat(psi_k, x0, h):
        t0 = float(x0[0])
        return integrate(psi_k, flat, NConfiguration(t0, x0[None]),
                         t0 + 2.0 * t_span, h)

    dev = est = 0.0
    for i in range(len(pts0)):
        bc = runs.bundle(i)
        for k, psi_k in enumerate(singles):
            bf = run_flat(psi_k, pts0[i, k], step)
            t_lo = max(bc.points[0, k, 0], bf.points[0, 0, 0])
            t_hi = min(bc.points[-1, k, 0], bf.points[-1, 0, 0])
            times = np.linspace(t_lo + 1e-9, min(t_hi, t_lo + t_span), 41)
            qc = sample_path_at_times(psi, curved, bc, k + 1, times)
            qf = sample_path_at_times(psi_k, flat, bf, 1, times)
            dev = max(dev, float(np.max(np.abs(qc - qf))))
            if i < HALVING_STARTS:
                qc2 = sample_path_at_times(psi, curved, halved.bundle(i),
                                           k + 1, times)
                qf2 = sample_path_at_times(
                    psi_k, flat, run_flat(psi_k, pts0[i, k], step / 2), 1,
                    times)
                est = max(est, float(np.max(np.abs(qc - qc2))),
                          float(np.max(np.abs(qf - qf2))))
    return dev, 10.0 * max(est, 1e-11)


def n1_foliation_independence(psi, x0, step=0.02, t_span=3.0, curved=None):
    """(deviation, tolerance) between the one-particle paths through the
    starts x0, shape (4,) or (M, 4), integrated against a curved foliation
    and against FlatTime.

    The starts must lie on one leaf of the curved foliation; a single point
    always does, and lies on a leaf of FlatTime too. The curved runs are
    integrated as one batch, each flat run alone from its own start time.
    Paths are compared at 41 common coordinate times. The deviation is the
    largest over all starts; the tolerance is 10x the largest step-halving
    error of either run over the first ``HALVING_STARTS`` starts, and at
    least 1e-10."""
    if psi.n_particles != 1:
        raise ValueError("one-particle state required")
    curved = curved or default_curved_foliation(psi.mode.spatial_dims)
    pts0 = np.asarray(x0, dtype=float).reshape(-1, 1, 4)
    return _independence(psi, [psi], curved, float(curved.label(pts0[0, 0])),
                         pts0, step, t_span)


def product_foliation_independence(factors, initial_xi, step=0.02,
                                   t_span=3.0, curved=None):
    """(deviation, tolerance) for a product state: each particle's path in
    the N-particle curved-foliation run must coincide with the flat-frame
    one-particle run of its own factor through the same starting point.

    ``factors[k]`` is a list of (weight, mode) for particle k+1; the curved
    runs start on the leaf s = 0 from the chart positions ``initial_xi``,
    shape (N, sd) or (M, N, sd), and are integrated as one batch. The
    deviation and tolerance are formed as in ``n1_foliation_independence``.
    """
    n = len(factors)
    sd = factors[0][0][1].mode.spatial_dims
    curved = curved or default_curved_foliation(sd)
    psi = NParticleWavefunction.from_product_branches([(1.0, factors)])
    singles = [NParticleWavefunction([(w, (md,)) for w, md in f])
               for f in factors]
    xi = np.asarray(initial_xi, dtype=float).reshape(-1, n, sd)
    pts0 = np.stack([curved.leaf_point(0.0, xi[:, k]) for k in range(n)],
                    axis=1)
    return _independence(psi, singles, curved, 0.0, pts0, step, t_span)


def frobenius_gradient_residual(foliations=None, h=1e-3):
    """Max V^dV residual over the gradient fields of built-in foliations."""
    if foliations is None:
        box = [[-6.0, 6.0]]
        foliations = [
            FlatTime(spatial_dims=1),
            GraphLeaf(TanhProfile(0.9, 0.7), validity_box=box, spatial_dims=1),
            GraphLeaf(RippleProfile(0.5, 1.3, 4.0), validity_box=box,
                      spatial_dims=1),
        ]
    worst = 0.0
    xs = [np.array([0.3, 0.4, 0.0, 0.0]), np.array([-1.0, 1.7, 0.0, 0.0]),
          np.array([2.0, -2.2, 0.0, 0.0])]
    for fol in foliations:
        for x in xs:
            worst = max(worst, frobenius_residual(fol.gradient, x, h))
    return worst


def continuity_residuals(rng, h=1e-2):
    """(product-state residual at h=1e-3, worst Richardson ratio entangled)."""
    mode = D11
    prod = NParticleWavefunction([(1.0, (make_mode([0.8], 1.0, 1, 1, mode),
                                         make_mode([-0.3], 1.0, 1, 1, mode)))])
    grid = rng.uniform(-1.5, 1.5, size=(20, 2, 1))
    flat_res = float(np.max(np.abs(
        flat_continuity_residual(prod, 0.2, grid, 1e-3, 1e-3))))

    psi = _reference_entangled_pair()
    r1 = flat_continuity_residual(psi, 0.2, grid, h, h)
    r2 = flat_continuity_residual(psi, 0.2, grid, h / 2, h / 2)
    keep = np.abs(r1) > 1e-9
    ratios = np.abs(r1[keep]) / np.abs(r2[keep])
    return flat_res, ratios


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

CHECK_NAMES = [
    "clifford", "hermiticity", "lifted_commutators", "operator_positivity",
    "mode_spinors", "k_independence", "current_positivity",
    "divergence_order", "dirac_equation_order", "frobenius_integrable",
    "frobenius_twisted", "flat_reduction", "foliation_independence_n1",
    "foliation_independence_product", "continuity_product",
    "continuity_order",
]


def run_all(scenario=None, seed=12345, gamma_fn=None):
    """Run every invariant suite; returns a JSON-ready report dict."""
    gamma_fn = gamma_fn or geometry.gamma
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, stat, threshold, passed, detail=""):
        checks.append({"name": name, "stat": float(stat),
                       "threshold": float(threshold), "passed": bool(passed),
                       "detail": detail})

    stat = clifford_deviation(gamma_fn)
    add("clifford", stat, 1e-12, stat < 1e-12,
        "max |{g^mu, g^nu} - 2 eta I| over both modes")

    stat = hermiticity_deviation(gamma_fn)
    add("hermiticity", stat, 0.0, stat == 0.0,
        "g0 hermitian, gi antihermitian, exactly")

    stat = lifted_commutator_deviation(rng)
    add("lifted_commutators", stat, 1e-12, stat < 1e-12,
        "operators of distinct particles commute")

    stat = contraction_positivity_min_eig(rng, draws=100)
    add("operator_positivity", stat, -1e-10, stat >= -1e-10,
        "min eigenvalue of the normal-contraction operator")

    stat = mode_spinor_residual(rng, draws=100)
    add("mode_spinors", stat, 1e-12, stat < 1e-12,
        "momentum-space equation residual and normalization")

    stat = k_independence_spread(rng, draws=1000)
    add("k_independence", stat, 1e-10, stat < 1e-10,
        "relative spread of {j_k . n_k}")

    min_rho, min_causal, min_j0 = positivity_stats(rng, draws=10000)
    add("current_positivity", min_rho, -1e-12,
        min_rho >= -1e-12 and min_causal >= -1e-10 and min_j0 > 0.0,
        f"min rho/scale; causality margin {min_causal:.3e}, "
        f"min j^0 {min_j0:.3e}")

    ratios = divergence_richardson_ratios(rng, configs=100)
    stat = float(np.max(np.abs(ratios - 4.0)))
    add("divergence_order", stat, 0.8, stat < 0.8,
        f"Richardson ratios on {len(ratios)} configurations")

    ratios = dirac_richardson_ratios(rng, draws=25)
    stat = float(np.max(np.abs(ratios - 4.0)))
    add("dirac_equation_order", stat, 0.8, stat < 0.8,
        "central-difference order of the multi-time equation residual")

    fols = None
    if scenario is not None and isinstance(scenario.foliation, GraphLeaf):
        fols = [FlatTime(spatial_dims=scenario.mode.spatial_dims),
                scenario.foliation]
    r1 = frobenius_gradient_residual(fols, h=1e-3)
    add("frobenius_integrable", r1, 1e-5, r1 < 1e-5,
        "V^dV of generating-function gradients")

    stat = frobenius_residual(twisted_field(0.5), np.array([0.2, 0.1, -0.4, 1.3]),
                              1e-4)
    add("frobenius_twisted", stat, 0.1, stat > 0.1,
        "non-integrable reference field stays bounded away from zero")

    dev, tol = flat_reduction_deviation(_reference_entangled_pair(),
                                        [[0.4], [-0.7]], 0.0, 2.0, 0.02)
    add("flat_reduction", dev, tol, dev < tol,
        "covariant integrator vs flat-frame oracle on FlatTime")

    psi1 = NParticleWavefunction([
        (1.0, (make_mode([0.9], 1.0, 1, 1, D11),)),
        (0.7j, (make_mode([0.3], 1.0, 1, 1, D11),)),
        (0.4, (make_mode([-0.2], 1.0, 1, 1, D11),)),
    ])
    dev, tol = n1_foliation_independence(psi1, [0.0, 0.2, 0.0, 0.0])
    add("foliation_independence_n1", dev, tol, dev < tol,
        "one-particle paths agree across foliations")

    factors = [[(1.0, make_mode([0.8], 1.0, 1, 1, D11)),
                (0.5, make_mode([0.2], 1.0, 1, 1, D11))],
               [(1.0, make_mode([-0.6], 1.0, 1, 1, D11)),
                (0.4j, make_mode([-0.1], 1.0, 1, 1, D11))]]
    dev, tol = product_foliation_independence(factors, [[0.5], [-0.8]])
    add("foliation_independence_product", dev, tol, dev < tol,
        "product-state paths agree across foliations")

    flat_res, ratios = continuity_residuals(rng)
    add("continuity_product", flat_res, 1e-8, flat_res < 1e-8,
        "flat continuity residual, product plane waves, h = 1e-3")
    stat = float(np.max(np.abs(ratios - 4.0)))
    add("continuity_order", stat, 0.8, stat < 0.8,
        "flat continuity residual is second order on entangled states")

    return {
        "schema_version": 1,
        "kind": "checks",
        "seed": int(seed),
        "scenario_hash": scenario.content_hash if scenario else None,
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
    }
